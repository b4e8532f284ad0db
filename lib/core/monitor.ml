module Audit = Indaas_sia.Audit
module Rank = Indaas_sia.Rank
module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Prng = Indaas_util.Prng

type change =
  | Unexpected_appeared of Rank.ranked
  | Unexpected_resolved of string list
  | Risk_group_appeared of Rank.ranked
  | Risk_group_resolved of string list
  | Failure_probability_changed of { before : float; after : float }

type diff = {
  servers : string list;
  graph : Graph.t;
  changes : change list;
  regressed : bool;
}

module NameSet = Set.Make (struct
  type t = string list

  let compare = compare
end)

let names_of report r = Cutset.names report.Audit.graph r.Rank.rg
let keys report ranked = NameSet.of_list (List.map (names_of report) ranked)

let diff_reports ~before ~after =
  if before.Audit.servers <> after.Audit.servers then
    invalid_arg "Monitor.diff_reports: different deployments";
  let before_all = keys before before.Audit.ranked in
  let after_all = keys after after.Audit.ranked in
  let before_unexpected = keys before before.Audit.unexpected in
  let after_unexpected = keys after after.Audit.unexpected in
  let appeared =
    List.filter
      (fun r -> not (NameSet.mem (names_of after r) before_all))
      after.Audit.ranked
  in
  let resolved =
    NameSet.elements (NameSet.diff before_all after_all)
  in
  let changes =
    List.map
      (fun r ->
        if NameSet.mem (names_of after r) after_unexpected then
          Unexpected_appeared r
        else Risk_group_appeared r)
      appeared
    @ List.map
        (fun names ->
          if NameSet.mem names before_unexpected then Unexpected_resolved names
          else Risk_group_resolved names)
        resolved
  in
  let changes =
    match (before.Audit.failure_probability, after.Audit.failure_probability) with
    | Some b, Some a when b > 0. && abs_float (a -. b) /. b > 0.01 ->
        changes @ [ Failure_probability_changed { before = b; after = a } ]
    | _ -> changes
  in
  let regressed =
    List.exists
      (function
        | Unexpected_appeared _ -> true
        | Failure_probability_changed { before; after } -> after > before
        | Unexpected_resolved _ | Risk_group_appeared _ | Risk_group_resolved _
          ->
            false)
      changes
  in
  { servers = after.Audit.servers; graph = after.Audit.graph; changes; regressed }

let audit_series ?rng snapshots request =
  if snapshots = [] then invalid_arg "Monitor.audit_series: no snapshots";
  let reports = List.map (fun db -> Audit.audit ?rng db request) snapshots in
  let rec diffs = function
    | a :: (b :: _ as rest) -> diff_reports ~before:a ~after:b :: diffs rest
    | [ _ ] | [] -> []
  in
  (reports, diffs reports)

let braces names = "{" ^ String.concat ", " names ^ "}"

let render_change graph = function
  | Unexpected_appeared r ->
      Printf.sprintf "!! new UNEXPECTED risk group %s (size %d)"
        (braces (Cutset.names graph r.Rank.rg)) r.Rank.size
  | Unexpected_resolved names ->
      Printf.sprintf "   unexpected risk group %s resolved" (braces names)
  | Risk_group_appeared r ->
      Printf.sprintf "   new risk group %s (size %d)"
        (braces (Cutset.names graph r.Rank.rg)) r.Rank.size
  | Risk_group_resolved names ->
      Printf.sprintf "   risk group %s resolved" (braces names)
  | Failure_probability_changed { before; after } ->
      Printf.sprintf "%s Pr(deployment fails): %.6g -> %.6g"
        (if after > before then "!!" else "  ")
        before after

let render_diff d =
  if d.changes = [] then Printf.sprintf "%s: no changes" (braces d.servers)
  else
    Printf.sprintf "%s:%s\n%s" (braces d.servers)
      (if d.regressed then " REGRESSED" else "")
      (String.concat "\n" (List.map (render_change d.graph) d.changes))

let first_regression diffs =
  let rec go i = function
    | [] -> None
    | d :: rest -> if d.regressed then Some i else go (i + 1) rest
  in
  go 0 diffs
