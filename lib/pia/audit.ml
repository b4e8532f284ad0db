module Prng = Indaas_util.Prng
module Table = Indaas_util.Table
module Obs = Indaas_obs.Registry
module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Vclock = Indaas_resilience.Vclock

type protocol =
  | Psop of { params : Indaas_crypto.Commutative.params option }
  | Psop_minhash of {
      params : Indaas_crypto.Commutative.params option;
      m : int;
    }
  | Ks of { key_bits : int }
  | Bloom of { bits : int; hashes : int; flip : float }
  | Cleartext

type provider = { name : string; components : Componentset.t }

let provider ~name components =
  { name; components = Componentset.of_list components }

type deployment_result = {
  providers : string list;
  jaccard : float;
  intersection : int option;
  union : int option;
  correlated : bool;
}

type round_failure = { group : string list; error : string; attempts : int }

type report = {
  way : int;
  results : deployment_result list;
  failures : round_failure list;
}

(* Duplicate provider names would silently produce duplicate subsets
   downstream; reject them at the boundary, naming the duplicate. *)
let check_unique_names ~what providers =
  let rec go seen = function
    | [] -> ()
    | p :: rest ->
        if List.mem p.name seen then
          invalid_arg (Printf.sprintf "%s: duplicate provider name %S" what p.name)
        else go (p.name :: seen) rest
  in
  go [] providers

let subsets_of_size k l =
  let rec go k l =
    match (k, l) with
    | 0, _ -> [ [] ]
    | _, [] -> []
    | k, x :: rest ->
        List.map (fun s -> x :: s) (go (k - 1) rest) @ go k rest
  in
  go k l

let protocol_label = function
  | Psop _ -> "psop"
  | Psop_minhash _ -> "psop_minhash"
  | Ks _ -> "ks"
  | Bloom _ -> "bloom"
  | Cleartext -> "cleartext"

let evaluate ?interceptor protocol rng group =
  let names = List.map (fun p -> p.name) group in
  Obs.with_span "pia.round"
    ~attrs:
      [
        ("protocol", protocol_label protocol);
        ("providers", String.concat "&" names);
      ]
  @@ fun () ->
  Obs.incr "pia.rounds";
  let datasets =
    Array.of_list (List.map (fun p -> Componentset.to_list p.components) group)
  in
  match protocol with
  | Cleartext ->
      let sets = List.map (fun p -> p.components) group in
      let inter = Componentset.cardinal (Componentset.inter_many sets) in
      let union = Componentset.cardinal (Componentset.union_many sets) in
      let j = Jaccard.of_cardinalities ~intersection:inter ~union in
      (names, j, Some inter, Some union)
  | Psop { params } ->
      let r = Psop.run ?params ?interceptor rng datasets in
      (names, r.Psop.jaccard, Some r.Psop.intersection, Some r.Psop.union)
  | Psop_minhash { params; m } ->
      let r = Psop.run_minhash ?params ?interceptor ~m rng datasets in
      (names, r.Psop.jaccard, None, None)
  | Bloom { bits; hashes; flip } ->
      let r = Bloompsi.run ~bits ~hashes ~flip rng datasets in
      ( names,
        r.Bloompsi.jaccard,
        Some (int_of_float (Float.round r.Bloompsi.intersection_estimate)),
        Some (int_of_float (Float.round r.Bloompsi.union_estimate)) )
  | Ks { key_bits } ->
      let r = Ks.run ~key_bits rng datasets in
      let inter = r.Ks.intersection in
      (* Union from public cardinalities: exact for two parties; for
         more, fall back to the pairwise-union bound computed from
         each party's size (documented in the interface). *)
      let sizes = List.map (fun p -> Componentset.cardinal p.components) group in
      let union =
        match sizes with
        | [ a; b ] -> Some (a + b - inter)
        | _ -> None
      in
      let j =
        match union with
        | Some u -> Jaccard.of_cardinalities ~intersection:inter ~union:u
        | None ->
            (* Conservative estimate against the smallest provider. *)
            let smallest = List.fold_left min max_int sizes in
            if smallest = 0 then 0.
            else float_of_int inter /. float_of_int smallest
      in
      (names, j, Some inter, union)

let audit ?(protocol = Cleartext) ?(rng = Prng.of_int 0x91A) ?faults ?retry ~way
    providers =
  check_unique_names ~what:"Audit.audit" providers;
  let n = List.length providers in
  if way < 2 then invalid_arg "Audit.audit: way must be >= 2";
  if way > n then invalid_arg "Audit.audit: way exceeds provider count";
  (* Each protocol round runs under the retry engine, intercepted by
     the injector's "transport" faults when one is given; a round that
     still fails is reported in [failures] instead of crashing the
     whole audit. *)
  let interceptor =
    Option.map (fun f -> Fault.transport_interceptor f ~target:"transport") faults
  in
  let clock =
    match faults with Some f -> Fault.clock f | None -> Vclock.create ()
  in
  let policy = Option.value retry ~default:Retry.default in
  let retry_rng = Prng.split rng in
  let measured =
    subsets_of_size way providers
    |> List.map (fun group ->
           let names = List.map (fun p -> p.name) group in
           let outcome =
             Retry.call ~policy ~clock ~rng:retry_rng
               ~label:(String.concat " & " names) (fun () ->
                 evaluate ?interceptor protocol rng group)
           in
           match outcome.Retry.result with
           | Ok r -> Either.Left r
           | Error error ->
               Obs.incr "pia.round_failures";
               Either.Right
                 { group = names; error; attempts = outcome.Retry.attempts })
  in
  let results =
    List.filter_map
      (function
        | Either.Left (providers, jaccard, intersection, union) ->
            Some
              {
                providers;
                jaccard;
                intersection;
                union;
                correlated = Jaccard.significantly_correlated jaccard;
              }
        | Either.Right _ -> None)
      measured
    |> List.sort (fun a b ->
           match compare a.jaccard b.jaccard with
           | 0 -> compare a.providers b.providers
           | c -> c)
  in
  let failures =
    List.filter_map
      (function Either.Right f -> Some f | Either.Left _ -> None)
      measured
    |> List.sort (fun a b -> compare a.group b.group)
  in
  { way; results; failures }

let render report =
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right ]
      [
        "Rank";
        Printf.sprintf "%d-Way Redundancy Deployment" report.way;
        "Jaccard";
        "correlated?";
      ]
  in
  List.iteri
    (fun i r ->
      Table.add_row t
        [
          string_of_int (i + 1);
          String.concat " & " r.providers;
          Printf.sprintf "%.4f" r.jaccard;
          (if r.correlated then "YES" else "no");
        ])
    report.results;
  let rendered = Table.render t in
  match report.failures with
  | [] -> rendered
  | failures ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf rendered;
      Buffer.add_string buf
        (Printf.sprintf
           "\n*** DEGRADED AUDIT *** %d deployment(s) could not be measured:\n"
           (List.length failures));
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "  - %s: failed: %s (%d attempts)\n"
               (String.concat " & " f.group) f.error f.attempts))
        failures;
      Buffer.add_string buf
        "  unmeasured deployments are missing from the ranking above";
      Buffer.contents buf

let best report =
  match report.results with
  | best :: _ -> best
  | [] -> invalid_arg "Audit.best: empty report"

type nofm_result = {
  group : string list;
  full_jaccard : float;
  worst_quorum : string list;
  worst_quorum_jaccard : float;
}

let audit_nofm ?(protocol = Cleartext) ?(rng = Prng.of_int 0x90F) ~n ~m providers =
  check_unique_names ~what:"Audit.audit_nofm" providers;
  let count = List.length providers in
  if n < 2 || n > m || m > count then
    invalid_arg "Audit.audit_nofm: need 2 <= n <= m <= #providers";
  let jaccard_of group =
    let _, j, _, _ = evaluate protocol rng group in
    j
  in
  subsets_of_size m providers
  |> List.map (fun group ->
         let full_jaccard = jaccard_of group in
         let quorums = subsets_of_size n group in
         let worst =
           List.fold_left
             (fun acc quorum ->
               let j = jaccard_of quorum in
               match acc with
               | Some (_, best_j) when best_j >= j -> acc
               | _ -> Some (quorum, j))
             None quorums
         in
         let worst_quorum, worst_quorum_jaccard =
           match worst with
           | Some (q, j) -> (List.map (fun p -> p.name) q, j)
           | None -> ([], 0.)
         in
         {
           group = List.map (fun p -> p.name) group;
           full_jaccard;
           worst_quorum;
           worst_quorum_jaccard;
         })
  |> List.sort (fun a b ->
         match compare a.worst_quorum_jaccard b.worst_quorum_jaccard with
         | 0 -> (
             match compare a.full_jaccard b.full_jaccard with
             | 0 -> compare a.group b.group
             | c -> c)
         | c -> c)

let render_nofm ~n results =
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Left; Table.Right ]
      [
        "Rank"; "Deployment (m providers)"; "J(all m)";
        Printf.sprintf "worst %d-quorum" n; "J(quorum)";
      ]
  in
  List.iteri
    (fun i r ->
      Table.add_row t
        [
          string_of_int (i + 1);
          String.concat " & " r.group;
          Printf.sprintf "%.4f" r.full_jaccard;
          String.concat " & " r.worst_quorum;
          Printf.sprintf "%.4f" r.worst_quorum_jaccard;
        ])
    results;
  Table.render t

module Json = Indaas_util.Json

let to_json report =
  Json.Obj
    [
      ("way", Json.Int report.way);
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ( "providers",
                     Json.List (List.map (fun p -> Json.String p) r.providers) );
                   ("jaccard", Json.Float r.jaccard);
                   ( "intersection",
                     match r.intersection with
                     | Some i -> Json.Int i
                     | None -> Json.Null );
                   ( "union",
                     match r.union with Some u -> Json.Int u | None -> Json.Null );
                   ("correlated", Json.Bool r.correlated);
                 ])
             report.results) );
      ("degraded", Json.Bool (report.failures <> []));
      ( "failures",
        Json.List
          (List.map
             (fun (f : round_failure) ->
               Json.Obj
                 [
                   ( "providers",
                     Json.List (List.map (fun p -> Json.String p) f.group) );
                   ("error", Json.String f.error);
                   ("attempts", Json.Int f.attempts);
                 ])
             report.failures) );
    ]
