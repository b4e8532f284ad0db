module Table = Indaas_util.Table
module Lint_diagnostic = Indaas_lint.Diagnostic

let braces names = "{" ^ String.concat ", " names ^ "}"

let opt_float = function
  | None -> "-"
  | Some f -> Printf.sprintf "%.6g" f

let render_deployment ?(max_rgs = 20) (r : Audit.deployment_report) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "Deployment: %s\n" (braces r.Audit.servers));
  Buffer.add_string buf
    (Printf.sprintf "  fault graph: %s\n"
       (Format.asprintf "%a" Indaas_faultgraph.Graph.pp r.Audit.graph));
  Buffer.add_string buf
    (Printf.sprintf "  risk groups: %d (expected minimal size %d)\n"
       (List.length r.Audit.ranked) r.Audit.expected_rg_size);
  Buffer.add_string buf
    (Printf.sprintf "  unexpected RGs: %d\n" (List.length r.Audit.unexpected));
  Buffer.add_string buf
    (Printf.sprintf "  independence score: %.6g\n" r.Audit.independence_score);
  (match r.Audit.failure_probability with
  | Some p -> Buffer.add_string buf (Printf.sprintf "  Pr(deployment fails): %.6g\n" p)
  | None -> ());
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  lint: %s %s: %s\n" d.Lint_diagnostic.code
           (Lint_diagnostic.severity_to_string d.Lint_diagnostic.severity)
           d.Lint_diagnostic.message))
    r.Audit.diagnostics;
  let t =
    Table.create
      ~aligns:[ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right ]
      [ "rank"; "risk group"; "size"; "Pr(C)"; "importance" ]
  in
  List.iteri
    (fun i (rg : Rank.ranked) ->
      if i < max_rgs then
        Table.add_row t
          [
            string_of_int (i + 1);
            braces (Indaas_faultgraph.Cutset.names r.Audit.graph rg.Rank.rg);
            string_of_int rg.Rank.size;
            opt_float rg.Rank.probability;
            opt_float rg.Rank.importance;
          ])
    r.Audit.ranked;
  Buffer.add_string buf (Table.render t);
  if List.length r.Audit.ranked > max_rgs then
    Buffer.add_string buf
      (Printf.sprintf "\n  (%d more risk groups omitted)"
         (List.length r.Audit.ranked - max_rgs));
  Buffer.contents buf

let summary_line (r : Audit.deployment_report) =
  Printf.sprintf "%s: %d RGs, %d unexpected, score %.6g%s"
    (braces r.Audit.servers)
    (List.length r.Audit.ranked)
    (List.length r.Audit.unexpected)
    r.Audit.independence_score
    (match r.Audit.failure_probability with
    | Some p -> Printf.sprintf ", Pr(fail) %.6g" p
    | None -> "")

let render_comparison ?(max_rows = 30) reports =
  let t =
    Table.create
      ~aligns:
        [ Table.Right; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "rank"; "deployment"; "#RGs"; "#unexpected"; "score"; "Pr(fail)" ]
  in
  List.iteri
    (fun i (r : Audit.deployment_report) ->
      if i < max_rows then
        Table.add_row t
          [
            string_of_int (i + 1);
            braces r.Audit.servers;
            string_of_int (List.length r.Audit.ranked);
            string_of_int (List.length r.Audit.unexpected);
            Printf.sprintf "%.6g" r.Audit.independence_score;
            opt_float r.Audit.failure_probability;
          ])
    reports;
  let rendered = Table.render t in
  if List.length reports > max_rows then
    rendered
    ^ Printf.sprintf "\n(%d more deployments omitted)"
        (List.length reports - max_rows)
  else rendered

module Json = Indaas_util.Json

(* A report's tree shares its leaves, which changes no byte of its
   encoding: one [String] per basic event, and for RGs without
   probabilities one [size]/[probability]/[importance] tail per size.
   A cached tree then costs little beyond each RG's list cells. *)
let ranked_to_json (r : Audit.deployment_report) =
  let g = r.Audit.graph in
  let leaves = Array.make (Indaas_faultgraph.Graph.node_count g) Json.Null in
  let leaf id =
    match leaves.(id) with
    | Json.Null ->
        let s = Json.String (Indaas_faultgraph.Graph.name_of g id) in
        leaves.(id) <- s;
        s
    | s -> s
  in
  let tails = Hashtbl.create 8 in
  let tail (rg : Rank.ranked) =
    let fields () =
      [
        ("size", Json.Int rg.Rank.size);
        ( "probability",
          match rg.Rank.probability with Some p -> Json.Float p | None -> Json.Null );
        ( "importance",
          match rg.Rank.importance with Some i -> Json.Float i | None -> Json.Null );
      ]
    in
    if Option.is_some rg.Rank.probability || Option.is_some rg.Rank.importance
    then fields ()
    else
      match Hashtbl.find_opt tails rg.Rank.size with
      | Some t -> t
      | None ->
          let t = fields () in
          Hashtbl.add tails rg.Rank.size t;
          t
  in
  fun (rg : Rank.ranked) ->
    Json.Obj
      (( "components",
         Json.List (Array.fold_right (fun id l -> leaf id :: l) rg.Rank.rg []) )
      :: tail rg)

let deployment_to_json (r : Audit.deployment_report) =
  let rg_json = ranked_to_json r in
  Json.Obj
    [
      ("servers", Json.List (List.map (fun s -> Json.String s) r.Audit.servers));
      ("expected_rg_size", Json.Int r.Audit.expected_rg_size);
      ("risk_groups", Json.List (List.map rg_json r.Audit.ranked));
      ("unexpected", Json.List (List.map rg_json r.Audit.unexpected));
      ("independence_score", Json.Float r.Audit.independence_score);
      ( "failure_probability",
        match r.Audit.failure_probability with
        | Some p -> Json.Float p
        | None -> Json.Null );
      ( "diagnostics",
        Json.List (List.map Lint_diagnostic.to_json r.Audit.diagnostics) );
    ]

let comparison_to_json reports =
  Json.List (List.map deployment_to_json reports)
