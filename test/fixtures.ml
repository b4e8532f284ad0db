(* Inputs shared by several test executables. *)

module Dependency = Indaas_depdata.Dependency

(* cwd is test/ under `dune runtest` but the project root under
   `dune exec test/test_sia.exe` *)
let example_path name =
  let candidates =
    [ Filename.concat "../examples/db" name; Filename.concat "examples/db" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate examples/db/" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Random dependency databases over a small machine universe — many of
   them malformed on purpose. *)
let gen_db =
  QCheck.make
    ~print:(fun records -> Dependency.to_xml_many records)
    QCheck.Gen.(
      let machine = map (Printf.sprintf "m%d") (int_bound 3) in
      let device = map (Printf.sprintf "d%d") (int_bound 4) in
      let package = map (Printf.sprintf "p%d") (int_bound 3) in
      let record =
        oneof
          [
            map2
              (fun src route -> Dependency.network ~src ~dst:"I" ~route)
              machine
              (list_size (int_bound 3) device);
            map2
              (fun hw dep -> Dependency.hardware ~hw ~hw_type:"Disk" ~dep)
              machine device;
            map2
              (fun (pgm, host) deps -> Dependency.software ~pgm ~host ~deps)
              (pair package machine)
              (list_size (int_bound 2) package);
          ]
      in
      list_size (int_range 1 10) record)

(* Random weighted fault sets (Figure 4(b) shape): one to three
   sources over six components, one probability per component name. *)
let random_fault_sets rng =
  let module Prng = Indaas_util.Prng in
  let sources =
    List.init
      (1 + Prng.int rng 3)
      (fun i ->
        ( Printf.sprintf "E%d" i,
          List.init
            (1 + Prng.int rng 4)
            (fun j -> (Printf.sprintf "c%d" (Prng.int rng 6), 0.1 +. (0.1 *. float_of_int j))) ))
  in
  (* dedup per-source components to avoid prob conflicts *)
  let sources =
    List.map
      (fun (s, cs) ->
        let seen = Hashtbl.create 8 in
        ( s,
          List.filter
            (fun (c, _) ->
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.add seen c ();
                true
              end)
            cs ))
      sources
  in
  (* assign a single consistent probability per name *)
  let prob_of_name = Hashtbl.create 8 in
  List.map
    (fun (s, cs) ->
      ( s,
        List.map
          (fun (c, p) ->
            match Hashtbl.find_opt prob_of_name c with
            | Some p0 -> (c, p0)
            | None ->
                Hashtbl.add prob_of_name c p;
                (c, p))
          cs ))
    sources

(* The reference collection fold: run each selected source's modules
   in order, merge their records, then keep the requested kinds. It is
   the oracle [Agent.collect] and [Agent.run] must match when nothing
   fails. *)
let collect_oracle (spec : Indaas.Spec.t) sources =
  let module Agent = Indaas.Agent in
  let module Spec = Indaas.Spec in
  let module Depdb = Indaas_depdata.Depdb in
  let kind = function
    | Dependency.Network _ -> Spec.Network
    | Dependency.Hardware _ -> Spec.Hardware
    | Dependency.Software _ -> Spec.Software
  in
  let db = Depdb.create () in
  List.iter
    (fun name ->
      let source = List.find (fun s -> s.Agent.source_name = name) sources in
      List.iter
        (fun (m : Indaas_depdata.Collectors.t) ->
          Depdb.add_all db (m.Indaas_depdata.Collectors.collect ()))
        source.Agent.modules)
    spec.Spec.data_sources;
  List.filter (fun r -> Spec.wants spec (kind r)) (Depdb.records db)

(* BDD queries only tests ask, built on [Bdd]'s public API. *)
module Bdd = Indaas_faultgraph.Bdd

(* Failure states over [vars] variables: Pr(node) with every event at
   1/2 is the fraction of assignments under which it holds. *)
let sat_count m node ~vars =
  (2. ** float_of_int vars) *. Bdd.probability m node ~prob_of:(fun _ -> 0.5)

(* The decision path for one assignment: with 0/1 probabilities,
   Pr(node) is 1 exactly when the assignment satisfies it. *)
let evaluate m node ~failed =
  Bdd.probability m node ~prob_of:(fun id -> if failed id then 1. else 0.) = 1.

(* A node with no decision node below it is a constant. *)
let is_terminal m node =
  if Bdd.node_count m node > 0 then None
  else Some (Bdd.probability m node ~prob_of:(fun _ -> 0.5) = 1.)

let minimal_rg_count g = List.length (Bdd.minimal_risk_groups g)

(* The report tree as it was built before leaves were shared: a fresh
   object, name strings and tail for every RG. The oracle
   [Report.deployment_to_json] must encode byte for byte. *)
module Json = Indaas_util.Json

let ranked_to_json (rg : Indaas_sia.Rank.ranked) =
  let module Rank = Indaas_sia.Rank in
  Json.Obj
    [
      ("components", Json.List (List.map (fun n -> Json.String n) rg.Rank.rg_names));
      ("size", Json.Int rg.Rank.size);
      ( "probability",
        match rg.Rank.probability with Some p -> Json.Float p | None -> Json.Null );
      ( "importance",
        match rg.Rank.importance with Some i -> Json.Float i | None -> Json.Null );
    ]

let deployment_to_json (r : Indaas_sia.Audit.deployment_report) =
  let module Audit = Indaas_sia.Audit in
  Json.Obj
    [
      ("servers", Json.List (List.map (fun s -> Json.String s) r.Audit.servers));
      ("expected_rg_size", Json.Int r.Audit.expected_rg_size);
      ("risk_groups", Json.List (List.map ranked_to_json r.Audit.ranked));
      ("unexpected", Json.List (List.map ranked_to_json r.Audit.unexpected));
      ("independence_score", Json.Float r.Audit.independence_score);
      ( "failure_probability",
        match r.Audit.failure_probability with
        | Some p -> Json.Float p
        | None -> Json.Null );
      ( "diagnostics",
        Json.List
          (List.map Indaas_lint.Diagnostic.to_json r.Audit.diagnostics) );
    ]
