module Lint = Indaas_lint.Lint
module D = Indaas_lint.Diagnostic
module Graph_rules = Indaas_lint.Graph_rules
module Topo_rules = Indaas_lint.Topo_rules
module Reporter = Indaas_lint.Reporter
module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Graph = Indaas_faultgraph.Graph
module Fattree = Indaas_topology.Fattree
module Sia_builder = Indaas_sia.Builder
module Sia_audit = Indaas_sia.Audit
module Json = Indaas_util.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let codes findings = List.sort_uniq compare (List.map (fun d -> d.D.code) findings)
let has code findings = List.mem code (codes findings)

(* The paper's Figure 2 storage deployment — structurally sound. *)
let figure2_db () =
  Depdb.of_string
    {|<src="S1" dst="Internet" route="ToR1,Core1"/>
<src="S1" dst="Internet" route="ToR1,Core2"/>
<src="S2" dst="Internet" route="ToR1,Core1"/>
<src="S2" dst="Internet" route="ToR1,Core2"/>
<hw="S1" type="Disk" dep="S1-disk"/>
<hw="S2" type="Disk" dep="S2-disk"/>
<pgm="Riak1" hw="S1" dep="libc6"/>
<pgm="Riak2" hw="S2" dep="libc6"/>|}

(* --- dependency-DB rules --------------------------------------------- *)

let test_clean_db_is_silent () =
  check (Alcotest.list Alcotest.string) "no findings" []
    (codes (Lint.lint_db (figure2_db ())))

let test_dangling_host () =
  let db = Depdb.create () in
  Depdb.add db (Dependency.software ~pgm:"A" ~host:"Ghost" ~deps:[ "libx" ]);
  check Alcotest.bool "fires" true (has "IND-D001" (Lint.lint_db db));
  check Alcotest.bool "not on figure 2" false
    (has "IND-D001" (Lint.lint_db (figure2_db ())))

let test_degenerate_route () =
  let db = figure2_db () in
  Depdb.add db (Dependency.network ~src:"S1" ~dst:"X" ~route:[]);
  check Alcotest.bool "empty route" true (has "IND-D002" (Lint.lint_db db));
  let db2 = figure2_db () in
  Depdb.add db2 (Dependency.network ~src:"S1" ~dst:"X" ~route:[ "sw"; "S1" ]);
  check Alcotest.bool "self endpoint" true (has "IND-D002" (Lint.lint_db db2))

let test_duplicate_routes () =
  let db = figure2_db () in
  Depdb.add db (Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "Core1"; "ToR1" ]);
  check Alcotest.bool "same device set" true (has "IND-D003" (Lint.lint_db db));
  let db2 = figure2_db () in
  Depdb.add db2 (Dependency.network ~src:"S2" ~dst:"Y" ~route:[ "sw"; "sw" ]);
  check Alcotest.bool "repeated device" true (has "IND-D003" (Lint.lint_db db2))

let test_software_cycle () =
  let db = figure2_db () in
  Depdb.add db (Dependency.software ~pgm:"A" ~host:"S1" ~deps:[ "B" ]);
  Depdb.add db (Dependency.software ~pgm:"B" ~host:"S2" ~deps:[ "C" ]);
  Depdb.add db (Dependency.software ~pgm:"C" ~host:"S1" ~deps:[ "A" ]);
  let findings = Lint.lint_db db in
  check Alcotest.bool "fires" true (has "IND-D004" findings);
  check Alcotest.int "one cycle, reported once" 1
    (List.length (List.filter (fun d -> d.D.code = "IND-D004") findings));
  (* an acyclic chain stays silent *)
  let chain = figure2_db () in
  Depdb.add chain (Dependency.software ~pgm:"A" ~host:"S1" ~deps:[ "B" ]);
  Depdb.add chain (Dependency.software ~pgm:"B" ~host:"S2" ~deps:[ "libz" ]);
  check Alcotest.bool "chain clean" false (has "IND-D004" (Lint.lint_db chain))

let test_unbuildable_machine () =
  let db = figure2_db () in
  Depdb.add db (Dependency.network ~src:"Lonely" ~dst:"Internet" ~route:[]);
  let findings = Lint.lint_db db in
  check Alcotest.bool "fires" true (has "IND-D005" findings);
  (* and the machine indeed cannot be built *)
  check Alcotest.bool "build raises" true
    (try
       ignore (Sia_builder.build db (Sia_builder.spec [ "Lonely" ]));
       false
     with Invalid_argument _ -> true)

let test_leaf_program_hint () =
  let db = figure2_db () in
  Depdb.add db (Dependency.software ~pgm:"standalone" ~host:"S1" ~deps:[]);
  let findings = Lint.lint_db db in
  check Alcotest.bool "fires" true (has "IND-D006" findings);
  check Alcotest.int "hint severity, exit 0" 0 (Reporter.exit_code findings)

(* --- fault-graph rules ------------------------------------------------ *)

let vbasic ?prob id name = { Graph_rules.id; name; kind = Graph.Basic prob; children = [] }
let vgate id name gate children = { Graph_rules.id; name; kind = Graph.Gate gate; children }

let test_kofn_out_of_range () =
  let view =
    { Graph_rules.nodes =
        [ vbasic 0 "a"; vbasic 1 "b"; vgate 2 "top" (Graph.Kofn 5) [ 0; 1 ] ];
      top = 2 }
  in
  check Alcotest.bool "k>n fires" true
    (has "IND-G001" (Lint.run [ Lint.Graph_view view ]));
  let view0 =
    { Graph_rules.nodes =
        [ vbasic 0 "a"; vbasic 1 "b"; vgate 2 "top" (Graph.Kofn 0) [ 0; 1 ] ];
      top = 2 }
  in
  check Alcotest.bool "k<1 fires" true
    (has "IND-G001" (Lint.run [ Lint.Graph_view view0 ]))

let test_empty_gate () =
  let view =
    { Graph_rules.nodes = [ vgate 0 "top" Graph.And [] ]; top = 0 }
  in
  check Alcotest.bool "fires" true
    (has "IND-G002" (Lint.run [ Lint.Graph_view view ]))

let test_single_child_gate () =
  (* buildable through the real Builder: a pass-through OR *)
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_basic b "x" in
  let g1 = Graph.Builder.add_gate b ~name:"pass" Graph.Or [ x ] in
  let y = Graph.Builder.add_basic b "y" in
  let top = Graph.Builder.add_gate b ~name:"top" Graph.And [ g1; y ] in
  let g = Graph.Builder.build b ~top in
  check Alcotest.bool "fires" true
    (has "IND-G003" (Lint.run [ Lint.Fault_graph g ]))

let test_probability_out_of_range () =
  let view =
    { Graph_rules.nodes =
        [ vbasic ~prob:1.5 0 "a"; vgate 1 "top" Graph.Or [ 0 ] ];
      top = 1 }
  in
  check Alcotest.bool "fires" true
    (has "IND-G004" (Lint.run [ Lint.Graph_view view ]))

let test_unreachable_node () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_basic b "x" in
  let _orphan = Graph.Builder.add_basic b "orphan" in
  let top = Graph.Builder.add_gate b ~name:"top" Graph.Or [ x ] in
  let g = Graph.Builder.build b ~top in
  let findings = Lint.run [ Lint.Fault_graph g ] in
  check Alcotest.bool "fires" true (has "IND-G005" findings);
  check Alcotest.bool "names the orphan" true
    (List.exists
       (fun d ->
         d.D.code = "IND-G005"
         && (match d.D.location with
            | D.Node { name; _ } -> name = "orphan"
            | _ -> false))
       findings)

let test_spof () =
  (* E1 = {A, B}, E2 = {B, C}: the shared B is a size-1 risk group. *)
  let g =
    Graph.of_component_sets [ ("E1", [ "A"; "B" ]); ("E2", [ "B"; "C" ]) ]
  in
  check (Alcotest.list Alcotest.string) "spof names" [ "B" ]
    (Graph_rules.single_points_of_failure (Graph_rules.of_graph g));
  check Alcotest.bool "fires" true
    (has "IND-G006" (Lint.run [ Lint.Fault_graph g ]));
  (* disjoint component sets: no SPOF *)
  let clean =
    Graph.of_component_sets [ ("E1", [ "A" ]); ("E2", [ "B" ]) ]
  in
  check (Alcotest.list Alcotest.string) "no spof" []
    (Graph_rules.single_points_of_failure (Graph_rules.of_graph clean))

(* --- topology rules ---------------------------------------------------- *)

let test_partitioned_topology () =
  let db =
    Depdb.of_string
      {|<src="S1" dst="I" route="swA"/>
<src="S2" dst="I" route="swA"/>
<src="S3" dst="I" route="swB"/>|}
  in
  let findings = Lint.run [ Lint.Topology (Topo_rules.of_db db) ] in
  check Alcotest.bool "fires" true (has "IND-T001" findings);
  let connected =
    Depdb.of_string
      {|<src="S1" dst="I" route="swA,core"/>
<src="S2" dst="I" route="swB,core"/>|}
  in
  check (Alcotest.list Alcotest.string) "connected clean" []
    (codes (Lint.run [ Lint.Topology (Topo_rules.of_db connected) ]))

let test_duplicate_attachment () =
  let db =
    Depdb.of_string
      {|<src="S1" dst="I" route="swA,core"/>
<src="S1" dst="I" route="swB,core"/>|}
  in
  check Alcotest.bool "fires" true
    (has "IND-T002" (Lint.run [ Lint.Topology (Topo_rules.of_db db) ]))

let test_fattree_is_clean () =
  let t = Fattree.create ~k:4 in
  check (Alcotest.list Alcotest.string) "no findings" []
    (codes (Lint.run [ Lint.Topology (Topo_rules.of_fattree t) ]))

(* --- engine: registry, suppression, reporter ---------------------------- *)

let test_registry () =
  let cs = List.map (fun (c, _, _) -> c) Lint.registry in
  check Alcotest.bool "at least 10 stable codes" true (List.length cs >= 10);
  check (Alcotest.list Alcotest.string) "codes are unique and sorted" cs
    (List.sort_uniq compare cs);
  List.iter
    (fun c ->
      check Alcotest.bool (c ^ " well-formed") true
        (String.length c = 8 && String.sub c 0 4 = "IND-"))
    cs

let test_disable () =
  let db = figure2_db () in
  Depdb.add db (Dependency.software ~pgm:"A" ~host:"Ghost" ~deps:[ "B" ]);
  check Alcotest.bool "present" true (has "IND-D001" (Lint.lint_db db));
  check Alcotest.bool "suppressed" false
    (has "IND-D001" (Lint.lint_db ~disable:[ "IND-D001" ] db))

let test_reporter () =
  let err =
    D.make ~code:"IND-D001" ~severity:D.Error ~location:D.Whole "boom"
  in
  let warn =
    D.make ~code:"IND-T002" ~severity:D.Warning ~location:(D.Machine "S1") "meh"
  in
  check Alcotest.int "error exits 1" 1 (Reporter.exit_code [ warn; err ]);
  check Alcotest.int "warning exits 0" 0 (Reporter.exit_code [ warn ]);
  check Alcotest.string "empty render" "no findings" (Reporter.render []);
  check Alcotest.string "summary" "1 error, 1 warning, 0 hints"
    (Reporter.summary [ err; warn ]);
  let rendered = Reporter.render [ warn; err ] in
  check Alcotest.bool "errors sort first" true
    (Astring.String.find_sub ~sub:"IND-D001" rendered
    < Astring.String.find_sub ~sub:"IND-T002" rendered)

let test_audit_attaches_diagnostics () =
  let report =
    Sia_audit.audit (figure2_db ()) (Sia_audit.request [ "S1"; "S2" ])
  in
  let spofs =
    List.filter (fun d -> d.D.code = "IND-G006") report.Sia_audit.diagnostics
  in
  check Alcotest.int "two SPOF warnings" 2 (List.length spofs);
  check Alcotest.bool "no hints attached" true
    (List.for_all
       (fun d -> d.D.severity <> D.Hint)
       report.Sia_audit.diagnostics)

let test_construction_failure () =
  let d = Lint.construction_failure "no servers" in
  check Alcotest.string "code" "IND-G007" d.D.code;
  check Alcotest.int "error" 1 (Reporter.exit_code [ d ])

(* --- json round-trips --------------------------------------------------- *)

let test_diagnostic_json_cases () =
  let locs =
    [
      D.Whole;
      D.Machine "S1";
      D.Node { id = 3; name = "ToR1" };
      D.Link ("a", "b");
      D.Record (Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw" ]);
      D.Record (Dependency.hardware ~hw:"S1" ~hw_type:"Disk" ~dep:"d1");
      D.Record (Dependency.software ~pgm:"p" ~host:"S1" ~deps:[ "x"; "y" ]);
    ]
  in
  List.iter
    (fun location ->
      let d =
        D.make ~code:"IND-D001" ~severity:D.Warning ~location
          "message with \"quotes\" and\nnewlines"
      in
      let round = D.of_json (Json.of_string (Json.to_string (D.to_json d))) in
      check Alcotest.bool
        ("round-trip " ^ D.location_to_string location)
        true (D.equal d round))
    locs

(* --- qcheck properties --------------------------------------------------- *)

let gen_word =
  QCheck.Gen.(
    map
      (fun (c, s) -> Printf.sprintf "%c%s" c s)
      (pair (char_range 'a' 'z')
         (string_size ~gen:(char_range 'a' 'z') (int_bound 5))))

let gen_location =
  QCheck.Gen.(
    oneof
      [
        return D.Whole;
        map (fun m -> D.Machine m) gen_word;
        map2 (fun id name -> D.Node { id; name }) (int_bound 1000) gen_word;
        map2 (fun a b -> D.Link (a, b)) gen_word gen_word;
        map2
          (fun src route -> D.Record (Dependency.network ~src ~dst:"I" ~route))
          gen_word
          (list_size (int_bound 3) gen_word);
        map2
          (fun hw dep -> D.Record (Dependency.hardware ~hw ~hw_type:"CPU" ~dep))
          gen_word gen_word;
        map2
          (fun pgm deps -> D.Record (Dependency.software ~pgm ~host:"S1" ~deps))
          gen_word
          (list_size (int_bound 3) gen_word);
      ])

let gen_diagnostic =
  QCheck.make
    ~print:(fun d -> Format.asprintf "%a" D.pp d)
    QCheck.Gen.(
      let code =
        oneofl (List.map (fun (c, _, _) -> c) Lint.registry)
      in
      let severity = oneofl [ D.Error; D.Warning; D.Hint ] in
      map2
        (fun (code, severity, location) message ->
          D.make ~code ~severity ~location message)
        (triple code severity gen_location)
        (string_printable))

let prop_diagnostic_roundtrip =
  QCheck.Test.make ~name:"diagnostics round-trip through JSON" ~count:500
    gen_diagnostic (fun d ->
      let compact = D.of_json (Json.of_string (Json.to_string (D.to_json d))) in
      let pretty =
        D.of_json (Json.of_string (Json.to_string ~indent:true (D.to_json d)))
      in
      D.equal d compact && D.equal d pretty)

let prop_clean_db_builds =
  QCheck.Test.make ~name:"a DB that lints clean builds every fault graph"
    ~count:500 Fixtures.gen_db (fun records ->
      let db = Depdb.create () in
      Depdb.add_all db records;
      let findings = Lint.lint_db db in
      Lint.errors findings <> []
      ||
      (* no error-severity findings: every machine must audit without
         raising, alone and jointly *)
      let machines = Depdb.machines db in
      List.for_all
        (fun m ->
          match Sia_builder.build db (Sia_builder.spec [ m ]) with
          | _ -> true
          | exception _ -> false)
        machines
      &&
      match Sia_builder.build db (Sia_builder.spec machines) with
      | _ -> true
      | exception _ -> false)

let prop_lint_is_deterministic =
  QCheck.Test.make ~name:"lint output is stable and duplicate-free" ~count:200
    Fixtures.gen_db (fun records ->
      let db = Depdb.create () in
      Depdb.add_all db records;
      let a = Lint.lint_db db in
      let b = Lint.lint_db db in
      List.equal D.equal a b && List.length (List.sort_uniq D.compare a) = List.length a)

(* --- IND-G006 against per-basic-event evaluation ------------------------ *)

(* The definition IND-G006 implements: re-evaluate the whole view once
   per reachable basic event, with that event alone failed. Memoized
   with a visiting guard so cyclic views terminate; empty gates never
   fire and out-of-range k-of-n uses the [count >= k] reading. *)
let evaluate_with (view : Graph_rules.view) ~failed_id =
  let tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tbl n.Graph_rules.id n) view.nodes;
  let memo = Hashtbl.create 64 in
  let rec eval visiting id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
        if List.mem id visiting then false
        else
          let v =
            match Hashtbl.find_opt tbl id with
            | None -> false
            | Some n -> (
                match n.Graph_rules.kind with
                | Graph.Basic _ -> id = failed_id
                | Graph.Gate _ when n.children = [] -> false
                | Graph.Gate gate ->
                    let vs = List.map (eval (id :: visiting)) n.children in
                    let count = List.length (List.filter Fun.id vs) in
                    (match gate with
                    | Graph.And -> count = List.length vs
                    | Graph.Or -> count >= 1
                    | Graph.Kofn k -> count >= k))
          in
          Hashtbl.replace memo id v;
          v
  in
  eval [] view.top

let spof_oracle (view : Graph_rules.view) =
  let tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tbl n.Graph_rules.id n) view.nodes;
  let seen = Hashtbl.create 16 in
  let rec mark id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Option.iter
        (fun n -> List.iter mark n.Graph_rules.children)
        (Hashtbl.find_opt tbl id)
    end
  in
  mark view.top;
  List.filter_map
    (fun n ->
      match n.Graph_rules.kind with
      | Graph.Basic _
        when Hashtbl.mem seen n.id && evaluate_with view ~failed_id:n.id ->
          Some n.name
      | _ -> None)
    view.nodes
  |> List.sort_uniq compare

(* The names IND-G006 reports through the rule table, sorted. *)
let spof_findings view =
  Lint.run [ Lint.Graph_view view ]
  |> List.filter_map (fun d ->
         match (d.D.code, d.D.location) with
         | "IND-G006", (D.Node { name; _ } | D.Machine name) -> Some name
         | _ -> None)
  |> List.sort compare

let spof_agrees view =
  let expected = spof_oracle view in
  Graph_rules.single_points_of_failure view = expected
  && spof_findings view = expected

let print_view (view : Graph_rules.view) =
  Printf.sprintf "top=%d %s" view.top
    (String.concat "; "
       (List.map
          (fun n ->
            let kind =
              match n.Graph_rules.kind with
              | Graph.Basic _ -> "basic"
              | Graph.Gate Graph.And -> "and"
              | Graph.Gate Graph.Or -> "or"
              | Graph.Gate (Graph.Kofn k) -> Printf.sprintf "%d-of" k
            in
            Printf.sprintf "%d:%s %s[%s]" n.id n.name kind
              (String.concat "," (List.map string_of_int n.children)))
          view.nodes))

(* Random views, malformed on purpose: children may point anywhere
   (back edges make cycles, id [n] dangles), gates may be empty, k may
   be out of range, names collide, and one id may appear twice. *)
let gen_view =
  QCheck.make ~print:print_view
    QCheck.Gen.(
      int_range 1 10 >>= fun n ->
      let kind =
        frequency
          [
            (3, return (Graph.Basic None));
            (2, return (Graph.Gate Graph.Or));
            (2, return (Graph.Gate Graph.And));
            (2, map (fun k -> Graph.Gate (Graph.Kofn k)) (int_range (-1) 4));
          ]
      in
      let node id =
        map2
          (fun kind children ->
            let children =
              match kind with Graph.Basic _ -> [] | Graph.Gate _ -> children
            in
            { Graph_rules.id; name = Printf.sprintf "x%d" (id mod 7); kind;
              children })
          kind
          (list_size (int_bound 4) (int_bound n))
      in
      let ids = List.init n Fun.id in
      map3
        (fun nodes extra top -> { Graph_rules.nodes = nodes @ extra; top })
        (flatten_l (List.map node ids))
        (opt (int_bound (n - 1) >>= node) >|= Option.to_list)
        (int_bound n))

let prop_spof_matches_oracle_views =
  QCheck.Test.make ~name:"IND-G006 equals per-event evaluation on random views"
    ~count:1000 gen_view spof_agrees

let prop_spof_matches_oracle_builder =
  QCheck.Test.make
    ~name:"IND-G006 equals per-event evaluation on builder graphs" ~count:300
    Fixtures.gen_db (fun records ->
      let db = Depdb.create () in
      Depdb.add_all db records;
      let machines = Depdb.machines db in
      List.for_all
        (fun required ->
          match
            Sia_builder.build db (Sia_builder.spec ~required machines)
          with
          | g -> spof_agrees (Graph_rules.of_graph g)
          | exception Invalid_argument _ -> true)
        (List.init (List.length machines) succ))

let () =
  Alcotest.run "lint"
    [
      ( "depdb-rules",
        [
          Alcotest.test_case "clean db silent" `Quick test_clean_db_is_silent;
          Alcotest.test_case "IND-D001 dangling host" `Quick test_dangling_host;
          Alcotest.test_case "IND-D002 degenerate route" `Quick test_degenerate_route;
          Alcotest.test_case "IND-D003 duplicate routes" `Quick test_duplicate_routes;
          Alcotest.test_case "IND-D004 software cycle" `Quick test_software_cycle;
          Alcotest.test_case "IND-D005 unbuildable machine" `Quick test_unbuildable_machine;
          Alcotest.test_case "IND-D006 leaf program" `Quick test_leaf_program_hint;
        ] );
      ( "graph-rules",
        [
          Alcotest.test_case "IND-G001 k-of-n range" `Quick test_kofn_out_of_range;
          Alcotest.test_case "IND-G002 empty gate" `Quick test_empty_gate;
          Alcotest.test_case "IND-G003 single child" `Quick test_single_child_gate;
          Alcotest.test_case "IND-G004 probability range" `Quick test_probability_out_of_range;
          Alcotest.test_case "IND-G005 unreachable" `Quick test_unreachable_node;
          Alcotest.test_case "IND-G006 single point of failure" `Quick test_spof;
          Alcotest.test_case "IND-G007 construction failure" `Quick test_construction_failure;
        ] );
      ( "topo-rules",
        [
          Alcotest.test_case "IND-T001 partitioned" `Quick test_partitioned_topology;
          Alcotest.test_case "IND-T002 duplicate attachment" `Quick test_duplicate_attachment;
          Alcotest.test_case "fat-tree clean" `Quick test_fattree_is_clean;
        ] );
      ( "engine",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "disable" `Quick test_disable;
          Alcotest.test_case "reporter" `Quick test_reporter;
          Alcotest.test_case "audit attaches diagnostics" `Quick
            test_audit_attaches_diagnostics;
          Alcotest.test_case "diagnostic json cases" `Quick
            test_diagnostic_json_cases;
        ] );
      ( "properties",
        [
          qtest prop_diagnostic_roundtrip;
          qtest prop_clean_db_builds;
          qtest prop_lint_is_deterministic;
          qtest prop_spof_matches_oracle_views;
          qtest prop_spof_matches_oracle_builder;
        ] );
    ]
