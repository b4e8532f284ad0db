module Builder = Indaas_sia.Builder
module Rank = Indaas_sia.Rank
module Audit = Indaas_sia.Audit
module Report = Indaas_sia.Report
module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Probability = Indaas_faultgraph.Probability
module Params = Indaas_sia.Params
module Prng = Indaas_util.Prng

let check = Alcotest.check

(* The Figure 2 distributed storage system: S1 and S2 behind a shared
   ToR1, redundant cores, per-server hardware, and software stacks
   sharing libc6. *)
let figure2_db () =
  let db = Depdb.create () in
  Depdb.add_all db
    [
      Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
      Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
      Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
      Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
      Dependency.hardware ~hw:"S1" ~hw_type:"CPU" ~dep:"S1-cpu";
      Dependency.hardware ~hw:"S1" ~hw_type:"Disk" ~dep:"S1-disk";
      Dependency.hardware ~hw:"S2" ~hw_type:"CPU" ~dep:"S2-cpu";
      Dependency.hardware ~hw:"S2" ~hw_type:"Disk" ~dep:"S2-disk";
      Dependency.software ~pgm:"QueryEngine1" ~host:"S1" ~deps:[ "libc6"; "libgccl" ];
      Dependency.software ~pgm:"Riak1" ~host:"S1" ~deps:[ "libc6"; "libsvn1" ];
      Dependency.software ~pgm:"QueryEngine2" ~host:"S2" ~deps:[ "libc6"; "libgccl" ];
      Dependency.software ~pgm:"Riak2" ~host:"S2" ~deps:[ "libc6"; "libsvn1" ];
    ];
  db

let rg_names g rgs = List.sort compare (List.map (Cutset.names g) rgs)

(* --- Builder ----------------------------------------------------------- *)

let test_build_figure2 () =
  let g = Builder.build (figure2_db ()) (Builder.spec [ "S1"; "S2" ]) in
  let rgs = rg_names g (Cutset.minimal_risk_groups g) in
  (* shared singletons *)
  check Alcotest.bool "ToR1 singleton" true (List.mem [ "ToR1" ] rgs);
  check Alcotest.bool "libc6 singleton" true (List.mem [ "libc6" ] rgs);
  check Alcotest.bool "libgccl singleton" true (List.mem [ "libgccl" ] rgs);
  check Alcotest.bool "libsvn1 singleton" true (List.mem [ "libsvn1" ] rgs);
  check Alcotest.bool "core pair" true (List.mem [ "Core1"; "Core2" ] rgs);
  (* private hardware only fails in cross-server pairs *)
  check Alcotest.bool "disk pair" true (List.mem [ "S1-disk"; "S2-disk" ] rgs);
  check Alcotest.bool "no hw singleton" false (List.mem [ "S1-disk" ] rgs)

let test_build_validation () =
  let db = figure2_db () in
  Alcotest.check_raises "no servers" (Invalid_argument "Builder.build: no servers")
    (fun () -> ignore (Builder.build db (Builder.spec [])));
  Alcotest.check_raises "required range"
    (Invalid_argument "Builder.build: required out of range") (fun () ->
      ignore (Builder.build db (Builder.spec ~required:3 [ "S1"; "S2" ])));
  Alcotest.check_raises "unknown server"
    (Invalid_argument "Builder.build: no dependency records for server \"ghost\"")
    (fun () -> ignore (Builder.build db (Builder.spec [ "S1"; "ghost" ])))

let test_build_with_probabilities () =
  let spec =
    Builder.spec ~component_probability:(Builder.uniform_probability 0.1)
      [ "S1"; "S2" ]
  in
  let g = Builder.build (figure2_db ()) spec in
  Array.iter
    (fun id ->
      check (Alcotest.option (Alcotest.float 1e-12)) "prob attached" (Some 0.1)
        (Graph.prob_of g id))
    (Graph.basic_ids g)

let test_expected_rg_size () =
  check Alcotest.int "1-of-3" 3 (Builder.expected_rg_size (Builder.spec [ "a"; "b"; "c" ]));
  check Alcotest.int "2-of-3" 2
    (Builder.expected_rg_size (Builder.spec ~required:2 [ "a"; "b"; "c" ]))

let test_build_kofn () =
  (* 2-of-3 required: any 2 server failures break the service, so a
     pair of private disks is a minimal RG. *)
  let db = Depdb.create () in
  List.iter
    (fun s ->
      Depdb.add db (Dependency.hardware ~hw:s ~hw_type:"Disk" ~dep:(s ^ "-disk")))
    [ "S1"; "S2"; "S3" ];
  let g = Builder.build db (Builder.spec ~required:2 [ "S1"; "S2"; "S3" ]) in
  let rgs = rg_names g (Cutset.minimal_risk_groups g) in
  check Alcotest.int "three pairs" 3 (List.length rgs);
  check Alcotest.bool "disk pair" true (List.mem [ "S1-disk"; "S2-disk" ] rgs)

let test_network_only_server () =
  (* A server with only network records still builds. *)
  let db = Depdb.create () in
  Depdb.add db (Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw" ]);
  Depdb.add db (Dependency.network ~src:"S2" ~dst:"I" ~route:[ "sw" ]);
  let g = Builder.build db (Builder.spec [ "S1"; "S2" ]) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "shared switch" [ [ "sw" ] ]
    (rg_names g (Cutset.minimal_risk_groups g))

let test_direct_route_unfailable () =
  (* A server with an empty (direct) route has an unfailable network;
     only its other dependencies matter. *)
  let db = Depdb.create () in
  Depdb.add db (Dependency.network ~src:"S1" ~dst:"I" ~route:[]);
  Depdb.add db (Dependency.hardware ~hw:"S1" ~hw_type:"Disk" ~dep:"d1");
  Depdb.add db (Dependency.hardware ~hw:"S2" ~hw_type:"Disk" ~dep:"d2");
  let g = Builder.build db (Builder.spec [ "S1"; "S2" ]) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "disks only" [ [ "d1"; "d2" ] ]
    (rg_names g (Cutset.minimal_risk_groups g))

(* --- Rank --------------------------------------------------------------- *)

let ranked_graph () =
  let g =
    Graph.of_fault_sets
      [
        ("E1", [ ("A1", 0.1); ("A2", 0.2) ]);
        ("E2", [ ("A2", 0.2); ("A3", 0.3) ]);
      ]
  in
  (g, Cutset.minimal_risk_groups g)

let test_size_based_order () =
  let g, rgs = ranked_graph () in
  let ranked = Rank.size_based g rgs in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "smallest first"
    [ [ "A2" ]; [ "A1"; "A3" ] ]
    (List.map (fun r -> r.Rank.rg_names) ranked)

let test_probability_based_order () =
  let g, rgs = ranked_graph () in
  let ranked =
    Rank.probability_based ~top_probability:(Bdd.graph_probability g) g rgs
  in
  (* A2 has importance 0.8929 > 0.1339 *)
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "by importance"
    [ [ "A2" ]; [ "A1"; "A3" ] ]
    (List.map (fun r -> r.Rank.rg_names) ranked);
  match ranked with
  | [ first; second ] ->
      check (Alcotest.float 1e-4) "I(A2)" 0.8929 (Option.get first.Rank.importance);
      check (Alcotest.float 1e-4) "Pr(A1,A3)" 0.03 (Option.get second.Rank.probability)
  | _ -> Alcotest.fail "two RGs expected"

let test_independence_scores () =
  let g, rgs = ranked_graph () in
  let ranked = Rank.size_based g rgs in
  check (Alcotest.float 1e-9) "sum of sizes" 3. (Rank.independence_score_size ranked);
  check (Alcotest.float 1e-9) "top-1" 1. (Rank.independence_score_size ~top_n:1 ranked);
  let weighted =
    Rank.probability_based ~top_probability:(Bdd.graph_probability g) g rgs
  in
  check (Alcotest.float 1e-3) "sum of importances" 1.0268
    (Rank.independence_score_importance weighted);
  Alcotest.check_raises "missing importance"
    (Invalid_argument "Rank.independence_score_importance: missing importance")
    (fun () -> ignore (Rank.independence_score_importance ranked))

let test_unexpected_filter () =
  let g, rgs = ranked_graph () in
  let ranked = Rank.size_based g rgs in
  let u = Rank.unexpected ~expected_size:2 ranked in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "singletons are unexpected" [ [ "A2" ] ]
    (List.map (fun r -> r.Rank.rg_names) u);
  check Alcotest.int "none at level 1" 0
    (List.length (Rank.unexpected ~expected_size:1 ranked))

(* --- Audit --------------------------------------------------------------- *)

let test_audit_minimal_vs_sampling_agree () =
  let db = figure2_db () in
  let exact = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let sampled =
    Audit.audit db
      (Audit.request ~algorithm:(Audit.failure_sampling ~rounds:3000) [ "S1"; "S2" ])
  in
  let names r =
    List.sort compare (List.map (fun x -> x.Rank.rg_names) r.Audit.ranked)
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "same RGs" (names exact) (names sampled)

let test_audit_unexpected_detection () =
  let db = figure2_db () in
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let unexpected =
    List.sort compare (List.map (fun r -> r.Rank.rg_names) report.Audit.unexpected)
  in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "all shared singletons"
    [ [ "ToR1" ]; [ "libc6" ]; [ "libgccl" ]; [ "libsvn1" ] ]
    unexpected

let test_audit_probability_ranking () =
  let db = figure2_db () in
  let report =
    Audit.audit db
      (Audit.request
         ~component_probability:(Builder.uniform_probability 0.01)
         ~ranking:Audit.Probability_based [ "S1"; "S2" ])
  in
  match report.Audit.failure_probability with
  | None -> Alcotest.fail "Pr(T) expected"
  | Some p ->
      (* dominated by the four shared singletons: ~4 * 0.01 *)
      check Alcotest.bool "plausible Pr" true (p > 0.03 && p < 0.05)

let test_audit_candidates_ranking () =
  (* Three servers: S1/S2 share everything network-side, S3 is clean. *)
  let db = Depdb.create () in
  Depdb.add_all db
    [
      Dependency.network ~src:"S1" ~dst:"I" ~route:[ "swA" ];
      Dependency.network ~src:"S2" ~dst:"I" ~route:[ "swA" ];
      Dependency.network ~src:"S3" ~dst:"I" ~route:[ "swB" ];
    ];
  let reports =
    Audit.audit_candidates db
      ~candidates:[ [ "S1"; "S2" ]; [ "S1"; "S3" ]; [ "S2"; "S3" ] ]
      (Audit.request [])
  in
  let best = List.hd reports in
  check Alcotest.bool "clean pair wins" true
    (best.Audit.servers = [ "S1"; "S3" ] || best.Audit.servers = [ "S2"; "S3" ]);
  check Alcotest.int "no unexpected" 0 (List.length best.Audit.unexpected);
  let worst = List.nth reports 2 in
  check (Alcotest.list Alcotest.string) "shared pair last" [ "S1"; "S2" ]
    worst.Audit.servers

let test_choose_best_empty () =
  let db = figure2_db () in
  Alcotest.check_raises "no candidates"
    (Invalid_argument "Audit.choose_best: no candidates") (fun () ->
      ignore (Audit.choose_best db ~candidates:[] (Audit.request [])))

let test_audit_bdd_engine_agrees () =
  let db = figure2_db () in
  let names r =
    List.sort compare (List.map (fun x -> x.Rank.rg_names) r.Audit.ranked)
  in
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let g = report.Audit.graph in
  let names_of rgs = List.sort compare (List.map (Cutset.names g) rgs) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "enumeration's RGs" (names report)
    (names_of (Cutset.minimal_risk_groups g));
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "BDD's RGs" (names report)
    (names_of (Bdd.minimal_risk_groups g))

(* Two servers with 20 disjoint hardware dependencies each: 400 minimal
   RGs, far over a budget of 100. *)
let dense_db () =
  let db = Depdb.create () in
  List.iter
    (fun server ->
      List.iter
        (fun i ->
          Depdb.add db
            (Dependency.hardware ~hw:server
               ~hw_type:(Printf.sprintf "T%d" i)
               ~dep:(Printf.sprintf "%s-hw%d" server i)))
        (List.init 20 Fun.id))
    [ "S1"; "S2" ];
  db

let test_audit_auto_falls_back_to_bdd () =
  let db = dense_db () in
  let budgeted max_family =
    Audit.Auto_rg { max_family = Some max_family }
  in
  (* enumeration alone refuses this budget... *)
  let g = Builder.build db (Builder.spec [ "S1"; "S2" ]) in
  check Alcotest.bool "enum refuses" true
    (try
       ignore (Cutset.minimal_risk_groups ~max_family:100 g);
       false
     with Cutset.Too_many_cut_sets _ -> true);
  (* ...while Auto silently switches to the BDD engine and completes *)
  let report =
    Audit.audit db (Audit.request ~algorithm:(budgeted 100) [ "S1"; "S2" ])
  in
  check Alcotest.int "all 400 RGs" 400 (List.length report.Audit.ranked)

let test_audit_auto_uses_enum_within_budget () =
  let db = figure2_db () in
  let auto =
    Audit.audit db (Audit.request ~algorithm:Audit.auto_rg [ "S1"; "S2" ])
  in
  let g = auto.Audit.graph in
  check Alcotest.bool "identical ranked output" true
    (Rank.size_based g (Cutset.minimal_risk_groups g) = auto.Audit.ranked)

(* Auto picks its engine from the deployment's server count: the BDD
   for three or more servers, whatever their threshold, enumeration
   (with its budget fallback) for one or two. The engines' spans show
   which one ran. *)
let test_audit_auto_engine_by_server_count () =
  let db =
    Depdb.of_string (Fixtures.read_file (Fixtures.example_path "webtier.xml"))
  in
  let engines_run ~required servers =
    let g = Builder.build db (Builder.spec ~required servers) in
    let (), registry =
      Indaas_obs.Registry.with_scope (fun _ ->
          ignore (Audit.risk_groups Audit.auto_rg g))
    in
    List.concat_map
      (fun root ->
        let names = ref [] in
        Indaas_obs.Span.iter
          (fun span -> names := span.Indaas_obs.Span.name :: !names)
          root;
        List.rev !names)
      (Indaas_obs.Registry.roots registry)
  in
  let three = [ "web1"; "web2"; "web3" ] in
  let spans = Alcotest.(list string) in
  check spans "1-of-3: BDD only" [ "rg.bdd" ] (engines_run ~required:1 three);
  check spans "2-of-3: BDD only" [ "rg.bdd" ] (engines_run ~required:2 three);
  check spans "1-of-2: enumeration only" [ "rg.enum" ]
    (engines_run ~required:1 [ "web1"; "web3" ])

(* Acceptance: on every examples/db database, both engines return
   byte-identical minimal RG families for a representative deployment. *)
let example_deployments =
  [
    ("figure2.xml", [ "S1"; "S2" ]);
    ("webtier.xml", [ "web1"; "web2"; "web3" ]);
    ("fattree-k4.xml", [ "server0"; "server5"; "server15" ]);
  ]

let test_examples_engines_identical () =
  List.iter
    (fun (name, servers) ->
      let path = Fixtures.example_path name in
      let db = Depdb.of_string (Fixtures.read_file path) in
      let g = Builder.build db (Builder.spec servers) in
      let enum = Indaas_faultgraph.Cutset.minimal_risk_groups g in
      let bdd = Bdd.minimal_risk_groups g in
      check Alcotest.bool (path ^ ": identical families") true (enum = bdd);
      check Alcotest.bool (path ^ ": non-empty") true (enum <> []))
    example_deployments

(* Both exact engines, auto, and auto under a budget of 1 (which
   forces the BDD fallback) return the identical family on builder
   graphs from random DepDBs, at every [required]. *)
let prop_engines_agree_on_builder_graphs =
  QCheck.Test.make ~name:"engines agree on builder graphs from random DepDBs"
    ~count:300 Fixtures.gen_db (fun records ->
      let db = Depdb.create () in
      Depdb.add_all db records;
      let machines = Depdb.machines db in
      List.for_all
        (fun required ->
          match Builder.build db (Builder.spec ~required machines) with
          | exception Invalid_argument _ -> true
          | g ->
              let enum = Cutset.minimal_risk_groups g in
              Bdd.minimal_risk_groups g = enum
              && List.for_all
                   (fun algorithm -> Audit.risk_groups algorithm g = enum)
                   [ Audit.auto_rg; Audit.Auto_rg { max_family = Some 1 } ])
        (List.init (List.length machines) succ))

(* --- Exact probabilities ----------------------------------------------------- *)

(* Two servers, each with its own [n] disjoint hardware devices. *)
let disjoint_db a b =
  let db = Depdb.create () in
  List.iter
    (fun (server, n) ->
      List.iter
        (fun i ->
          Depdb.add db
            (Dependency.hardware ~hw:server
               ~hw_type:(Printf.sprintf "T%d" i)
               ~dep:(Printf.sprintf "%s-hw%d" server i)))
        (List.init n Fun.id))
    [ ("S1", a); ("S2", b) ];
  db

let weighted ?algorithm p servers =
  Audit.request ?algorithm
    ~component_probability:(Builder.uniform_probability p)
    ~ranking:Audit.Probability_based servers

(* Pr(T) and every RG importance come from one exact estimate, also
   past the 20 RGs where inclusion-exclusion used to give way. *)
let test_report_coherent () =
  let report = Audit.audit (disjoint_db 5 5) (weighted 0.1 [ "S1"; "S2" ]) in
  check Alcotest.int "25 RGs" 25 (List.length report.Audit.ranked);
  let pr = Option.get report.Audit.failure_probability in
  List.iter
    (fun r ->
      let p = Option.get r.Rank.probability in
      let i = Option.get r.Rank.importance in
      check Alcotest.bool "importance x Pr(T) = Pr(C)" true
        (abs_float ((i *. pr) -. p) <= 1e-12 *. p))
    report.Audit.ranked;
  check (Alcotest.float 1e-15) "exact Pr(T)" ((1. -. (0.9 ** 5.)) ** 2.) pr

(* A legal zero probability, or one whose Pr(T) underflows, gives
   every RG importance 0: the report ranks its RGs in name order and
   scores 0. *)
let test_zero_top_probability () =
  List.iter
    (fun (name, db, p, servers) ->
      let report = Audit.audit db (weighted p servers) in
      let names = List.map (fun r -> r.Rank.rg_names) report.Audit.ranked in
      check (Alcotest.float 0.) (name ^ ": Pr(T)") 0.
        (Option.get report.Audit.failure_probability);
      check
        Alcotest.(list (option (float 0.)))
        (name ^ ": importances")
        (List.map (fun _ -> Some 0.) names)
        (List.map (fun r -> r.Rank.importance) report.Audit.ranked);
      check Alcotest.(list (list string)) (name ^ ": name order")
        (List.sort compare names) names;
      check (Alcotest.float 0.) (name ^ ": score") 0.
        report.Audit.independence_score)
    [
      ("figure 2, prob 0", figure2_db (), 0., [ "S1"; "S2" ]);
      ( "fat-tree k=4, prob 1e-200",
        Depdb.of_string
          (Fixtures.read_file (Fixtures.example_path "fattree-k4.xml")),
        1e-200,
        [ "server0"; "server4" ] );
    ]

(* Sampling finds only some RGs; Pr(T) still counts every one. *)
let test_sampling_failure_probability_exact () =
  let report =
    Audit.audit (figure2_db ())
      (weighted ~algorithm:(Audit.failure_sampling ~rounds:2) 0.1 [ "S1"; "S2" ])
  in
  check (Alcotest.float 0.) "Pr(T) = BDD"
    (Bdd.graph_probability report.Audit.graph)
    (Option.get report.Audit.failure_probability)

let test_default_algorithm () =
  check Alcotest.bool "Audit.request = Params.default" true
    ((Audit.request []).Audit.algorithm
    = (Params.request Params.default).Audit.algorithm)

(* Audit's exact Pr(T) and RG importances against the
   inclusion-exclusion oracle: random weighted fault sets, each source
   a server with one hardware record per component. *)
let prop_audit_matches_oracle =
  QCheck.Test.make ~name:"audit probabilities = inclusion-exclusion oracle"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let sets = Fixtures.random_fault_sets (Prng.of_int seed) in
      let db = Depdb.create () in
      List.iter
        (fun (server, cs) ->
          List.iter
            (fun (c, _) -> Depdb.add db (Dependency.hardware ~hw:server ~hw_type:c ~dep:c))
            cs)
        sets;
      let probability name = List.assoc_opt name (List.concat_map snd sets) in
      let report =
        Audit.audit db
          (Audit.request ~component_probability:probability
             ~ranking:Audit.Probability_based (List.map fst sets))
      in
      let g = report.Audit.graph in
      let rgs = Cutset.minimal_risk_groups g in
      QCheck.assume (List.length rgs <= 12);
      let oracle = Probability.top_probability_exact g ~rgs in
      let close a b = abs_float (a -. b) <= 1e-9 in
      close oracle (Option.get report.Audit.failure_probability)
      && List.for_all
           (fun r ->
             close
               (Probability.rg_probability g r.Rank.rg /. oracle)
               (Option.get r.Rank.importance))
           report.Audit.ranked)

(* --- Report ---------------------------------------------------------------- *)

let test_render_deployment () =
  let db = figure2_db () in
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let text = Report.render_deployment report in
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true (Astring.String.is_infix ~affix:fragment text))
    [ "S1"; "S2"; "risk group"; "unexpected RGs: 4"; "ToR1" ]

let test_render_truncation () =
  let db = figure2_db () in
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let text = Report.render_deployment ~max_rgs:1 report in
  check Alcotest.bool "omission note" true
    (Astring.String.is_infix ~affix:"more risk groups omitted" text)

let test_render_comparison () =
  let db = figure2_db () in
  let reports = Audit.audit_candidates db ~candidates:[ [ "S1"; "S2" ] ] (Audit.request []) in
  let text = Report.render_comparison reports in
  check Alcotest.bool "has header" true
    (Astring.String.is_infix ~affix:"#unexpected" text)

let test_summary_line () =
  let db = figure2_db () in
  let report = Audit.audit db (Audit.request [ "S1"; "S2" ]) in
  let line = Report.summary_line report in
  check Alcotest.bool "mentions unexpected" true
    (Astring.String.is_infix ~affix:"4 unexpected" line)


let test_json_report () =
  let db = figure2_db () in
  let report =
    Audit.audit db
      (Audit.request
         ~component_probability:(Builder.uniform_probability 0.1)
         ~ranking:Audit.Probability_based [ "S1"; "S2" ])
  in
  let json =
    Indaas_util.Json.to_string (Report.deployment_to_json report)
  in
  List.iter
    (fun fragment ->
      check Alcotest.bool fragment true
        (Astring.String.is_infix ~affix:fragment json))
    [
      {|"servers":["S1","S2"]|};
      {|"expected_rg_size":2|};
      {|"failure_probability":|};
      {|"ToR1"|};
    ];
  (* comparison serializes to a list *)
  let cmp = Indaas_util.Json.to_string (Report.comparison_to_json [ report ]) in
  check Alcotest.bool "list" true (String.length cmp > 2 && cmp.[0] = '[')

(* The report tree shares its leaves (one string per basic event, one
   tail per RG size) and still encodes, compact and indented, to the
   bytes of the per-RG tree in [Fixtures], for size-ranked,
   probability-ranked and sampling audits of builder graphs from
   random DepDBs at every [required]. *)
let prop_shared_report_bytes =
  QCheck.Test.make ~name:"shared report tree encodes like per-RG trees"
    ~count:200 Fixtures.gen_db (fun records ->
      let db = Depdb.create () in
      Depdb.add_all db records;
      let machines = Depdb.machines db in
      let requests required =
        [
          Audit.request ~required machines;
          Audit.request ~required
            ~component_probability:(Builder.uniform_probability 0.1)
            ~ranking:Audit.Probability_based machines;
          Audit.request ~required
            ~algorithm:(Audit.failure_sampling ~rounds:50) machines;
        ]
      in
      List.for_all
        (fun required ->
          List.for_all
            (fun request ->
              match Audit.audit db request with
              | exception Invalid_argument _ -> true
              | report ->
                  let shared = Report.deployment_to_json report
                  and oracle = Fixtures.deployment_to_json report in
                  List.for_all
                    (fun indent ->
                      Indaas_util.Json.to_string ~indent shared
                      = Indaas_util.Json.to_string ~indent oracle)
                    [ false; true ])
            (requests required))
        (List.init (List.length machines) succ))

let () =
  Alcotest.run "sia"
    [
      ( "builder",
        [
          Alcotest.test_case "figure 2 graph" `Quick test_build_figure2;
          Alcotest.test_case "validation" `Quick test_build_validation;
          Alcotest.test_case "probabilities" `Quick test_build_with_probabilities;
          Alcotest.test_case "expected RG size" `Quick test_expected_rg_size;
          Alcotest.test_case "k-of-n deployment" `Quick test_build_kofn;
          Alcotest.test_case "network-only server" `Quick test_network_only_server;
          Alcotest.test_case "direct route" `Quick test_direct_route_unfailable;
        ] );
      ( "rank",
        [
          Alcotest.test_case "size-based order" `Quick test_size_based_order;
          Alcotest.test_case "probability-based order" `Quick
            test_probability_based_order;
          Alcotest.test_case "independence scores" `Quick test_independence_scores;
          Alcotest.test_case "unexpected filter" `Quick test_unexpected_filter;
        ] );
      ( "exact",
        [
          Alcotest.test_case "one coherent report" `Quick test_report_coherent;
          Alcotest.test_case "zero Pr(T) ranks by name" `Quick
            test_zero_top_probability;
          Alcotest.test_case "sampling keeps Pr(T) exact" `Quick
            test_sampling_failure_probability_exact;
          Alcotest.test_case "default algorithm is the CLI's" `Quick
            test_default_algorithm;
          QCheck_alcotest.to_alcotest prop_audit_matches_oracle;
        ] );
      ( "audit",
        [
          Alcotest.test_case "algorithms agree" `Quick
            test_audit_minimal_vs_sampling_agree;
          Alcotest.test_case "unexpected detection" `Quick
            test_audit_unexpected_detection;
          Alcotest.test_case "probability ranking" `Quick test_audit_probability_ranking;
          Alcotest.test_case "candidate ranking" `Quick test_audit_candidates_ranking;
          Alcotest.test_case "choose_best empty" `Quick test_choose_best_empty;
          Alcotest.test_case "BDD engine agrees" `Quick test_audit_bdd_engine_agrees;
          Alcotest.test_case "auto falls back to BDD" `Quick
            test_audit_auto_falls_back_to_bdd;
          Alcotest.test_case "auto uses enumeration within budget" `Quick
            test_audit_auto_uses_enum_within_budget;
          Alcotest.test_case "auto picks the engine by server count" `Quick
            test_audit_auto_engine_by_server_count;
          Alcotest.test_case "examples/db: engines byte-identical" `Quick
            test_examples_engines_identical;
          QCheck_alcotest.to_alcotest prop_engines_agree_on_builder_graphs;
        ] );
      ( "report",
        [
          Alcotest.test_case "render deployment" `Quick test_render_deployment;
          Alcotest.test_case "truncation" `Quick test_render_truncation;
          Alcotest.test_case "render comparison" `Quick test_render_comparison;
          Alcotest.test_case "summary line" `Quick test_summary_line;
          Alcotest.test_case "json report" `Quick test_json_report;
          QCheck_alcotest.to_alcotest prop_shared_report_bytes;
        ] );
    ]
