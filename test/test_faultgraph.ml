module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Sampling = Indaas_faultgraph.Sampling
module Probability = Indaas_faultgraph.Probability
module Compose = Indaas_faultgraph.Compose
module Dot = Indaas_faultgraph.Dot
module Prng = Indaas_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let rg_names g rgs = List.sort compare (List.map (Cutset.names g) rgs)

(* The paper's Figure 4(a): E1 = {A1, A2}, E2 = {A2, A3}. *)
let figure_4a () =
  Graph.of_component_sets [ ("E1", [ "A1"; "A2" ]); ("E2", [ "A2"; "A3" ]) ]

(* Figure 4(b): same with probabilities 0.1, 0.2, 0.3. *)
let figure_4b () =
  Graph.of_fault_sets
    [
      ("E1", [ ("A1", 0.1); ("A2", 0.2) ]);
      ("E2", [ ("A2", 0.2); ("A3", 0.3) ]);
    ]

(* A Figure 4(c)-like deep graph: two servers sharing ToR1, redundant
   cores, shared libc6 and private disks. *)
let figure_4c () =
  let b = Graph.Builder.create () in
  let tor = Graph.Builder.add_basic b "ToR1" in
  let c1 = Graph.Builder.add_basic b "Core1" in
  let c2 = Graph.Builder.add_basic b "Core2" in
  let libc = Graph.Builder.add_basic b "libc6" in
  let d1 = Graph.Builder.add_basic b "S1-disk" in
  let d2 = Graph.Builder.add_basic b "S2-disk" in
  let cores = Graph.Builder.add_gate b ~name:"cores" Graph.And [ c1; c2 ] in
  let server name disk =
    let net = Graph.Builder.add_gate b ~name:(name ^ "/net") Graph.Or [ tor; cores ] in
    let sw = Graph.Builder.add_gate b ~name:(name ^ "/sw") Graph.Or [ libc ] in
    Graph.Builder.add_gate b ~name Graph.Or [ net; sw; disk ]
  in
  let s1 = server "S1" d1 and s2 = server "S2" d2 in
  let top = Graph.Builder.add_gate b ~name:"deployment" Graph.And [ s1; s2 ] in
  Graph.Builder.build b ~top

(* --- Graph ----------------------------------------------------------- *)

let test_builder_shares_basics () =
  let b = Graph.Builder.create () in
  let x1 = Graph.Builder.add_basic b "x" in
  let x2 = Graph.Builder.add_basic b "x" in
  check Alcotest.int "same id" x1 x2;
  check (Alcotest.option Alcotest.int) "find_basic" (Some x1)
    (Graph.Builder.find_basic b "x")

let test_builder_prob_conflicts () =
  let b = Graph.Builder.create () in
  ignore (Graph.Builder.add_basic b ~prob:0.5 "x");
  (* re-adding without a prob is fine *)
  ignore (Graph.Builder.add_basic b "x");
  Alcotest.check_raises "conflicting prob"
    (Invalid_argument "Builder.add_basic: \"x\" re-added with a different probability")
    (fun () -> ignore (Graph.Builder.add_basic b ~prob:0.6 "x"))

let test_builder_prob_range () =
  let b = Graph.Builder.create () in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Builder.add_basic: probability out of [0,1]") (fun () ->
      ignore (Graph.Builder.add_basic b ~prob:1.5 "x"))

let test_builder_gate_validation () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_basic b "x" in
  Alcotest.check_raises "no children"
    (Invalid_argument "Builder.add_gate: gate \"g\" has no children") (fun () ->
      ignore (Graph.Builder.add_gate b ~name:"g" Graph.Or []));
  Alcotest.check_raises "unknown child"
    (Invalid_argument "Builder.add_gate: gate \"g\" references unknown child id 99")
    (fun () -> ignore (Graph.Builder.add_gate b ~name:"g" Graph.Or [ 99 ]));
  Alcotest.check_raises "k too large"
    (Invalid_argument
       "Builder.add_gate: gate \"g\" requires 2 of 1 children (k must be \
        within [1, 1])") (fun () ->
      ignore (Graph.Builder.add_gate b ~name:"g" (Graph.Kofn 2) [ x ]));
  Alcotest.check_raises "k below one"
    (Invalid_argument
       "Builder.add_gate: gate \"g\" requires 0 of 1 children (k must be \
        within [1, 1])") (fun () ->
      ignore (Graph.Builder.add_gate b ~name:"g" (Graph.Kofn 0) [ x ]))

let test_counts () =
  let g = figure_4a () in
  check Alcotest.int "basics" 3 (Array.length (Graph.basic_ids g));
  check (Alcotest.list Alcotest.string) "names" [ "A1"; "A2"; "A3" ]
    (List.sort compare (Graph.basic_names g))

let test_unreachable_excluded () =
  let b = Graph.Builder.create () in
  let x = Graph.Builder.add_basic b "x" in
  let _orphan = Graph.Builder.add_basic b "orphan" in
  let top = Graph.Builder.add_gate b ~name:"top" Graph.Or [ x ] in
  let g = Graph.Builder.build b ~top in
  check (Alcotest.list Alcotest.string) "only reachable" [ "x" ]
    (Graph.basic_names g)

let test_topological_order () =
  let g = figure_4c () in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun id ->
      Array.iter
        (fun c ->
          check Alcotest.bool "children first" true (Hashtbl.mem seen c))
        (Graph.node g id).Graph.children;
      Hashtbl.replace seen id ())
    (Graph.topological_order g)

let test_evaluate_or_and () =
  let g = figure_4a () in
  let id name = Option.get (Graph.find_basic g name) in
  let eval failed =
    Graph.evaluate g ~failed:(fun i -> List.mem i (List.map id failed))
  in
  check Alcotest.bool "nothing fails" false (eval []);
  check Alcotest.bool "shared kills all" true (eval [ "A2" ]);
  check Alcotest.bool "A1 alone insufficient" false (eval [ "A1" ]);
  check Alcotest.bool "A1+A3" true (eval [ "A1"; "A3" ])

let test_evaluate_kofn () =
  let b = Graph.Builder.create () in
  let ids = List.map (fun i -> Graph.Builder.add_basic b (Printf.sprintf "x%d" i)) [ 1; 2; 3 ] in
  let top = Graph.Builder.add_gate b ~name:"top" (Graph.Kofn 2) ids in
  let g = Graph.Builder.build b ~top in
  let eval failed = Graph.evaluate g ~failed:(fun i -> List.mem i failed) in
  check Alcotest.bool "one is not enough" false (eval [ List.nth ids 0 ]);
  check Alcotest.bool "two fire" true (eval [ List.nth ids 0; List.nth ids 2 ])

let test_component_sets_downgrade () =
  let g = figure_4c () in
  let cs = Graph.component_sets g in
  check Alcotest.int "two sources" 2 (List.length cs);
  let s1 = List.assoc "S1" cs in
  check (Alcotest.list Alcotest.string) "S1 components"
    [ "Core1"; "Core2"; "S1-disk"; "ToR1"; "libc6" ]
    s1

let test_of_component_sets_validation () =
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Graph.of_component_sets: no sources") (fun () ->
      ignore (Graph.of_component_sets []));
  Alcotest.check_raises "empty source"
    (Invalid_argument "Graph.of_component_sets: source \"E\" is empty") (fun () ->
      ignore (Graph.of_component_sets [ ("E", []) ]))

(* --- Cutset ---------------------------------------------------------- *)

let test_minimal_rgs_4a () =
  let g = figure_4a () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "figure 4a"
    [ [ "A1"; "A3" ]; [ "A2" ] ]
    (rg_names g (Cutset.minimal_risk_groups g))

let test_minimal_rgs_4c () =
  let g = figure_4c () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "figure 4c"
    [ [ "Core1"; "Core2" ]; [ "S1-disk"; "S2-disk" ]; [ "ToR1" ]; [ "libc6" ] ]
    (rg_names g (Cutset.minimal_risk_groups g))

let test_minimal_rgs_are_minimal () =
  let g = figure_4c () in
  List.iter
    (fun rg ->
      check Alcotest.bool "is minimal RG" true
        (Cutset.is_minimal_risk_group g (Array.to_list rg)))
    (Cutset.minimal_risk_groups g)

let test_kofn_cutsets () =
  let b = Graph.Builder.create () in
  let ids = List.map (fun i -> Graph.Builder.add_basic b (Printf.sprintf "x%d" i)) [ 1; 2; 3 ] in
  let top = Graph.Builder.add_gate b ~name:"top" (Graph.Kofn 2) ids in
  let g = Graph.Builder.build b ~top in
  check Alcotest.int "three pairs" 3 (List.length (Cutset.minimal_risk_groups g));
  List.iter
    (fun rg -> check Alcotest.int "pair" 2 (Array.length rg))
    (Cutset.minimal_risk_groups g)

let test_max_size_prunes () =
  let g = figure_4c () in
  let rgs = Cutset.minimal_risk_groups ~max_size:1 g in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "singletons only"
    [ [ "ToR1" ]; [ "libc6" ] ]
    (rg_names g rgs)

let test_max_family_budget () =
  (* 2 sources x 20 components each: the AND product has 400 cut sets;
     a budget of 100 must abort. *)
  let comps prefix = List.init 20 (fun i -> Printf.sprintf "%s%d" prefix i) in
  let g = Graph.of_component_sets [ ("E1", comps "a"); ("E2", comps "b") ] in
  check Alcotest.bool "raises" true
    (try
       ignore (Cutset.minimal_risk_groups ~max_family:100 g);
       false
     with Cutset.Too_many_cut_sets _ -> true)

let test_or_budget_applies_after_minimize () =
  (* 10 gates OR-ing over the same 20 basics: the raw concatenation is
     200 sets, but absorption collapses it back to 20 singletons. A
     budget of 50 sits between the two — it must NOT abort, because
     max_family bounds minimized families, not raw concatenations. *)
  let b = Graph.Builder.create () in
  let basics =
    List.init 20 (fun i -> Graph.Builder.add_basic b (Printf.sprintf "c%d" i))
  in
  let gates =
    List.init 10 (fun i ->
        Graph.Builder.add_gate b ~name:(Printf.sprintf "g%d" i) Graph.Or basics)
  in
  let top = Graph.Builder.add_gate b ~name:"top" Graph.Or gates in
  let g = Graph.Builder.build b ~top in
  let rgs = Cutset.minimal_risk_groups ~max_family:50 g in
  check Alcotest.int "20 singletons" 20 (List.length rgs);
  List.iter (fun rg -> check Alcotest.int "singleton" 1 (Array.length rg)) rgs

let test_and_budget_applies_after_minimize () =
  (* 2 sources over the SAME 20 components: the raw cross-product is
     400 sets, but every pair {a,b} is absorbed by the singleton {a},
     leaving 20 minimal RGs. A budget of 100 must not abort (contrast
     with test_max_family_budget, where components are disjoint and the
     400 survive minimization). *)
  let comps = List.init 20 (fun i -> Printf.sprintf "c%d" i) in
  let g = Graph.of_component_sets [ ("E1", comps); ("E2", comps) ] in
  let rgs = Cutset.minimal_risk_groups ~max_family:100 g in
  check Alcotest.int "20 singletons" 20 (List.length rgs)

let test_is_risk_group () =
  let g = figure_4a () in
  let id name = Option.get (Graph.find_basic g name) in
  check Alcotest.bool "A2 is RG" true (Cutset.is_risk_group g [ id "A2" ]);
  check Alcotest.bool "A1 is not" false (Cutset.is_risk_group g [ id "A1" ]);
  check Alcotest.bool "A1A2 is RG but not minimal" true
    (Cutset.is_risk_group g [ id "A1"; id "A2" ]);
  check Alcotest.bool "A1A2 not minimal" false
    (Cutset.is_minimal_risk_group g [ id "A1"; id "A2" ])

let test_rgset () =
  let s = Cutset.RgSet.create () in
  Cutset.RgSet.add s [| 1; 2 |];
  Cutset.RgSet.add s [| 1; 2 |];
  Cutset.RgSet.add s [| 3 |];
  check Alcotest.int "dedup" 2 (Cutset.RgSet.cardinal s);
  check Alcotest.bool "mem" true (Cutset.RgSet.mem s [| 1; 2 |]);
  check Alcotest.bool "not mem" false (Cutset.RgSet.mem s [| 2 |])

(* --- Sampling -------------------------------------------------------- *)

let test_sampling_finds_all_4a () =
  let g = figure_4a () in
  let rng = Prng.of_int 50 in
  let res = Sampling.run ~config:{ Sampling.default_config with Sampling.rounds = 2000 } rng g in
  let exact = Cutset.minimal_risk_groups g in
  check (Alcotest.float 1e-9) "full detection" 1.0
    (Sampling.detection_ratio ~found:res.Sampling.risk_groups ~all:exact)

let test_sampling_witnesses_minimal () =
  let g = figure_4c () in
  let rng = Prng.of_int 51 in
  let res = Sampling.run ~config:{ Sampling.default_config with Sampling.rounds = 500 } rng g in
  List.iter
    (fun rg ->
      check Alcotest.bool "shrunk to minimal" true
        (Cutset.is_minimal_risk_group g (Array.to_list rg)))
    res.Sampling.risk_groups

let test_sampling_no_shrink_records_witnesses () =
  let g = figure_4c () in
  let rng = Prng.of_int 52 in
  let config =
    { Sampling.default_config with Sampling.rounds = 500; Sampling.shrink = false }
  in
  let res = Sampling.run ~config rng g in
  (* Raw witnesses are risk groups (possibly non-minimal). *)
  List.iter
    (fun rg ->
      check Alcotest.bool "is RG" true (Cutset.is_risk_group g (Array.to_list rg)))
    res.Sampling.risk_groups

let test_sampling_zero_rounds () =
  let g = figure_4a () in
  let rng = Prng.of_int 53 in
  let res = Sampling.run ~config:{ Sampling.default_config with Sampling.rounds = 0 } rng g in
  check Alcotest.int "no rgs" 0 (List.length res.Sampling.risk_groups);
  check Alcotest.int "no positives" 0 res.Sampling.positive_rounds

let test_sampling_bias_extremes () =
  let g = figure_4a () in
  let rng = Prng.of_int 54 in
  let res =
    Sampling.run
      ~config:{ Sampling.default_config with Sampling.rounds = 50; Sampling.failure_bias = 1.0 }
      rng g
  in
  check Alcotest.int "all rounds positive" 50 res.Sampling.positive_rounds;
  let res0 =
    Sampling.run
      ~config:{ Sampling.default_config with Sampling.rounds = 50; Sampling.failure_bias = 0.0 }
      rng g
  in
  check Alcotest.int "no round positive" 0 res0.Sampling.positive_rounds

let test_sampling_event_probs () =
  (* use_event_probs honours per-event probabilities: prob-1 events
     always fail. *)
  let g =
    Graph.of_fault_sets [ ("E1", [ ("always", 1.0) ]); ("E2", [ ("always", 1.0) ]) ]
  in
  let rng = Prng.of_int 55 in
  let config =
    { Sampling.default_config with Sampling.rounds = 20; Sampling.use_event_probs = true }
  in
  let res = Sampling.run ~config rng g in
  check Alcotest.int "always positive" 20 res.Sampling.positive_rounds

let test_detection_ratio_empty_all () =
  check (Alcotest.float 1e-9) "vacuous" 1.0
    (Sampling.detection_ratio ~found:[] ~all:[])


let test_coverage_full_detection () =
  let g = figure_4a () in
  let rgs = Cutset.minimal_risk_groups g in
  let points =
    Sampling.coverage (Prng.of_int 70) g ~targets:rgs ~checkpoints:[ 10; 2000 ]
  in
  (match points with
  | [ early; late ] ->
      check Alcotest.int "first checkpoint" 10 early.Sampling.rounds;
      check Alcotest.int "second checkpoint" 2000 late.Sampling.rounds;
      check Alcotest.bool "monotone" true
        (late.Sampling.detected >= early.Sampling.detected);
      check (Alcotest.float 1e-9) "full coverage" 1.0 late.Sampling.fraction
  | _ -> Alcotest.fail "two points expected");
  (* empty target list: vacuous full coverage *)
  let vac = Sampling.coverage (Prng.of_int 70) g ~targets:[] ~checkpoints:[ 5 ] in
  check (Alcotest.float 1e-9) "vacuous" 1.0 (List.hd vac).Sampling.fraction

let test_coverage_bias_effect () =
  (* Larger failure bias covers large RGs far faster: the single
     minimal RG here has size 12, so a round covers it with
     probability bias^12 — near-certain over 200 rounds at 0.9,
     hopeless at 0.2. *)
  let sources = List.init 12 (fun i -> (Printf.sprintf "E%d" i, [ Printf.sprintf "c%d" i ])) in
  let g = Graph.of_component_sets sources in
  let rgs = Cutset.minimal_risk_groups g in
  check Alcotest.int "one big RG" 1 (List.length rgs);
  let at bias =
    (List.hd
       (Sampling.coverage ~failure_bias:bias (Prng.of_int 71) g ~targets:rgs
          ~checkpoints:[ 200 ]))
      .Sampling.fraction
  in
  check (Alcotest.float 1e-9) "0.9 covers" 1.0 (at 0.9);
  check (Alcotest.float 1e-9) "0.2 cannot" 0.0 (at 0.2)

let test_coverage_checkpoints_sorted_and_deduped () =
  let g = figure_4a () in
  let rgs = Cutset.minimal_risk_groups g in
  let points =
    Sampling.coverage (Prng.of_int 72) g ~targets:rgs
      ~checkpoints:[ 50; 10; 50 ]
  in
  check (Alcotest.list Alcotest.int) "sorted unique" [ 10; 50 ]
    (List.map (fun p -> p.Sampling.rounds) points)

(* --- Probability ----------------------------------------------------- *)

let test_figure_4b_probability () =
  let g = figure_4b () in
  let rgs = Cutset.minimal_risk_groups g in
  let pr = Probability.top_probability_exact g ~rgs in
  check (Alcotest.float 1e-12) "Pr(T) = 0.224" 0.224 pr;
  List.iter
    (fun rg ->
      let names = Cutset.names g rg in
      let imp =
        Probability.relative_importance ~top_probability:pr
          ~rg_probability:(Probability.rg_probability g rg)
      in
      if names = [ "A2" ] then
        check (Alcotest.float 1e-4) "I(A2)" 0.8929 imp
      else check (Alcotest.float 1e-4) "I(A1,A3)" 0.1339 imp)
    rgs

let test_monte_carlo_agrees () =
  let g = figure_4b () in
  let rgs = Cutset.minimal_risk_groups g in
  let exact = Probability.top_probability_exact g ~rgs in
  let mc = Probability.top_probability_mc ~rounds:200_000 (Prng.of_int 60) g in
  check Alcotest.bool "MC within 1%" true (abs_float (mc -. exact) < 0.01)

let test_missing_probability () =
  let g = figure_4a () in
  let rgs = Cutset.minimal_risk_groups g in
  check Alcotest.bool "raises" true
    (try
       ignore (Probability.top_probability_exact g ~rgs);
       false
     with Probability.Missing_probability _ -> true)

let test_empty_rgs_probability () =
  let g = figure_4b () in
  check (Alcotest.float 1e-12) "no RGs" 0. (Probability.top_probability_exact g ~rgs:[])

(* --- Lifetime simulation ---------------------------------------------- *)

module Lifetime = Indaas_faultgraph.Lifetime

let test_lifetime_single_component () =
  (* One component with mtbf 1000, mttr 10: availability ~ 1000/1010. *)
  let g = Graph.of_component_sets [ ("E1", [ "c" ]) ] in
  let config =
    {
      Lifetime.horizon = 200_000.;
      Lifetime.rates_of = (fun _ -> Lifetime.rates ~mtbf:1000. ~mttr:10. ());
    }
  in
  let r = Lifetime.simulate ~config (Prng.of_int 80) g in
  let expected = 1000. /. 1010. in
  check Alcotest.bool "near steady state" true
    (abs_float (r.Lifetime.availability -. expected) < 0.01);
  check Alcotest.bool "transitions happened" true (r.Lifetime.transitions > 100)

let test_lifetime_redundancy_helps () =
  (* AND of two independent components beats a single one. *)
  let single = Graph.of_component_sets [ ("E1", [ "x" ]) ] in
  let pair = Graph.of_component_sets [ ("E1", [ "x" ]); ("E2", [ "y" ]) ] in
  let config =
    {
      Lifetime.horizon = 100_000.;
      Lifetime.rates_of = (fun _ -> Lifetime.rates ~mtbf:100. ~mttr:20. ());
    }
  in
  let a1 = Lifetime.mean_availability ~config ~runs:5 (Prng.of_int 81) single in
  let a2 = Lifetime.mean_availability ~config ~runs:5 (Prng.of_int 81) pair in
  check Alcotest.bool "redundancy helps" true (a2 > a1)

let test_lifetime_shared_component_hurts () =
  (* A deployment sharing one component is less available than a
     fully disjoint one. *)
  let shared =
    Graph.of_component_sets [ ("E1", [ "s"; "a" ]); ("E2", [ "s"; "b" ]) ]
  in
  let disjoint =
    Graph.of_component_sets [ ("E1", [ "p"; "a" ]); ("E2", [ "q"; "b" ]) ]
  in
  let config =
    {
      Lifetime.horizon = 100_000.;
      Lifetime.rates_of = (fun _ -> Lifetime.rates ~mtbf:100. ~mttr:30. ());
    }
  in
  let a_shared = Lifetime.mean_availability ~config ~runs:5 (Prng.of_int 82) shared in
  let a_disjoint =
    Lifetime.mean_availability ~config ~runs:5 (Prng.of_int 82) disjoint
  in
  check Alcotest.bool "shared dependency hurts availability" true
    (a_disjoint > a_shared)

let test_lifetime_accounting_consistent () =
  let g = Graph.of_component_sets [ ("E1", [ "c" ]) ] in
  let config =
    {
      Lifetime.horizon = 10_000.;
      Lifetime.rates_of = (fun _ -> Lifetime.rates ~mtbf:50. ~mttr:50. ());
    }
  in
  let r = Lifetime.simulate ~config (Prng.of_int 83) g in
  let sum =
    List.fold_left (fun acc o -> acc +. o.Lifetime.duration) 0. r.Lifetime.outages
  in
  check (Alcotest.float 1e-6) "downtime = sum of outages" r.Lifetime.downtime sum;
  check (Alcotest.float 1e-6) "availability consistent"
    (1. -. (r.Lifetime.downtime /. r.Lifetime.total_time))
    r.Lifetime.availability;
  List.iter
    (fun o ->
      check Alcotest.bool "outage has a culprit" true
        (o.Lifetime.failed_components <> []))
    r.Lifetime.outages

let test_lifetime_deterministic () =
  let g = figure_4a () in
  let run () = (Lifetime.simulate (Prng.of_int 84) g).Lifetime.availability in
  check (Alcotest.float 1e-12) "same seed, same result" (run ()) (run ())

let test_lifetime_validation () =
  check Alcotest.bool "bad rates" true
    (try
       ignore (Lifetime.rates ~mtbf:0. ());
       false
     with Invalid_argument _ -> true);
  let g = figure_4a () in
  check Alcotest.bool "bad horizon" true
    (try
       ignore
         (Lifetime.simulate
            ~config:{ Lifetime.default_config with Lifetime.horizon = -1. }
            (Prng.of_int 1) g);
       false
     with Invalid_argument _ -> true)


(* --- BDD --------------------------------------------------------------- *)

module Bdd = Indaas_faultgraph.Bdd

let test_bdd_matches_evaluate () =
  let g = figure_4c () in
  let m, top = Bdd.of_graph g in
  let basics = Graph.basic_ids g in
  let rng = Prng.of_int 90 in
  for _ = 1 to 500 do
    let module IS = Set.Make (Int) in
    let failed_set =
      Array.to_list basics |> List.filter (fun _ -> Prng.bool rng) |> IS.of_list
    in
    let failed id = IS.mem id failed_set in
    check Alcotest.bool "BDD = direct evaluation"
      (Graph.evaluate g ~failed)
      (Bdd.evaluate m top ~failed)
  done

let test_bdd_probability_figure_4b () =
  check (Alcotest.float 1e-12) "Pr(T) = 0.224" 0.224
    (Bdd.graph_probability (figure_4b ()))

let test_bdd_probability_matches_inclusion_exclusion () =
  (* random weighted component-set graphs: BDD = inclusion-exclusion *)
  let rng = Prng.of_int 91 in
  for _ = 1 to 30 do
    let g = Graph.of_fault_sets (Fixtures.random_fault_sets rng) in
    let rgs = Cutset.minimal_risk_groups g in
    let exact = Probability.top_probability_exact g ~rgs in
    check (Alcotest.float 1e-9) "BDD = IE" exact (Bdd.graph_probability g)
  done

let test_bdd_kofn () =
  let b = Graph.Builder.create () in
  let ids =
    List.map
      (fun i -> Graph.Builder.add_basic b ~prob:0.5 (Printf.sprintf "x%d" i))
      [ 1; 2; 3 ]
  in
  let top = Graph.Builder.add_gate b ~name:"top" (Graph.Kofn 2) ids in
  let g = Graph.Builder.build b ~top in
  (* Pr(at least 2 of 3 at p=1/2) = 4/8 *)
  check (Alcotest.float 1e-12) "2-of-3" 0.5 (Bdd.graph_probability g);
  let m, tp = Bdd.of_graph g in
  (* 4 of 8 assignments fail the top event *)
  check (Alcotest.float 1e-9) "sat count" 4. (Bdd.sat_count m tp ~vars:3)

let test_bdd_sat_count () =
  let g = figure_4a () in
  let m, top = Bdd.of_graph g in
  (* failure states: A2 (4 of 8) plus A1&A3&!A2 (1) = 5 *)
  check (Alcotest.float 1e-9) "5 failing states" 5. (Bdd.sat_count m top ~vars:3)

let test_bdd_terminals () =
  let g = figure_4a () in
  let m, top = Bdd.of_graph g in
  check (Alcotest.option Alcotest.bool) "top not terminal" None
    (Bdd.is_terminal m top);
  check Alcotest.bool "has nodes" true (Bdd.node_count m top > 0);
  check Alcotest.bool "manager size sane" true (Bdd.size m >= Bdd.node_count m top)

let test_bdd_shares_structure () =
  (* A graph over n disjoint AND pairs keeps the BDD linear-ish, far
     below 2^n truth-table size. *)
  let sources =
    List.init 8 (fun i ->
        (Printf.sprintf "E%d" i, [ Printf.sprintf "c%d" i; "shared" ]))
  in
  let g = Graph.of_component_sets sources in
  let m, top = Bdd.of_graph g in
  check Alcotest.bool "compact" true (Bdd.node_count m top <= 32)

(* --- BDD minimal-RG engine ---------------------------------------------- *)

let test_bdd_engine_4a () =
  let g = figure_4a () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "figure 4a"
    [ [ "A1"; "A3" ]; [ "A2" ] ]
    (rg_names g (Bdd.minimal_risk_groups g))

let test_bdd_engine_matches_enum () =
  (* Byte-identical families on the deep figure-4c graph: same RGs, same
     canonical order. *)
  let g = figure_4c () in
  check Alcotest.bool "identical families" true
    (Bdd.minimal_risk_groups g = Cutset.minimal_risk_groups g)

let test_bdd_engine_kofn () =
  let b = Graph.Builder.create () in
  let ids =
    List.map (fun i -> Graph.Builder.add_basic b (Printf.sprintf "x%d" i)) [ 1; 2; 3 ]
  in
  let top = Graph.Builder.add_gate b ~name:"top" (Graph.Kofn 2) ids in
  let g = Graph.Builder.build b ~top in
  check Alcotest.bool "identical families" true
    (Bdd.minimal_risk_groups g = Cutset.minimal_risk_groups g);
  check Alcotest.int "three pairs" 3 (List.length (Bdd.minimal_risk_groups g))

let test_bdd_engine_max_size () =
  let g = figure_4c () in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "singletons only"
    [ [ "ToR1" ]; [ "libc6" ] ]
    (rg_names g (Bdd.minimal_risk_groups ~max_size:1 g))

let test_bdd_engine_count () =
  let g = figure_4c () in
  check Alcotest.int "four minimal RGs" 4 (Bdd.minimal_rg_count g);
  (* counting must agree with materialization on a denser graph *)
  let comps prefix = List.init 12 (fun i -> Printf.sprintf "%s%d" prefix i) in
  let dense = Graph.of_component_sets [ ("E1", comps "a"); ("E2", comps "b") ] in
  check Alcotest.int "144 pairs" 144 (Bdd.minimal_rg_count dense)

let test_bdd_engine_survives_enum_budget () =
  (* The dense case the enumeration budget refuses: 2 x 20 disjoint
     components, 400 minimal RGs. The BDD engine has no family budget
     and must complete. *)
  let comps prefix = List.init 20 (fun i -> Printf.sprintf "%s%d" prefix i) in
  let g = Graph.of_component_sets [ ("E1", comps "a"); ("E2", comps "b") ] in
  check Alcotest.bool "enum refuses" true
    (try
       ignore (Cutset.minimal_risk_groups ~max_family:100 g);
       false
     with Cutset.Too_many_cut_sets _ -> true);
  let rgs = Bdd.minimal_risk_groups g in
  check Alcotest.int "400 pairs" 400 (List.length rgs);
  check Alcotest.bool "matches unbudgeted enum" true
    (rgs = Cutset.minimal_risk_groups g)

(* --- Importance --------------------------------------------------------- *)

module Importance = Indaas_faultgraph.Importance

let test_birnbaum_known () =
  (* Figure 4(b): T = A2 or (A1 and A3).
     Birnbaum(A2) = Pr(T|A2) - Pr(T|!A2) = 1 - 0.03 = 0.97
     Birnbaum(A1) = (0.2 + 0.8*0.3) - 0.2 = 0.24 *)
  let g = figure_4b () in
  let id name = Option.get (Graph.find_basic g name) in
  check (Alcotest.float 1e-9) "A2" 0.97 (Importance.birnbaum g ~component:(id "A2"));
  check (Alcotest.float 1e-9) "A1" 0.24 (Importance.birnbaum g ~component:(id "A1"))

let test_fussell_vesely_known () =
  (* FV(A2) = Pr(A2)/Pr(T) = 0.2/0.224; FV(A1) = Pr(A1*A3)/Pr(T) *)
  let g = figure_4b () in
  let rgs = Cutset.minimal_risk_groups g in
  let id name = Option.get (Graph.find_basic g name) in
  check (Alcotest.float 1e-9) "A2" (0.2 /. 0.224)
    (Importance.fussell_vesely g ~rgs ~component:(id "A2"));
  check (Alcotest.float 1e-9) "A1" (0.03 /. 0.224)
    (Importance.fussell_vesely g ~rgs ~component:(id "A1"))

let test_rank_components () =
  let g = figure_4b () in
  let rgs = Cutset.minimal_risk_groups g in
  let ranked = Importance.rank_components g ~rgs in
  check Alcotest.int "all components" 3 (List.length ranked);
  check Alcotest.string "A2 most important" "A2"
    (List.hd ranked).Importance.component_name;
  let text = Importance.render ranked in
  check Alcotest.bool "renders" true
    (Astring.String.is_infix ~affix:"Fussell-Vesely" text)

let test_importance_past_ie_cap () =
  (* 5 x 5 disjoint devices: 25 RGs, past the 2^22-term cap of
     inclusion-exclusion. Each device's RGs pair it with one of the
     other server's five, so FV = p / (1 - (1-p)^5). *)
  let devices prefix = List.init 5 (fun i -> (Printf.sprintf "%s%d" prefix i, 0.1)) in
  let g = Graph.of_fault_sets [ ("E1", devices "a"); ("E2", devices "b") ] in
  let rgs = Cutset.minimal_risk_groups g in
  check Alcotest.int "25 RGs" 25 (List.length rgs);
  let ranked = Importance.rank_components g ~rgs in
  check Alcotest.int "all components" 10 (List.length ranked);
  let any = 1. -. (0.9 ** 5.) in
  List.iter
    (fun c ->
      check (Alcotest.float 1e-12) "FV" (0.1 /. any) c.Importance.fussell_vesely;
      (* Pr(T | c) - Pr(T | not c) = any - any * (1 - (1-p)^4) *)
      check (Alcotest.float 1e-12) "Birnbaum"
        (any -. (any *. (1. -. (0.9 ** 4.))))
        c.Importance.birnbaum)
    ranked

let test_importance_requires_probabilities () =
  let g = figure_4a () in
  check Alcotest.bool "raises" true
    (try
       ignore (Importance.birnbaum g ~component:0);
       false
     with Probability.Missing_probability _ -> true)

(* --- Compose --------------------------------------------------------- *)

let test_compose_shares_basics () =
  let g1 = Graph.of_component_sets [ ("E1", [ "shared"; "a" ]) ] in
  let g2 = Graph.of_component_sets [ ("E2", [ "shared"; "b" ]) ] in
  let g = Compose.compose ~name:"combined" Graph.And [ g1; g2 ] in
  let rgs = rg_names g (Cutset.minimal_risk_groups g) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "shared becomes singleton"
    [ [ "a"; "b" ]; [ "shared" ] ]
    rgs

let test_compose_or () =
  let g1 = Graph.of_component_sets [ ("E1", [ "a" ]) ] in
  let g2 = Graph.of_component_sets [ ("E2", [ "b" ]) ] in
  let g = Compose.compose ~name:"either" Graph.Or [ g1; g2 ] in
  let rgs = rg_names g (Cutset.minimal_risk_groups g) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "both singletons" [ [ "a" ]; [ "b" ] ] rgs

let test_compose_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Compose.compose: empty list")
    (fun () -> ignore (Compose.compose ~name:"x" Graph.And []))


let test_compose_single_identity () =
  (* composing one graph under an AND keeps its minimal RGs *)
  let g = figure_4a () in
  let composed = Compose.compose ~name:"wrap" Graph.And [ g ] in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "same RGs"
    (rg_names g (Cutset.minimal_risk_groups g))
    (rg_names composed (Cutset.minimal_risk_groups composed))

let test_replace_basic () =
  (* Refine "storage" into its own redundant pair. *)
  let outer = Graph.of_component_sets [ ("E1", [ "storage"; "cpu" ]) ] in
  let sub =
    Graph.of_component_sets [ ("disk1", [ "d1" ]); ("disk2", [ "d2" ]) ]
  in
  let g = Compose.replace_basic_with outer ~basic:"storage" sub in
  let rgs = rg_names g (Cutset.minimal_risk_groups g) in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "storage refined"
    [ [ "cpu" ]; [ "d1"; "d2" ] ]
    rgs

let test_replace_missing_basic () =
  let outer = Graph.of_component_sets [ ("E1", [ "a" ]) ] in
  Alcotest.check_raises "unknown basic"
    (Invalid_argument "Compose.replace_basic_with: no basic event \"nope\"")
    (fun () -> ignore (Compose.replace_basic_with outer ~basic:"nope" outer))

(* --- Dot ------------------------------------------------------------- *)

let test_dot_contains_nodes () =
  let g = figure_4a () in
  let dot = Dot.to_dot g in
  check Alcotest.bool "digraph" true (Astring.String.is_prefix ~affix:"digraph" dot);
  List.iter
    (fun name ->
      check Alcotest.bool name true (Astring.String.is_infix ~affix:name dot))
    [ "A1"; "A2"; "A3"; "AND"; "OR" ]

let test_dot_highlight () =
  let g = figure_4a () in
  let rgs = Cutset.minimal_risk_groups g in
  let dot = Dot.to_dot ~highlight:(List.hd rgs) g in
  check Alcotest.bool "fill color" true
    (Astring.String.is_infix ~affix:"fillcolor" dot)

let test_dot_escapes () =
  let g = Graph.of_component_sets [ ("E\"1", [ "a\"b" ]) ] in
  let dot = Dot.to_dot g in
  check Alcotest.bool "escaped quote" true
    (Astring.String.is_infix ~affix:"\\\"" dot)

(* --- qcheck: random monotone graphs ---------------------------------- *)

(* Random two-level component-set graphs over a small universe. *)
let gen_component_sets =
  QCheck.make
    ~print:(fun sets ->
      String.concat "; "
        (List.map (fun (s, cs) -> s ^ ":" ^ String.concat "," cs) sets))
    QCheck.Gen.(
      let component = map (Printf.sprintf "c%d") (int_range 0 7) in
      let source i =
        map
          (fun cs -> (Printf.sprintf "E%d" i, List.sort_uniq compare cs))
          (list_size (int_range 1 4) component)
      in
      int_range 1 4 >>= fun n -> flatten_l (List.init n source))

let prop_minimal_rgs_are_rgs =
  QCheck.Test.make ~name:"every minimal RG is an RG" ~count:300 gen_component_sets
    (fun sets ->
      let g = Graph.of_component_sets sets in
      List.for_all
        (fun rg -> Cutset.is_minimal_risk_group g (Array.to_list rg))
        (Cutset.minimal_risk_groups g))

let prop_sampling_subset_of_minimal =
  QCheck.Test.make ~name:"sampled (shrunk) RGs are minimal RGs" ~count:100
    gen_component_sets (fun sets ->
      let g = Graph.of_component_sets sets in
      let exact = Cutset.minimal_risk_groups g in
      let tbl = Cutset.RgSet.create () in
      List.iter (Cutset.RgSet.add tbl) exact;
      let res =
        Sampling.run
          ~config:{ Sampling.default_config with Sampling.rounds = 300 }
          (Prng.of_int (Hashtbl.hash sets))
          g
      in
      List.for_all (Cutset.RgSet.mem tbl) res.Sampling.risk_groups)

let prop_top_event_iff_some_rg_contained =
  QCheck.Test.make ~name:"evaluate agrees with cut-set semantics" ~count:200
    gen_component_sets (fun sets ->
      let g = Graph.of_component_sets sets in
      let rgs = Cutset.minimal_risk_groups g in
      let basics = Graph.basic_ids g in
      let rng = Prng.of_int (Hashtbl.hash sets) in
      let ok = ref true in
      for _ = 1 to 20 do
        let failed = Array.map (fun _ -> Prng.bool rng) basics in
        let failed_set =
          Array.to_list basics |> List.filteri (fun i _ -> failed.(i))
        in
        let module IS = Set.Make (Int) in
        let fs = IS.of_list failed_set in
        let evaluated = Graph.evaluate g ~failed:(fun id -> IS.mem id fs) in
        let covered =
          List.exists
            (fun rg -> Array.for_all (fun id -> IS.mem id fs) rg)
            rgs
        in
        if evaluated <> covered then ok := false
      done;
      !ok)

(* Random multi-level DAGs with AND/OR/k-of-n gates, derived
   deterministically from a seed so qcheck can shrink over seeds. *)
let random_dag seed =
  let rng = Prng.of_int seed in
  let b = Graph.Builder.create () in
  let n_basics = 3 + Prng.int rng 6 in
  let basics =
    List.init n_basics (fun i -> Graph.Builder.add_basic b (Printf.sprintf "c%d" i))
  in
  let nodes = ref (Array.of_list basics) in
  let top = ref (List.hd basics) in
  let n_gates = 2 + Prng.int rng 6 in
  for i = 1 to n_gates do
    let pool = !nodes in
    let n_children = 1 + Prng.int rng (min 4 (Array.length pool)) in
    let children =
      List.sort_uniq compare
        (List.init n_children (fun _ -> pool.(Prng.int rng (Array.length pool))))
    in
    let arity = List.length children in
    let kind =
      match Prng.int rng 3 with
      | 0 -> Graph.And
      | 1 -> Graph.Or
      | _ -> Graph.Kofn (1 + Prng.int rng arity)
    in
    let gid = Graph.Builder.add_gate b ~name:(Printf.sprintf "g%d" i) kind children in
    nodes := Array.append pool [| gid |];
    top := gid
  done;
  Graph.Builder.build b ~top:!top

let prop_engines_agree =
  QCheck.Test.make ~name:"BDD and enumeration engines agree on random DAGs"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = random_dag seed in
      let enum = Cutset.minimal_risk_groups g in
      let bdd = Bdd.minimal_risk_groups g in
      (* identical families in identical canonical order *)
      enum = bdd
      && List.for_all
           (fun rg -> Cutset.is_minimal_risk_group g (Array.to_list rg))
           bdd)

let prop_engines_agree_component_sets =
  QCheck.Test.make
    ~name:"engines agree on random component sets (with max_size)" ~count:200
    gen_component_sets (fun sets ->
      let g = Graph.of_component_sets sets in
      Cutset.minimal_risk_groups g = Bdd.minimal_risk_groups g
      && Cutset.minimal_risk_groups ~max_size:2 g
         = Bdd.minimal_risk_groups ~max_size:2 g)

(* [Bdd.of_family] denotes the union of its RGs: on every assignment
   of a random DAG's basic events, it holds iff some RG has failed
   entirely. *)
let prop_of_family_is_union =
  QCheck.Test.make ~name:"of_family denotes the union of its RGs" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g = random_dag seed in
      let basics = Graph.basic_ids g in
      let n = Array.length basics in
      let rng = Prng.of_int seed in
      let family =
        List.init (Prng.int rng 6) (fun _ ->
            Array.of_list
              (List.filter (fun _ -> Prng.bool rng) (Array.to_list basics)))
      in
      let m, _ = Bdd.of_graph g in
      let union = Bdd.of_family m family in
      List.for_all
        (fun mask ->
          let failed id =
            let rec index i = if basics.(i) = id then i else index (i + 1) in
            mask land (1 lsl index 0) <> 0
          in
          Bdd.evaluate m union ~failed
          = List.exists (Array.for_all failed) family)
        (List.init (1 lsl n) Fun.id))

(* The importance path's exact BDD values against the
   inclusion-exclusion oracle, where the oracle is tractable. *)
let prop_fussell_vesely_oracle =
  QCheck.Test.make ~name:"Fussell-Vesely = inclusion-exclusion oracle"
    ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let g =
        Graph.of_fault_sets (Fixtures.random_fault_sets (Prng.of_int seed))
      in
      let rgs = Cutset.minimal_risk_groups g in
      QCheck.assume (List.length rgs <= 12);
      let top = Probability.top_probability_exact g ~rgs in
      List.for_all
        (fun c ->
          let containing =
            List.filter (Array.exists (( = ) c.Importance.component)) rgs
          in
          let oracle = Probability.top_probability_exact g ~rgs:containing /. top in
          abs_float (c.Importance.fussell_vesely -. oracle) <= 1e-9)
        (Importance.rank_components g ~rgs))

let () =
  Alcotest.run "faultgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "builder shares basics" `Quick test_builder_shares_basics;
          Alcotest.test_case "prob conflicts" `Quick test_builder_prob_conflicts;
          Alcotest.test_case "prob range" `Quick test_builder_prob_range;
          Alcotest.test_case "gate validation" `Quick test_builder_gate_validation;
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "unreachable excluded" `Quick test_unreachable_excluded;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "evaluate or/and" `Quick test_evaluate_or_and;
          Alcotest.test_case "evaluate k-of-n" `Quick test_evaluate_kofn;
          Alcotest.test_case "component-set downgrade" `Quick
            test_component_sets_downgrade;
          Alcotest.test_case "of_component_sets validation" `Quick
            test_of_component_sets_validation;
        ] );
      ( "cutset",
        [
          Alcotest.test_case "figure 4a" `Quick test_minimal_rgs_4a;
          Alcotest.test_case "figure 4c" `Quick test_minimal_rgs_4c;
          Alcotest.test_case "minimality" `Quick test_minimal_rgs_are_minimal;
          Alcotest.test_case "k-of-n cut sets" `Quick test_kofn_cutsets;
          Alcotest.test_case "max_size prunes" `Quick test_max_size_prunes;
          Alcotest.test_case "max_family budget" `Quick test_max_family_budget;
          Alcotest.test_case "OR budget is post-minimization" `Quick
            test_or_budget_applies_after_minimize;
          Alcotest.test_case "AND budget is post-minimization" `Quick
            test_and_budget_applies_after_minimize;
          Alcotest.test_case "is_risk_group" `Quick test_is_risk_group;
          Alcotest.test_case "RgSet" `Quick test_rgset;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "finds all (4a)" `Quick test_sampling_finds_all_4a;
          Alcotest.test_case "witnesses minimal" `Quick test_sampling_witnesses_minimal;
          Alcotest.test_case "raw witnesses" `Quick
            test_sampling_no_shrink_records_witnesses;
          Alcotest.test_case "zero rounds" `Quick test_sampling_zero_rounds;
          Alcotest.test_case "bias extremes" `Quick test_sampling_bias_extremes;
          Alcotest.test_case "event probs" `Quick test_sampling_event_probs;
          Alcotest.test_case "detection ratio vacuous" `Quick
            test_detection_ratio_empty_all;
          Alcotest.test_case "coverage full detection" `Quick
            test_coverage_full_detection;
          Alcotest.test_case "coverage bias effect" `Quick test_coverage_bias_effect;
          Alcotest.test_case "coverage checkpoints" `Quick
            test_coverage_checkpoints_sorted_and_deduped;
        ] );
      ( "probability",
        [
          Alcotest.test_case "figure 4b" `Quick test_figure_4b_probability;
          Alcotest.test_case "monte carlo agrees" `Slow test_monte_carlo_agrees;
          Alcotest.test_case "missing probability" `Quick test_missing_probability;
          Alcotest.test_case "no RGs" `Quick test_empty_rgs_probability;
        ] );
      ( "compose",
        [
          Alcotest.test_case "shares basics" `Quick test_compose_shares_basics;
          Alcotest.test_case "or composition" `Quick test_compose_or;
          Alcotest.test_case "empty" `Quick test_compose_empty;
          Alcotest.test_case "single identity" `Quick test_compose_single_identity;
          Alcotest.test_case "replace basic" `Quick test_replace_basic;
          Alcotest.test_case "replace missing" `Quick test_replace_missing_basic;
        ] );
      ( "dot",
        [
          Alcotest.test_case "contains nodes" `Quick test_dot_contains_nodes;
          Alcotest.test_case "highlight" `Quick test_dot_highlight;
          Alcotest.test_case "escapes" `Quick test_dot_escapes;
        ] );
      ( "bdd",
        [
          Alcotest.test_case "matches evaluate" `Quick test_bdd_matches_evaluate;
          Alcotest.test_case "figure 4b probability" `Quick
            test_bdd_probability_figure_4b;
          Alcotest.test_case "BDD = inclusion-exclusion" `Quick
            test_bdd_probability_matches_inclusion_exclusion;
          Alcotest.test_case "k-of-n" `Quick test_bdd_kofn;
          Alcotest.test_case "sat count" `Quick test_bdd_sat_count;
          Alcotest.test_case "terminals/size" `Quick test_bdd_terminals;
          Alcotest.test_case "structure sharing" `Quick test_bdd_shares_structure;
        ] );
      ( "bdd-rg-engine",
        [
          Alcotest.test_case "figure 4a" `Quick test_bdd_engine_4a;
          Alcotest.test_case "matches enumeration (4c)" `Quick
            test_bdd_engine_matches_enum;
          Alcotest.test_case "k-of-n" `Quick test_bdd_engine_kofn;
          Alcotest.test_case "max_size filter" `Quick test_bdd_engine_max_size;
          Alcotest.test_case "minimal_rg_count" `Quick test_bdd_engine_count;
          Alcotest.test_case "survives enumeration budget" `Quick
            test_bdd_engine_survives_enum_budget;
        ] );
      ( "importance",
        [
          Alcotest.test_case "birnbaum known" `Quick test_birnbaum_known;
          Alcotest.test_case "fussell-vesely known" `Quick test_fussell_vesely_known;
          Alcotest.test_case "rank components" `Quick test_rank_components;
          Alcotest.test_case "exact past the IE cap" `Quick
            test_importance_past_ie_cap;
          Alcotest.test_case "needs probabilities" `Quick
            test_importance_requires_probabilities;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "single component steady state" `Quick
            test_lifetime_single_component;
          Alcotest.test_case "redundancy helps" `Quick test_lifetime_redundancy_helps;
          Alcotest.test_case "shared component hurts" `Quick
            test_lifetime_shared_component_hurts;
          Alcotest.test_case "accounting consistent" `Quick
            test_lifetime_accounting_consistent;
          Alcotest.test_case "deterministic" `Quick test_lifetime_deterministic;
          Alcotest.test_case "validation" `Quick test_lifetime_validation;
        ] );
      ( "properties",
        [
          qtest prop_minimal_rgs_are_rgs;
          qtest prop_sampling_subset_of_minimal;
          qtest prop_top_event_iff_some_rg_contained;
          qtest prop_engines_agree;
          qtest prop_engines_agree_component_sets;
          qtest prop_of_family_is_union;
          qtest prop_fussell_vesely_oracle;
        ] );
    ]
