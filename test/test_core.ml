module Spec = Indaas.Spec
module Agent = Indaas.Agent
module Scenario = Indaas.Scenario
module Collectors = Indaas_depdata.Collectors
module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Catalog = Indaas_depdata.Catalog
module Sia_audit = Indaas_sia.Audit
module Rank = Indaas_sia.Rank
module Cutset = Indaas_faultgraph.Cutset
module Pia_audit = Indaas_pia.Audit
module Prng = Indaas_util.Prng

let check = Alcotest.check

(* --- Spec -------------------------------------------------------------- *)

let test_spec_defaults () =
  let s = Spec.create ~redundancy:2 [ "a"; "b"; "c" ] in
  check Alcotest.int "required" 1 s.Spec.required;
  check Alcotest.bool "wants network" true (Spec.wants s Spec.Network);
  check Alcotest.bool "wants software" true (Spec.wants s Spec.Software);
  check Alcotest.int "all pairs" 3 (List.length (Spec.candidate_deployments s))

let test_spec_explicit_candidates () =
  let s =
    Spec.create ~redundancy:2 ~candidates:[ [ "a"; "b" ] ] [ "a"; "b"; "c" ]
  in
  check Alcotest.int "one candidate" 1 (List.length (Spec.candidate_deployments s))

let test_spec_validation () =
  Alcotest.check_raises "no sources" (Invalid_argument "Spec.create: no data sources")
    (fun () -> ignore (Spec.create ~redundancy:2 []));
  Alcotest.check_raises "redundancy range"
    (Invalid_argument "Spec.create: redundancy out of [2, #sources]") (fun () ->
      ignore (Spec.create ~redundancy:4 [ "a"; "b" ]));
  Alcotest.check_raises "bad candidate size"
    (Invalid_argument "Spec.create: candidate size differs from redundancy")
    (fun () ->
      ignore (Spec.create ~redundancy:2 ~candidates:[ [ "a" ] ] [ "a"; "b" ]));
  Alcotest.check_raises "unknown candidate member"
    (Invalid_argument "Spec.create: candidate member \"z\" unknown") (fun () ->
      ignore (Spec.create ~redundancy:2 ~candidates:[ [ "a"; "z" ] ] [ "a"; "b" ]));
  Alcotest.check_raises "no kinds" (Invalid_argument "Spec.create: no dependency kinds")
    (fun () -> ignore (Spec.create ~redundancy:2 ~kinds:[] [ "a"; "b" ]))

let test_spec_subset_count () =
  let s = Spec.create ~redundancy:3 [ "a"; "b"; "c"; "d"; "e" ] in
  (* C(5,3) = 10 *)
  check Alcotest.int "C(5,3)" 10 (List.length (Spec.candidate_deployments s))

(* --- Agent ------------------------------------------------------------- *)

let lab_sources () =
  [
    Agent.data_source ~name:"S1"
      [
        Collectors.static ~name:"net"
          [ Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw" ] ];
        Collectors.lshw [ Collectors.standard_profile "S1" ];
        Collectors.apt_rdepends [ (Catalog.Riak, "S1") ];
      ];
    Agent.data_source ~name:"S2"
      [
        Collectors.static ~name:"net"
          [ Dependency.network ~src:"S2" ~dst:"I" ~route:[ "sw" ] ];
        Collectors.lshw [ Collectors.standard_profile "S2" ];
        Collectors.apt_rdepends [ (Catalog.Redis, "S2") ];
      ];
  ]

let test_agent_collect_filters_kinds () =
  let spec = Spec.create ~kinds:[ Spec.Network ] ~redundancy:2 [ "S1"; "S2" ] in
  let run = Agent.run spec (lab_sources ()) in
  check Alcotest.int "network records only" 2 (Depdb.size run.Agent.database);
  let db_all, _ = Agent.collect (lab_sources ()) in
  (* 2 network + 8 hardware + 2 software *)
  check Alcotest.int "everything" 12 (Depdb.size db_all)

let test_agent_missing_source () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "ghost" ] in
  Alcotest.check_raises "missing"
    (Invalid_argument "Agent: data source \"ghost\" not available") (fun () ->
      ignore (Agent.run spec (lab_sources ())))

let test_agent_sia_run () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let run = Agent.run spec (lab_sources ()) in
  check Alcotest.int "db size" 12 (Depdb.size run.Agent.database);
  match run.Agent.outcome with
  | Agent.Sia_outcome [ report ] ->
      (* shared switch and shared base packages are unexpected *)
      check Alcotest.bool "found unexpected" true
        (List.length report.Sia_audit.unexpected > 0);
      let names =
        List.concat_map
          (fun r -> Cutset.names report.Sia_audit.graph r.Rank.rg)
          report.Sia_audit.unexpected
      in
      check Alcotest.bool "switch flagged" true (List.mem "sw" names);
      check Alcotest.bool "libc flagged" true (List.mem "libc6-2.13" names)
  | _ -> Alcotest.fail "one SIA report expected"

let test_agent_pia_run () =
  let spec =
    Spec.create ~metric:Spec.Jaccard_similarity ~kinds:[ Spec.Software ]
      ~redundancy:2 [ "S1"; "S2" ]
  in
  let run = Agent.run ~pia_protocol:Pia_audit.Cleartext spec (lab_sources ()) in
  check Alcotest.int "agent sees no records" 0 (Depdb.size run.Agent.database);
  match run.Agent.outcome with
  | Agent.Pia_outcome report ->
      let r = List.hd report.Pia_audit.results in
      (* Riak vs Redis: J = 25/81 at the component-set level *)
      check (Alcotest.float 1e-4) "jaccard" (25. /. 81.) r.Pia_audit.jaccard
  | _ -> Alcotest.fail "PIA report expected"

let test_agent_render_and_best () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let run = Agent.run spec (lab_sources ()) in
  check (Alcotest.list Alcotest.string) "best" [ "S1"; "S2" ]
    (Agent.best_deployment run);
  check Alcotest.bool "renders" true (String.length (Agent.render run) > 0)

let test_agent_probability_metric () =
  let spec =
    Spec.create
      ~metric:
        (Spec.Probability_ranking
           { component_probability = (fun _ -> Some 0.05) })
      ~redundancy:2 [ "S1"; "S2" ]
  in
  let run = Agent.run spec (lab_sources ()) in
  match run.Agent.outcome with
  | Agent.Sia_outcome [ report ] ->
      check Alcotest.bool "has Pr" true (report.Sia_audit.failure_probability <> None)
  | _ -> Alcotest.fail "one report expected"

(* --- Agent under faults -------------------------------------------------- *)

module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Degradation = Indaas_resilience.Degradation
module Diagnostic = Indaas_lint.Diagnostic

let three_lab_sources () =
  lab_sources ()
  @ [
      Agent.data_source ~name:"S3"
        [
          Collectors.static ~name:"net"
            [ Dependency.network ~src:"S3" ~dst:"I" ~route:[ "sw2" ] ];
          Collectors.lshw [ Collectors.standard_profile "S3" ];
          Collectors.apt_rdepends [ (Catalog.MongoDB, "S3") ];
        ];
    ]

(* The issue's acceptance scenario: three sources, one permanently
   down — the audit completes, reports degradation, raises nothing. *)
let test_agent_run_with_crashed_source () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2"; "S3" ] in
  let faults = Fault.injector ~seed:42 (Fault.plan [ ("S2", Fault.Crash) ]) in
  let run = Agent.run ~faults spec (three_lab_sources ()) in
  let deg = run.Agent.degradation in
  check Alcotest.bool "degraded" true (Degradation.degraded deg);
  check Alcotest.bool "completeness < 1" true (deg.Degradation.completeness < 1.);
  check (Alcotest.list Alcotest.string) "S2 failed" [ "S2" ]
    (Degradation.failed_sources deg);
  check Alcotest.bool "retries were spent" true (deg.Degradation.retries > 0);
  (match run.Agent.outcome with
  | Agent.Sia_outcome reports ->
      (* Only {S1, S3} survives; candidates including S2 are skipped. *)
      check Alcotest.int "one viable deployment" 1 (List.length reports);
      let r = List.hd reports in
      check (Alcotest.list Alcotest.string) "servers" [ "S1"; "S3" ]
        r.Sia_audit.servers;
      check Alcotest.bool "IND-R001 attached" true
        (List.exists
           (fun d -> d.Diagnostic.code = "IND-R001")
           r.Sia_audit.diagnostics)
  | Agent.Pia_outcome _ -> Alcotest.fail "SIA outcome expected");
  check Alcotest.bool "render flags degradation" true
    (Astring.String.is_infix ~affix:"DEGRADED AUDIT" (Agent.render run))

let test_agent_run_without_faults_is_complete () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let run = Agent.run spec (lab_sources ()) in
  check Alcotest.bool "not degraded" false
    (Degradation.degraded run.Agent.degradation);
  (match run.Agent.outcome with
  | Agent.Sia_outcome [ r ] ->
      check Alcotest.bool "no IND-R001" false
        (List.exists
           (fun d -> d.Diagnostic.code = "IND-R001")
           r.Sia_audit.diagnostics)
  | _ -> Alcotest.fail "one report expected");
  check Alcotest.bool "no banner" false
    (Astring.String.is_infix ~affix:"DEGRADED AUDIT" (Agent.render run))

let test_agent_flaky_source_recovers () =
  (* flaky:2 is within the default budget of 3 retries: the run ends
     complete, with the retries accounted. *)
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let faults = Fault.injector ~seed:7 (Fault.plan [ ("*", Fault.Flaky_until 2) ]) in
  let run = Agent.run ~faults spec (lab_sources ()) in
  let deg = run.Agent.degradation in
  check Alcotest.bool "complete" false (Degradation.degraded deg);
  check (Alcotest.float 1e-12) "completeness 1" 1. deg.Degradation.completeness;
  check Alcotest.bool "retries accounted" true (deg.Degradation.retries > 0);
  check Alcotest.int "db intact" 12 (Depdb.size run.Agent.database)

let test_agent_duplicate_source_rejected () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let sources = lab_sources () @ [ Agent.data_source ~name:"S1" [] ] in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Agent.run: duplicate data source name \"S1\"") (fun () ->
      ignore (Agent.run spec sources))

let test_agent_pia_excludes_dead_provider () =
  let spec =
    Spec.create ~metric:Spec.Jaccard_similarity ~kinds:[ Spec.Software ]
      ~redundancy:2 [ "S1"; "S2"; "S3" ]
  in
  let faults = Fault.injector ~seed:5 (Fault.plan [ ("S3", Fault.Crash) ]) in
  let run =
    Agent.run ~faults ~pia_protocol:Pia_audit.Cleartext spec
      (three_lab_sources ())
  in
  check Alcotest.bool "degraded" true (Degradation.degraded run.Agent.degradation);
  (match run.Agent.outcome with
  | Agent.Pia_outcome report ->
      (* Only the surviving pair is measured. *)
      check Alcotest.int "one pair" 1 (List.length report.Pia_audit.results);
      check (Alcotest.list Alcotest.string) "S1 & S2"
        [ "S1"; "S2" ]
        (List.hd report.Pia_audit.results).Pia_audit.providers
  | _ -> Alcotest.fail "PIA outcome expected");
  (* With both of the surviving providers needed, a second crash would
     leave fewer than [redundancy] and must raise Failure. *)
  let faults =
    Fault.injector ~seed:5
      (Fault.plan [ ("S3", Fault.Crash); ("S2", Fault.Crash) ])
  in
  check Alcotest.bool "insufficient providers raise" true
    (try
       ignore
         (Agent.run ~faults ~pia_protocol:Pia_audit.Cleartext spec
            (three_lab_sources ()));
       false
     with Failure _ -> true)

(* A module that fails at its first call is retried even with no
   fault plan: the run completes with one retry spent and every
   record. *)
let test_agent_failure_once_is_retried () =
  let spec = Spec.create ~redundancy:2 [ "S1"; "S2" ] in
  let fail_once (m : Collectors.t) =
    let calls = ref 0 in
    let collect () =
      incr calls;
      if !calls = 1 then failwith "transient collector error"
      else m.Collectors.collect ()
    in
    { m with Collectors.collect }
  in
  let sources =
    List.map
      (fun (s : Agent.data_source) ->
        match s.Agent.modules with
        | m :: rest when s.Agent.source_name = "S1" ->
            { s with Agent.modules = fail_once m :: rest }
        | _ -> s)
      (lab_sources ())
  in
  let run = Agent.run spec sources in
  let deg = run.Agent.degradation in
  check Alcotest.int "retries" 1 deg.Degradation.retries;
  check Alcotest.bool "complete" false (Degradation.degraded deg);
  check Alcotest.int "all records" 12 (Depdb.size run.Agent.database)

(* Two to four sources of up to three modules each, a random
   selection of at least two of them in random order, and a random
   non-empty set of kinds. *)
let gen_collection =
  QCheck.Gen.(
    let modules =
      list_size (int_bound 3)
        (map
           (fun records -> Collectors.static ~name:"m" records)
           (QCheck.gen Fixtures.gen_db))
    in
    let kinds =
      map
        (fun mask ->
          List.filteri
            (fun i _ -> mask land (1 lsl i) <> 0)
            [ Spec.Network; Spec.Hardware; Spec.Software ])
        (int_range 1 7)
    in
    int_range 2 4 >>= fun n ->
    list_repeat n modules >>= fun modules ->
    shuffle_l (List.init n (Printf.sprintf "src%d")) >>= fun names ->
    int_range 2 n >>= fun selected ->
    kinds >|= fun kinds ->
    ( List.mapi
        (fun i ms -> Agent.data_source ~name:(Printf.sprintf "src%d" i) ms)
        modules,
      Spec.create ~kinds ~redundancy:2
        (List.filteri (fun i _ -> i < selected) names) ))

let prop_collect_matches_oracle =
  QCheck.Test.make ~name:"collect = fail-fast oracle" ~count:200
    (QCheck.make gen_collection)
    (fun (sources, spec) ->
      let selected =
        List.map
          (fun name -> List.find (fun s -> s.Agent.source_name = name) sources)
          spec.Spec.data_sources
      in
      let all_kinds = Spec.create ~redundancy:2 spec.Spec.data_sources in
      let db, deg = Agent.collect selected in
      let run = Agent.run spec sources in
      (not (Degradation.degraded deg))
      && Depdb.records db = Fixtures.collect_oracle all_kinds sources
      && Depdb.records run.Agent.database = Fixtures.collect_oracle spec sources)

(* --- Scenario: §6.2.1 --------------------------------------------------- *)

let network_case = lazy (Scenario.run_network_case ())

let test_network_case_shape () =
  let nc = Lazy.force network_case in
  check Alcotest.int "190 deployments" 190 nc.Scenario.total_deployments;
  check Alcotest.int "36 clean" 36 nc.Scenario.clean_deployments;
  check Alcotest.bool "minority are safe picks" true
    (nc.Scenario.random_success_probability < 0.25)

let test_network_case_best_pair () =
  let nc = Lazy.force network_case in
  check (Alcotest.list Alcotest.int) "rack 5 + rack 29" [ 5; 29 ]
    nc.Scenario.best_pair_racks

let test_network_case_probability_confirms () =
  let nc = Lazy.force network_case in
  check Alcotest.bool "probability cross-check" true
    nc.Scenario.probability_confirms_best;
  (* Pr(fail) for two independent {ToR, core} chains at p = 0.1:
     (1 - 0.9^2)^2 = 0.0361 *)
  match nc.Scenario.lowest_failure_probability with
  | Some p -> check (Alcotest.float 1e-6) "Pr" 0.0361 p
  | None -> Alcotest.fail "probability expected"

let test_network_case_sampling_agrees () =
  let nc = Lazy.force network_case in
  let sampled =
    Scenario.run_network_case
      ~algorithm:(Sia_audit.failure_sampling ~rounds:2000) ()
  in
  check (Alcotest.list Alcotest.int) "same winner" nc.Scenario.best_pair_racks
    sampled.Scenario.best_pair_racks;
  check Alcotest.int "same clean count" nc.Scenario.clean_deployments
    sampled.Scenario.clean_deployments

(* --- Scenario: §6.2.2 ----------------------------------------------------- *)

let hardware_case = lazy (Scenario.run_hardware_case ())

let test_hardware_case_colocated () =
  let hc = Lazy.force hardware_case in
  check Alcotest.bool "replicas co-located" true hc.Scenario.co_located

let test_hardware_case_top4 () =
  let hc = Lazy.force hardware_case in
  (* Top-4 shape of the paper: a host singleton, a switch singleton,
     the core pair, the VM pair. *)
  match hc.Scenario.top4 with
  | [ first; second; third; fourth ] ->
      check Alcotest.int "host singleton" 1 (List.length first);
      check Alcotest.int "switch singleton" 1 (List.length second);
      check (Alcotest.list Alcotest.string) "core pair" [ "Core1"; "Core2" ] third;
      check (Alcotest.list Alcotest.string) "vm pair" [ "VM7"; "VM8" ] fourth
  | _ -> Alcotest.fail "four ranked RGs expected"

let test_hardware_case_fix () =
  let hc = Lazy.force hardware_case in
  check (Alcotest.list Alcotest.string) "recommendation" [ "Server2"; "Server3" ]
    hc.Scenario.recommended_servers;
  check Alcotest.bool "fixed after migration" true hc.Scenario.fixed;
  check Alcotest.int "no unexpected RGs left" 0
    (List.length hc.Scenario.final_report.Sia_audit.unexpected)

let test_hardware_case_initial_unexpected () =
  let hc = Lazy.force hardware_case in
  check Alcotest.bool "initial audit flags risk" true
    (List.length hc.Scenario.initial_report.Sia_audit.unexpected > 0)

(* --- Scenario: §6.2.3 ------------------------------------------------------ *)

let software_case = lazy (Scenario.run_software_case ())

let test_software_case_ranking () =
  let sc = Lazy.force software_case in
  check (Alcotest.list Alcotest.string) "best 2-way" [ "Cloud2"; "Cloud4" ]
    sc.Scenario.best_two_way;
  let two = List.map (fun r -> r.Pia_audit.providers) sc.Scenario.two_way.Pia_audit.results in
  check Alcotest.int "all 6 pairs" 6 (List.length two);
  let three =
    List.map (fun r -> r.Pia_audit.providers) sc.Scenario.three_way.Pia_audit.results
  in
  check (Alcotest.list Alcotest.string) "best 3-way"
    [ "Cloud2"; "Cloud3"; "Cloud4" ] (List.hd three)

let test_software_case_jaccard_values () =
  let sc = Lazy.force software_case in
  (* Values must be close to the paper's Table 2 (±0.05). *)
  let expected =
    [
      ([ "Cloud2"; "Cloud4" ], 0.1419); ([ "Cloud2"; "Cloud3" ], 0.1547);
      ([ "Cloud1"; "Cloud4" ], 0.2081); ([ "Cloud1"; "Cloud3" ], 0.2939);
      ([ "Cloud3"; "Cloud4" ], 0.3489); ([ "Cloud1"; "Cloud2" ], 0.5059);
    ]
  in
  List.iter
    (fun (providers, paper_value) ->
      let r =
        List.find
          (fun r -> r.Pia_audit.providers = providers)
          sc.Scenario.two_way.Pia_audit.results
      in
      check Alcotest.bool
        (String.concat "&" providers)
        true
        (abs_float (r.Pia_audit.jaccard -. paper_value) < 0.05))
    expected

(* --- Scenario helpers -------------------------------------------------------- *)

let test_hardware_sources_shape () =
  let rng = Prng.of_int 1 in
  let cloud = Indaas_iaas.Cloud.create ~servers:Indaas_iaas.Cloud.lab_servers rng in
  ignore (Indaas_iaas.Cloud.boot_vm cloud ~name:"VM1" ~group:"g");
  let sources = Scenario.hardware_case_sources cloud in
  check Alcotest.int "one source" 1 (List.length sources);
  let db, _ = Agent.collect sources in
  check Alcotest.bool "has records" true (Depdb.size db > 0)

let test_network_case_database () =
  let db = Scenario.network_case_database () in
  check Alcotest.int "20 records" 20 (Depdb.size db)

let test_software_case_providers () =
  let providers = Scenario.software_case_providers () in
  check Alcotest.int "four clouds" 4 (List.length providers)


(* --- Monitor (periodic audits / drift) ---------------------------------- *)

module Monitor = Indaas.Monitor

let flat_db routes =
  let db = Depdb.create () in
  List.iter
    (fun (src, route) ->
      Depdb.add db (Dependency.network ~src ~dst:"I" ~route))
    routes;
  db

let test_monitor_detects_regression () =
  (* Snapshot 1: disjoint switches. Snapshot 2: consolidation onto a
     shared switch introduces an unexpected RG. *)
  let before = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let after = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swA" ]) ] in
  let request = Sia_audit.request [ "S1"; "S2" ] in
  let _, diffs = Monitor.audit_series [ before; after ] request in
  match diffs with
  | [ d ] ->
      check Alcotest.bool "regressed" true d.Monitor.regressed;
      check Alcotest.bool "flags the shared switch" true
        (List.exists
           (function
             | Monitor.Unexpected_appeared r ->
                 Cutset.names d.Monitor.graph r.Rank.rg = [ "swA" ]
             | _ -> false)
           d.Monitor.changes);
      check (Alcotest.option Alcotest.int) "first regression" (Some 0)
        (Monitor.first_regression diffs);
      check Alcotest.bool "render mentions REGRESSED" true
        (Astring.String.is_infix ~affix:"REGRESSED" (Monitor.render_diff d))
  | _ -> Alcotest.fail "one diff expected"

let test_monitor_detects_fix () =
  let before = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swA" ]) ] in
  let after = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let request = Sia_audit.request [ "S1"; "S2" ] in
  let _, diffs = Monitor.audit_series [ before; after ] request in
  let d = List.hd diffs in
  check Alcotest.bool "not regressed" false d.Monitor.regressed;
  check Alcotest.bool "unexpected resolved" true
    (List.exists
       (function Monitor.Unexpected_resolved [ "swA" ] -> true | _ -> false)
       d.Monitor.changes);
  check (Alcotest.option Alcotest.int) "no regression" None
    (Monitor.first_regression diffs)

let test_monitor_no_changes () =
  let db = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let request = Sia_audit.request [ "S1"; "S2" ] in
  let _, diffs = Monitor.audit_series [ db; db ] request in
  let d = List.hd diffs in
  check Alcotest.int "no changes" 0 (List.length d.Monitor.changes);
  check Alcotest.bool "render says so" true
    (Astring.String.is_infix ~affix:"no changes" (Monitor.render_diff d))

let test_monitor_probability_movement () =
  let before = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let after = flat_db [ ("S1", [ "swA"; "extra" ]); ("S2", [ "swB" ]) ] in
  let request =
    Sia_audit.request
      ~component_probability:(Indaas_sia.Builder.uniform_probability 0.1)
      ~ranking:Sia_audit.Probability_based [ "S1"; "S2" ]
  in
  let _, diffs = Monitor.audit_series [ before; after ] request in
  let d = List.hd diffs in
  (* The extra device on S1's only path raises Pr(S1 fails), so the
     deployment's failure probability rises: a regression. *)
  check Alcotest.bool "probability regression" true d.Monitor.regressed;
  check Alcotest.bool "probability change reported" true
    (List.exists
       (function
         | Monitor.Failure_probability_changed { before = b; after = a } -> a > b
         | _ -> false)
       d.Monitor.changes)

let test_monitor_validation () =
  let db = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let r1 = Sia_audit.audit db (Sia_audit.request [ "S1"; "S2" ]) in
  let r2 = Sia_audit.audit db (Sia_audit.request [ "S2"; "S1" ]) in
  check Alcotest.bool "different deployments rejected" true
    (try
       ignore (Monitor.diff_reports ~before:r1 ~after:r2);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "empty series rejected" true
    (try
       ignore (Monitor.audit_series [] (Sia_audit.request [ "S1" ]));
       false
     with Invalid_argument _ -> true)

let test_monitor_single_snapshot () =
  let db = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let reports, diffs = Monitor.audit_series [ db ] (Sia_audit.request [ "S1"; "S2" ]) in
  check Alcotest.int "one report" 1 (List.length reports);
  check Alcotest.int "no diffs" 0 (List.length diffs)

let test_monitor_expected_size_changes () =
  (* S1 grows a second single-path switch: the new RG {swB, swC} is of
     the intended size, so it is reported but does not regress. *)
  let before = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let after = flat_db [ ("S1", [ "swA"; "swC" ]); ("S2", [ "swB" ]) ] in
  let request = Sia_audit.request [ "S1"; "S2" ] in
  let _, diffs = Monitor.audit_series [ before; after ] request in
  let d = List.hd diffs in
  check Alcotest.bool "not regressed" false d.Monitor.regressed;
  check Alcotest.bool "expected-size RG appeared" true
    (List.exists
       (function
         | Monitor.Risk_group_appeared r ->
             List.sort compare (Cutset.names d.Monitor.graph r.Rank.rg)
             = [ "swB"; "swC" ]
         | _ -> false)
       d.Monitor.changes);
  (* And the reverse direction reports it resolved. *)
  let _, diffs = Monitor.audit_series [ after; before ] request in
  let d = List.hd diffs in
  check Alcotest.bool "expected-size RG resolved" true
    (List.exists
       (function
         | Monitor.Risk_group_resolved names ->
             List.sort compare names = [ "swB"; "swC" ]
         | _ -> false)
       d.Monitor.changes)

let test_monitor_first_regression_index () =
  let good = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swB" ]) ] in
  let bad = flat_db [ ("S1", [ "swA" ]); ("S2", [ "swA" ]) ] in
  let request = Sia_audit.request [ "S1"; "S2" ] in
  let reports, diffs = Monitor.audit_series [ good; good; bad ] request in
  check Alcotest.int "three reports" 3 (List.length reports);
  check Alcotest.int "two diffs" 2 (List.length diffs);
  check (Alcotest.option Alcotest.int) "regression in second diff" (Some 1)
    (Monitor.first_regression diffs)

let () =
  Alcotest.run "core"
    [
      ( "spec",
        [
          Alcotest.test_case "defaults" `Quick test_spec_defaults;
          Alcotest.test_case "explicit candidates" `Quick test_spec_explicit_candidates;
          Alcotest.test_case "validation" `Quick test_spec_validation;
          Alcotest.test_case "subset count" `Quick test_spec_subset_count;
        ] );
      ( "agent",
        [
          Alcotest.test_case "collect filters kinds" `Quick
            test_agent_collect_filters_kinds;
          Alcotest.test_case "missing source" `Quick test_agent_missing_source;
          Alcotest.test_case "SIA run" `Quick test_agent_sia_run;
          Alcotest.test_case "PIA run" `Quick test_agent_pia_run;
          Alcotest.test_case "render and best" `Quick test_agent_render_and_best;
          Alcotest.test_case "probability metric" `Quick test_agent_probability_metric;
        ] );
      ( "agent-resilience",
        [
          Alcotest.test_case "crashed source degrades" `Quick
            test_agent_run_with_crashed_source;
          Alcotest.test_case "no faults is complete" `Quick
            test_agent_run_without_faults_is_complete;
          Alcotest.test_case "flaky source recovers" `Quick
            test_agent_flaky_source_recovers;
          Alcotest.test_case "duplicate source rejected" `Quick
            test_agent_duplicate_source_rejected;
          Alcotest.test_case "PIA excludes dead provider" `Quick
            test_agent_pia_excludes_dead_provider;
          Alcotest.test_case "failure once is retried" `Quick
            test_agent_failure_once_is_retried;
          QCheck_alcotest.to_alcotest prop_collect_matches_oracle;
        ] );
      ( "network-case",
        [
          Alcotest.test_case "shape" `Quick test_network_case_shape;
          Alcotest.test_case "best pair" `Quick test_network_case_best_pair;
          Alcotest.test_case "probability confirms" `Quick
            test_network_case_probability_confirms;
          Alcotest.test_case "sampling agrees" `Slow test_network_case_sampling_agrees;
          Alcotest.test_case "database" `Quick test_network_case_database;
        ] );
      ( "hardware-case",
        [
          Alcotest.test_case "co-located" `Quick test_hardware_case_colocated;
          Alcotest.test_case "top-4 RGs" `Quick test_hardware_case_top4;
          Alcotest.test_case "fix applied" `Quick test_hardware_case_fix;
          Alcotest.test_case "initial risk flagged" `Quick
            test_hardware_case_initial_unexpected;
          Alcotest.test_case "sources" `Quick test_hardware_sources_shape;
        ] );
      ( "software-case",
        [
          Alcotest.test_case "ranking" `Quick test_software_case_ranking;
          Alcotest.test_case "jaccard near paper" `Quick
            test_software_case_jaccard_values;
          Alcotest.test_case "providers" `Quick test_software_case_providers;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "detects regression" `Quick test_monitor_detects_regression;
          Alcotest.test_case "detects fix" `Quick test_monitor_detects_fix;
          Alcotest.test_case "no changes" `Quick test_monitor_no_changes;
          Alcotest.test_case "probability movement" `Quick
            test_monitor_probability_movement;
          Alcotest.test_case "validation" `Quick test_monitor_validation;
          Alcotest.test_case "single snapshot" `Quick test_monitor_single_snapshot;
          Alcotest.test_case "expected-size changes" `Quick
            test_monitor_expected_size_changes;
          Alcotest.test_case "first regression index" `Quick
            test_monitor_first_regression_index;
        ] );
    ]

