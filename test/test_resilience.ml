module Vclock = Indaas_resilience.Vclock
module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Degradation = Indaas_resilience.Degradation
module Collectors = Indaas_depdata.Collectors
module Dependency = Indaas_depdata.Dependency
module Prng = Indaas_util.Prng
module Chaos = Indaas.Chaos

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Vclock ------------------------------------------------------------- *)

let test_vclock () =
  let c = Vclock.create () in
  check (Alcotest.float 1e-12) "starts at 0" 0. (Vclock.now c);
  Vclock.advance c 1.5;
  Vclock.sleep c 0.5;
  check (Alcotest.float 1e-12) "advances" 2. (Vclock.now c);
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Vclock.advance: time cannot move backwards") (fun () ->
      Vclock.advance c (-1.))

(* --- Fault plans --------------------------------------------------------- *)

let records =
  [
    Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw" ];
    Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw2" ];
    Dependency.network ~src:"S1" ~dst:"I" ~route:[ "sw3" ];
  ]

let static_module () = Collectors.static ~name:"net" records

let test_plan_validation () =
  check Alcotest.bool "empty is empty" true (Fault.is_empty Fault.empty);
  List.iter
    (fun entries ->
      check Alcotest.bool
        (Fault.kind_to_string (snd (List.hd entries)))
        true
        (try
           ignore (Fault.plan entries);
           false
         with Invalid_argument _ -> true))
    [
      [ ("a", Fault.Flaky_until (-1)) ];
      [ ("a", Fault.Timeout (-1.)) ];
      [ ("a", Fault.Drop_fraction 1.5) ];
      [ ("a", Fault.Corrupt_fraction (-0.1)) ];
      [ ("a", Fault.Message_loss 2.) ];
      [ ("a", Fault.Message_delay (-3.)) ];
    ]

let test_kind_strings_roundtrip () =
  List.iter
    (fun k ->
      check Alcotest.string
        (Fault.kind_to_string k)
        (Fault.kind_to_string k)
        (Fault.kind_to_string (Fault.kind_of_string (Fault.kind_to_string k))))
    [
      Fault.Crash; Fault.Flaky_until 3; Fault.Timeout 2.5;
      Fault.Drop_fraction 0.25; Fault.Corrupt_fraction 0.1;
      Fault.Message_loss 0.5; Fault.Message_delay 1.;
    ];
  check Alcotest.bool "entry_of_string" true
    (Fault.entry_of_string "S2=crash" = ("S2", Fault.Crash));
  check Alcotest.bool "bad spec raises" true
    (try
       ignore (Fault.entry_of_string "S2=warp:9");
       false
     with Failure _ -> true)

let test_crash_fault () =
  let inj = Fault.injector ~seed:1 (Fault.plan [ ("S1", Fault.Crash) ]) in
  let m = Fault.wrap_collector inj ~source:"S1" (static_module ()) in
  check Alcotest.bool "raises Injected" true
    (try
       ignore (m.Collectors.collect ());
       false
     with Fault.Injected { target; fault } -> target = "S1" && fault = "crash");
  check Alcotest.int "counted" 1 (Fault.crashes inj);
  (* Another source is untouched. *)
  let other = Fault.wrap_collector inj ~source:"S9" (static_module ()) in
  check Alcotest.int "other source unaffected" 3
    (List.length (other.Collectors.collect ()))

let test_timeout_advances_clock () =
  let inj = Fault.injector ~seed:1 (Fault.plan [ ("S1", Fault.Timeout 10.) ]) in
  let m = Fault.wrap_collector inj ~source:"S1" (static_module ()) in
  (try ignore (m.Collectors.collect ()) with Fault.Injected _ -> ());
  check Alcotest.bool "virtual time moved" true
    (Vclock.now (Fault.clock inj) >= 10.);
  check Alcotest.int "counted" 1 (Fault.timeouts inj)

let test_drop_fraction_counts () =
  let inj = Fault.injector ~seed:5 (Fault.plan [ ("*", Fault.Drop_fraction 0.5) ]) in
  let m = Fault.wrap_collector inj ~source:"S1" (static_module ()) in
  let out = m.Collectors.collect () in
  check Alcotest.int "dropped + kept = total" 3
    (List.length out + Fault.records_dropped inj ~source:"S1")

let test_corrupt_fraction_mangles () =
  let inj = Fault.injector ~seed:5 (Fault.plan [ ("S1", Fault.Corrupt_fraction 1.0) ]) in
  let m = Fault.wrap_collector inj ~source:"S1" (static_module ()) in
  let out = m.Collectors.collect () in
  check Alcotest.int "nothing dropped" 3 (List.length out);
  check Alcotest.int "all corrupted" 3 (Fault.records_corrupted inj ~source:"S1");
  check Alcotest.bool "identifiers mangled" true (out <> records)

(* --- Retry engine --------------------------------------------------------- *)

let flaky_thunk k =
  let calls = ref 0 in
  fun () ->
    incr calls;
    if !calls <= k then failwith (Printf.sprintf "flaky call %d" !calls)
    else !calls

let test_retry_succeeds_within_budget () =
  let clock = Vclock.create () in
  let outcome =
    Retry.call
      ~policy:(Retry.policy ~retries:3 ())
      ~clock ~rng:(Prng.of_int 1) ~label:"t" (flaky_thunk 3)
  in
  check Alcotest.bool "ok" true (outcome.Retry.result = Ok 4);
  check Alcotest.int "four attempts" 4 outcome.Retry.attempts;
  check Alcotest.bool "slept virtually" true (outcome.Retry.backoff > 0.);
  check (Alcotest.float 1e-9) "clock advanced by backoff"
    outcome.Retry.backoff (Vclock.now clock)

let test_retry_budget_exhausted () =
  let outcome =
    Retry.call
      ~policy:(Retry.policy ~retries:2 ())
      ~clock:(Vclock.create ()) ~rng:(Prng.of_int 1) ~label:"t" (flaky_thunk 3)
  in
  (match outcome.Retry.result with
  | Error e ->
      check Alcotest.bool "last error reported" true
        (Astring.String.is_infix ~affix:"flaky call 3" e)
  | Ok _ -> Alcotest.fail "expected failure");
  check Alcotest.int "three attempts" 3 outcome.Retry.attempts

let test_retry_deadline () =
  let clock = Vclock.create () in
  let outcome =
    Retry.call
      ~policy:(Retry.policy ~retries:1000 ~base_delay:10. ~max_delay:10. ~deadline:15. ())
      ~clock ~rng:(Prng.of_int 3) ~label:"t" (flaky_thunk 1000)
  in
  (match outcome.Retry.result with
  | Error e ->
      check Alcotest.bool "deadline reported" true
        (Astring.String.is_infix ~affix:"deadline" e)
  | Ok _ -> Alcotest.fail "expected failure");
  check Alcotest.bool "stopped early" true (outcome.Retry.attempts < 10)

let test_retry_non_transient_propagates () =
  check Alcotest.bool "Invalid_argument propagates" true
    (try
       ignore
         (Retry.call ~clock:(Vclock.create ()) ~rng:(Prng.of_int 1) ~label:"t"
            (fun () -> invalid_arg "no"));
       false
     with Invalid_argument _ -> true)

let test_breaker_opens_and_recovers () =
  let clock = Vclock.create () in
  let b = Retry.breaker ~threshold:2 ~cooldown:30. ~clock "src" in
  check Alcotest.bool "closed" true (Retry.breaker_state b = `Closed);
  Retry.record_failure b;
  Retry.record_failure b;
  check Alcotest.bool "open" true (Retry.breaker_state b = `Open);
  check Alcotest.int "one trip" 1 (Retry.trips b);
  (* While open, calls fail without attempting. *)
  let outcome =
    Retry.call ~breaker:b ~clock ~rng:(Prng.of_int 1) ~label:"t" (fun () -> 1)
  in
  check Alcotest.int "no attempts" 0 outcome.Retry.attempts;
  (* After the cooldown a half-open probe closes it on success. *)
  Vclock.advance clock 31.;
  check Alcotest.bool "half-open" true (Retry.breaker_state b = `Half_open);
  let outcome =
    Retry.call ~breaker:b ~clock ~rng:(Prng.of_int 1) ~label:"t" (fun () -> 1)
  in
  check Alcotest.bool "probe succeeded" true (outcome.Retry.result = Ok 1);
  check Alcotest.bool "closed again" true (Retry.breaker_state b = `Closed)

(* --- Degradation ---------------------------------------------------------- *)

let source_report ?(status = Degradation.Ok) ?(modules_failed = 0)
    ?(records_lost = 0) ?(records = 10) name =
  {
    Degradation.source = name;
    status;
    attempts = 1;
    modules_total = 2;
    modules_failed;
    records;
    records_lost;
  }

(* Retries that ended in success cost nothing in completeness. *)
let test_degradation_complete () =
  let d =
    Degradation.make ~retries:2 [ source_report "a"; source_report "b" ]
  in
  check (Alcotest.float 1e-12) "completeness 1" 1. d.Degradation.completeness;
  check Alcotest.bool "not degraded" false (Degradation.degraded d)

let test_degradation_accounting () =
  let d =
    Degradation.make ~retries:4
      [
        source_report "a";
        source_report "b"
          ~status:(Degradation.Failed "boom") ~modules_failed:2 ~records:0;
        source_report "c" ~status:(Degradation.Degraded "lossy") ~records_lost:10;
      ]
  in
  check Alcotest.bool "degraded" true (Degradation.degraded d);
  check (Alcotest.list Alcotest.string) "failed sources" [ "b" ]
    (Degradation.failed_sources d);
  check Alcotest.int "records lost" 10 (Degradation.records_lost d);
  check Alcotest.bool "completeness < 1" true (d.Degradation.completeness < 1.);
  let text = Degradation.render d in
  check Alcotest.bool "banner" true
    (Astring.String.is_infix ~affix:"DEGRADED AUDIT" text);
  check Alcotest.bool "names the failed source" true
    (Astring.String.is_infix ~affix:"b" text)

(* --- Chaos determinism ----------------------------------------------------- *)

let test_chaos_same_seed_renders_identically () =
  let go () =
    Chaos.render
      (Chaos.run ~seed:11 ~scenario:"sia-lab" ~plan:"lossy" ~trials:4 ())
  in
  check Alcotest.string "byte-identical" (go ()) (go ())

let test_chaos_crash_plan_degrades () =
  let s = Chaos.run ~seed:3 ~scenario:"sia-lab" ~plan:"crash-one" ~trials:3 () in
  check Alcotest.int "no trial crashed the harness" 0 s.Chaos.failed;
  check Alcotest.int "every trial degraded" 3 s.Chaos.degraded;
  List.iter
    (fun c -> check Alcotest.bool "completeness < 1" true (c < 1.))
    s.Chaos.completeness

let test_chaos_validation () =
  check Alcotest.bool "unknown scenario" true
    (try
       ignore (Chaos.run ~scenario:"nope" ~plan:"none" ~trials:1 ());
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "unknown plan" true
    (try
       ignore (Chaos.run ~scenario:"sia-lab" ~plan:"nope" ~trials:1 ());
       false
     with Invalid_argument _ -> true)

(* --- qcheck properties ------------------------------------------------------ *)

(* Property (a): the empty fault plan is an identity wrapper. *)
let prop_empty_plan_identity =
  QCheck.Test.make ~name:"empty plan wraps as identity" ~count:50
    QCheck.(small_list (pair small_string small_string))
    (fun routes ->
      let records =
        List.map
          (fun (src, sw) ->
            Dependency.network ~src:("s" ^ src) ~dst:"I" ~route:[ "sw" ^ sw ])
          routes
      in
      let m = Collectors.static ~name:"net" records in
      let inj = Fault.injector ~seed:1 Fault.empty in
      let wrapped = Fault.wrap_collector inj ~source:"s" m in
      wrapped.Collectors.collect () = records)

(* Property (b): Flaky_until k succeeds iff the retry budget is >= k. *)
let prop_flaky_vs_budget =
  QCheck.Test.make ~name:"flaky:k succeeds iff retries >= k" ~count:100
    QCheck.(pair (int_range 0 6) (int_range 0 6))
    (fun (k, retries) ->
      let inj =
        Fault.injector ~seed:(k + (7 * retries))
          (Fault.plan [ ("S", Fault.Flaky_until k) ])
      in
      let m = Fault.wrap_collector inj ~source:"S" (static_module ()) in
      let outcome =
        Retry.call
          ~policy:(Retry.policy ~retries ())
          ~clock:(Fault.clock inj)
          ~rng:(Prng.of_int 9) ~label:"S/net"
          (fun () -> m.Collectors.collect ())
      in
      Result.is_ok outcome.Retry.result = (retries >= k))

(* Property (c): completeness is in [0,1], and = 1 exactly when no
   source failed anything. *)
let gen_source_reports =
  QCheck.make
    ~print:(fun l ->
      String.concat ";"
        (List.map
           (fun (mf, rl, r) -> Printf.sprintf "(%d,%d,%d)" mf rl r)
           l))
    QCheck.Gen.(
      list_size (int_range 1 6)
        (triple (int_range 0 2) (int_range 0 5) (int_range 0 5)))

let prop_completeness_bounds =
  QCheck.Test.make ~name:"completeness in [0,1], 1 iff nothing failed"
    ~count:300 gen_source_reports (fun specs ->
      let reports =
        List.mapi
          (fun i (modules_failed, records_lost, records) ->
            let status =
              if modules_failed >= 2 then Degradation.Failed "down"
              else if modules_failed > 0 || records_lost > 0 then
                Degradation.Degraded "lossy"
              else Degradation.Ok
            in
            {
              Degradation.source = Printf.sprintf "s%d" i;
              status;
              attempts = 1;
              modules_total = 2;
              modules_failed;
              records;
              records_lost;
            })
          specs
      in
      let d = Degradation.make ~retries:0 reports in
      let c = d.Degradation.completeness in
      let all_ok =
        List.for_all
          (fun (mf, rl, _) -> mf = 0 && rl = 0)
          specs
      in
      c >= 0. && c <= 1. && (c = 1.) = all_ok)

(* Property (d): chaos runs are deterministic in the seed. *)
let prop_chaos_deterministic =
  QCheck.Test.make ~name:"same-seed chaos runs render identically" ~count:5
    QCheck.(int_range 0 1000)
    (fun seed ->
      let go () =
        Chaos.render
          (Chaos.run ~seed ~scenario:"sia-lab" ~plan:"flaky" ~trials:2 ())
      in
      go () = go ())

let () =
  Alcotest.run "resilience"
    [
      ("vclock", [ Alcotest.test_case "advance/sleep" `Quick test_vclock ]);
      ( "fault",
        [
          Alcotest.test_case "plan validation" `Quick test_plan_validation;
          Alcotest.test_case "kind strings" `Quick test_kind_strings_roundtrip;
          Alcotest.test_case "crash" `Quick test_crash_fault;
          Alcotest.test_case "timeout" `Quick test_timeout_advances_clock;
          Alcotest.test_case "drop fraction" `Quick test_drop_fraction_counts;
          Alcotest.test_case "corrupt fraction" `Quick
            test_corrupt_fraction_mangles;
          qtest prop_empty_plan_identity;
        ] );
      ( "retry",
        [
          Alcotest.test_case "succeeds within budget" `Quick
            test_retry_succeeds_within_budget;
          Alcotest.test_case "budget exhausted" `Quick test_retry_budget_exhausted;
          Alcotest.test_case "deadline" `Quick test_retry_deadline;
          Alcotest.test_case "non-transient propagates" `Quick
            test_retry_non_transient_propagates;
          Alcotest.test_case "breaker" `Quick test_breaker_opens_and_recovers;
          qtest prop_flaky_vs_budget;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "complete" `Quick test_degradation_complete;
          Alcotest.test_case "accounting" `Quick test_degradation_accounting;
          qtest prop_completeness_bounds;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "same seed renders identically" `Quick
            test_chaos_same_seed_renders_identically;
          Alcotest.test_case "crash plan degrades" `Quick
            test_chaos_crash_plan_degrades;
          Alcotest.test_case "validation" `Quick test_chaos_validation;
          qtest prop_chaos_deterministic;
        ] );
    ]
