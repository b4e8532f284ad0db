module Collectors = Indaas_depdata.Collectors
module Dependency = Indaas_depdata.Dependency
module Catalog = Indaas_depdata.Catalog
module Pia_audit = Indaas_pia.Audit
module Commutative = Indaas_crypto.Commutative
module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Degradation = Indaas_resilience.Degradation
module Prng = Indaas_util.Prng
module Table = Indaas_util.Table
module Json = Indaas_util.Json
module Vclock = Indaas_resilience.Vclock
module Obs = Indaas_obs.Registry

(* --- Scenarios --------------------------------------------------------- *)

type scenario = {
  scenario_name : string;
  scenario_doc : string;
  spec : Spec.t;
  sources : unit -> Agent.data_source list;
  protocol : Pia_audit.protocol option;
}

let sia_lab_sources () =
  let source name ~switch app =
    Agent.data_source ~name
      [
        Collectors.static ~name:"net"
          [ Dependency.network ~src:name ~dst:"I" ~route:[ switch ] ];
        Collectors.lshw [ Collectors.standard_profile name ];
        Collectors.apt_rdepends [ (app, name) ];
      ]
  in
  [
    source "S1" ~switch:"swA" Catalog.Riak;
    source "S2" ~switch:"swA" Catalog.Redis;
    source "S3" ~switch:"swB" Catalog.MongoDB;
  ]

(* P-SOP parameter generation is the expensive part of a PIA trial;
   chaos trials stress the fault path, not the crypto, so one small
   parameter set is shared by every trial. *)
let pia_params =
  lazy (Commutative.params_pohlig_hellman ~bits:128 (Prng.of_int 0xC4A05))

let pia_cloud_sources () =
  let provider name app =
    Agent.data_source ~name
      [ Collectors.apt_rdepends [ (app, name) ] ]
  in
  [
    provider "Cloud1" Catalog.Riak;
    provider "Cloud2" Catalog.Redis;
    provider "Cloud3" Catalog.MongoDB;
  ]

let scenarios =
  [
    {
      scenario_name = "sia-lab";
      scenario_doc =
        "3-source SIA lab (S1/S2 share a switch), size ranking, 2-way";
      spec = Spec.create ~redundancy:2 [ "S1"; "S2"; "S3" ];
      sources = sia_lab_sources;
      protocol = None;
    };
    {
      scenario_name = "pia-clouds";
      scenario_doc =
        "3-provider PIA (software sets, P-SOP over 128-bit group), 2-way";
      spec =
        Spec.create ~metric:Spec.Jaccard_similarity ~kinds:[ Spec.Software ]
          ~redundancy:2
          [ "Cloud1"; "Cloud2"; "Cloud3" ];
      sources = pia_cloud_sources;
      protocol = Some (Pia_audit.Psop { params = Some (Lazy.force pia_params) });
    };
  ]

let scenario_names = List.map (fun s -> s.scenario_name) scenarios

let find_scenario name =
  match List.find_opt (fun s -> s.scenario_name = name) scenarios with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos: unknown scenario %S (known: %s)" name
           (String.concat ", " scenario_names))

(* --- Fault plans -------------------------------------------------------- *)

let plan_table =
  [
    ("none", "no faults — the control run");
    ("crash-one", "the second data source is permanently down");
    ("flaky", "every source fails its first two calls, then recovers");
    ("lossy", "every source drops 30% of its records");
    ("corrupt", "every source mangles 20% of its component identifiers");
    ("slow-source", "the last source times out on every call");
    ("partition", "the PIA transport loses 20% of messages");
  ]

let plan_names = List.map fst plan_table

let plan_doc name =
  match List.assoc_opt name plan_table with
  | Some doc -> doc
  | None ->
      invalid_arg
        (Printf.sprintf "Chaos: unknown plan %S (known: %s)" name
           (String.concat ", " plan_names))

let plan_entries scenario = function
  | "none" -> []
  | "crash-one" ->
      [ (List.nth scenario.spec.Spec.data_sources 1, Fault.Crash) ]
  | "flaky" -> [ ("*", Fault.Flaky_until 2) ]
  | "lossy" -> [ ("*", Fault.Drop_fraction 0.3) ]
  | "corrupt" -> [ ("*", Fault.Corrupt_fraction 0.2) ]
  | "slow-source" ->
      let sources = scenario.spec.Spec.data_sources in
      [ (List.nth sources (List.length sources - 1), Fault.Timeout 10.) ]
  | "partition" -> [ ("transport", Fault.Message_loss 0.2) ]
  | name -> ignore (plan_doc name); []

(* --- Trials ------------------------------------------------------------- *)

type summary = {
  scenario : string;
  plan : string;
  plan_text : string;  (** the entries in [TARGET=SPEC] spelling *)
  seed : int;
  trials : int;
  successes : int;
  degraded : int;
  failed : int;
  attempts : int;
  retries : int;
  completeness : float list;
  errors : (string * int) list;
}

type trial_outcome =
  | Trial_ok of Agent.audit_run
  | Trial_degraded of Agent.audit_run
  | Trial_failed of string

let run_degraded (run : Agent.audit_run) =
  Degradation.degraded run.Agent.degradation
  ||
  match run.Agent.outcome with
  | Agent.Pia_outcome r -> r.Pia_audit.failures <> []
  | Agent.Sia_outcome _ -> false

let one_trial scenario entries retry ~seed =
  let faults = Fault.injector ~seed (Fault.plan entries) in
  (* Each trial gets a fresh virtual clock (the injector's), so when
     recording is on every span timestamp is a function of the seed
     alone and a chaos trace is byte-identical run to run. *)
  if Obs.on () then
    Obs.set_clock (Obs.current ())
      (Obs.clock_of_seconds (fun () -> Vclock.now (Fault.clock faults)));
  Obs.with_span "chaos.trial" ~attrs:[ ("seed", string_of_int seed) ]
  @@ fun () ->
  let rng = Prng.of_int seed in
  match
    Agent.run ~rng ~faults ?retry ?pia_protocol:scenario.protocol scenario.spec
      (scenario.sources ())
  with
  | run -> if run_degraded run then Trial_degraded run else Trial_ok run
  | exception Failure msg -> Trial_failed msg

let source_errors (deg : Degradation.t) =
  List.filter_map
    (fun (r : Degradation.source_report) ->
      match r.Degradation.status with
      | Degradation.Failed e -> Some e
      | Degradation.Degraded _ | Degradation.Ok -> None)
    deg.Degradation.sources

let run ?(seed = 42) ?retry ~scenario ~plan ~trials () =
  if trials < 1 then invalid_arg "Chaos.run: trials must be positive";
  let sc = find_scenario scenario in
  ignore (plan_doc plan);
  let entries = plan_entries sc plan in
  let successes = ref 0 and degraded = ref 0 and failed = ref 0 in
  let attempts = ref 0 and retries = ref 0 in
  let completeness = ref [] and errors = Hashtbl.create 8 in
  let record_error e =
    Hashtbl.replace errors e (1 + Option.value ~default:0 (Hashtbl.find_opt errors e))
  in
  let record_run (r : Agent.audit_run) =
    let deg = r.Agent.degradation in
    attempts := !attempts + Degradation.attempts deg;
    retries := !retries + deg.Degradation.retries;
    completeness := deg.Degradation.completeness :: !completeness;
    List.iter record_error (source_errors deg);
    match r.Agent.outcome with
    | Agent.Pia_outcome pia ->
        List.iter
          (fun (f : Pia_audit.round_failure) ->
            attempts := !attempts + f.Pia_audit.attempts;
            record_error f.Pia_audit.error)
          pia.Pia_audit.failures
    | Agent.Sia_outcome _ -> ()
  in
  let observe_completeness c =
    Obs.observe ~bounds:[| 0.; 0.25; 0.5; 0.75; 1. |] "chaos.completeness" c
  in
  for t = 0 to trials - 1 do
    match one_trial sc entries retry ~seed:(seed + t) with
    | Trial_ok r ->
        incr successes;
        Obs.incr "chaos.trials_ok";
        observe_completeness r.Agent.degradation.Degradation.completeness;
        record_run r
    | Trial_degraded r ->
        incr degraded;
        Obs.incr "chaos.trials_degraded";
        observe_completeness r.Agent.degradation.Degradation.completeness;
        record_run r
    | Trial_failed e ->
        incr failed;
        Obs.incr "chaos.trials_failed";
        observe_completeness 0.;
        completeness := 0. :: !completeness;
        record_error e
  done;
  {
    scenario;
    plan;
    plan_text =
      String.concat ", "
        (List.map
           (fun (target, kind) -> target ^ "=" ^ Fault.kind_to_string kind)
           entries);
    seed;
    trials;
    successes = !successes;
    degraded = !degraded;
    failed = !failed;
    attempts = !attempts;
    retries = !retries;
    completeness = List.rev !completeness;
    errors =
      Hashtbl.fold (fun e n acc -> (e, n) :: acc) errors []
      |> List.sort (fun (e1, n1) (e2, n2) ->
             match compare n2 n1 with 0 -> compare e1 e2 | c -> c);
  }

(* --- Rendering ---------------------------------------------------------- *)

let completeness_stats summary =
  match summary.completeness with
  | [] -> (0., 0., 0.)
  | c :: rest ->
      let lo, hi, sum =
        List.fold_left
          (fun (lo, hi, sum) x -> (Float.min lo x, Float.max hi x, sum +. x))
          (c, c, c) rest
      in
      (lo, sum /. float_of_int (List.length summary.completeness), hi)

let buckets = [ (1., 1.); (0.75, 1.); (0.5, 0.75); (0.25, 0.5); (0., 0.25) ]

let bucket_label (lo, hi) =
  if lo = hi then Printf.sprintf "[%.2f]" lo
  else Printf.sprintf "[%.2f,%.2f)" lo hi

let bucket_count summary (lo, hi) =
  List.length
    (List.filter
       (fun c -> if lo = hi then c = lo else c >= lo && c < hi)
       summary.completeness)

let render summary =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "chaos: scenario %S under plan %S — %d trial(s), seed %d\n"
       summary.scenario summary.plan summary.trials summary.seed);
  Buffer.add_string buf
    (Printf.sprintf "plan: %s\n\n"
       (if summary.plan_text = "" then "(no faults)" else summary.plan_text));
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "Outcome"; "Trials" ] in
  Table.add_row t [ "ok"; string_of_int summary.successes ];
  Table.add_row t [ "degraded"; string_of_int summary.degraded ];
  Table.add_row t [ "failed"; string_of_int summary.failed ];
  Buffer.add_string buf (Table.render t);
  Buffer.add_string buf
    (Printf.sprintf "\ncollector attempts: %d, retries spent: %d\n"
       summary.attempts summary.retries);
  let lo, mean, hi = completeness_stats summary in
  Buffer.add_string buf
    (Printf.sprintf "completeness: min %.2f, mean %.2f, max %.2f\n" lo mean hi);
  Buffer.add_string buf "distribution:";
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf " %s %d" (bucket_label b) (bucket_count summary b)))
    buckets;
  Buffer.add_char buf '\n';
  (match summary.errors with
  | [] -> ()
  | errors ->
      Buffer.add_string buf "errors (by frequency):\n";
      List.iter
        (fun (e, n) ->
          Buffer.add_string buf (Printf.sprintf "  %dx %s\n" n e))
        errors);
  Buffer.contents buf

let to_json summary =
  let lo, mean, hi = completeness_stats summary in
  Json.Obj
    [
      ("scenario", Json.String summary.scenario);
      ("plan", Json.String summary.plan);
      ("plan_text", Json.String summary.plan_text);
      ("seed", Json.Int summary.seed);
      ("trials", Json.Int summary.trials);
      ("ok", Json.Int summary.successes);
      ("degraded", Json.Int summary.degraded);
      ("failed", Json.Int summary.failed);
      ("attempts", Json.Int summary.attempts);
      ("retries", Json.Int summary.retries);
      ( "completeness",
        Json.Obj
          [
            ("min", Json.Float lo);
            ("mean", Json.Float mean);
            ("max", Json.Float hi);
            ( "trials",
              Json.List (List.map (fun c -> Json.Float c) summary.completeness)
            );
          ] );
      ( "errors",
        Json.List
          (List.map
             (fun (e, n) ->
               Json.Obj [ ("error", Json.String e); ("count", Json.Int n) ])
             summary.errors) );
    ]

let list_text () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "scenarios:\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %s\n" s.scenario_name s.scenario_doc))
    scenarios;
  Buffer.add_string buf "plans:\n";
  List.iter
    (fun (name, doc) ->
      Buffer.add_string buf (Printf.sprintf "  %-12s %s\n" name doc))
    plan_table;
  Buffer.contents buf
