module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Collectors = Indaas_depdata.Collectors
module Sia_audit = Indaas_sia.Audit
module Sia_report = Indaas_sia.Report
module Pia_audit = Indaas_pia.Audit
module Componentset = Indaas_pia.Componentset
module Prng = Indaas_util.Prng
module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Vclock = Indaas_resilience.Vclock
module Degradation = Indaas_resilience.Degradation
module Lint = Indaas_lint.Lint
module Obs = Indaas_obs.Registry

let log_src = Logs.Src.create "indaas.agent" ~doc:"INDaaS auditing agent"

module Log = (val Logs.src_log log_src : Logs.LOG)

type data_source = {
  source_name : string;
  modules : Collectors.t list;
}

let data_source ~name modules = { source_name = name; modules }

type outcome =
  | Sia_outcome of Sia_audit.deployment_report list
  | Pia_outcome of Pia_audit.report

type audit_run = {
  spec : Spec.t;
  outcome : outcome;
  database : Depdb.t;
  degradation : Degradation.t;
}

let kind_of_record = function
  | Dependency.Network _ -> Spec.Network
  | Dependency.Hardware _ -> Spec.Hardware
  | Dependency.Software _ -> Spec.Software

let filter_kinds spec db =
  let filtered = Depdb.create () in
  List.iter
    (fun r -> if Spec.wants spec (kind_of_record r) then Depdb.add filtered r)
    (Depdb.records db);
  filtered

let find_source sources name =
  match List.find_opt (fun s -> s.source_name = name) sources with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Agent: data source %S not available" name)

(* Two data sources under the same name would make [find_source]
   silently pick one of them; reject the ambiguity at the boundary. *)
let check_unique_sources sources =
  let rec go seen = function
    | [] -> ()
    | s :: rest ->
        if List.mem s.source_name seen then
          invalid_arg
            (Printf.sprintf "Agent.run: duplicate data source name %S"
               s.source_name)
        else go (s.source_name :: seen) rest
  in
  go [] sources

(* Every module call goes through the retry engine (per-source circuit
   breaker, full-jitter backoff on a virtual clock), optionally under a
   fault injector. A module whose budget is exhausted loses its records
   but not the audit; the degradation record keeps the honest account. *)
let collect ?faults ?retry ?(rng = Prng.of_int 0xC011EC7) sources =
  let clock =
    match faults with Some f -> Fault.clock f | None -> Vclock.create ()
  in
  let policy = Option.value retry ~default:Retry.default in
  let retry_rng = Prng.split rng in
  Obs.with_span "collect" @@ fun () ->
  let db = Depdb.create () in
  let retries = ref 0 in
  let reports =
    List.map
      (fun source ->
        let name = source.source_name in
        let breaker = Retry.breaker ~clock name in
        let attempts = ref 0 in
        let modules_failed = ref 0 in
        let records = ref 0 in
        let last_error = ref "" in
        let obs = Obs.current () in
        let t0 = if Obs.enabled obs then Obs.now_ns obs else 0L in
        Obs.with_span "collect.source" ~attrs:[ ("source", name) ]
        @@ fun () ->
        List.iter
          (fun (m : Collectors.t) ->
            let m =
              match faults with
              | Some inj -> Fault.wrap_collector inj ~source:name m
              | None -> m
            in
            let outcome =
              Retry.call ~policy ~breaker ~clock ~rng:retry_rng
                ~label:(name ^ "/" ^ m.Collectors.name) (fun () ->
                  m.Collectors.collect ())
            in
            attempts := !attempts + outcome.Retry.attempts;
            retries := !retries + max 0 (outcome.Retry.attempts - 1);
            Obs.incr "agent.module_calls";
            Obs.incr ~by:(max 0 (outcome.Retry.attempts - 1)) "agent.retries";
            match outcome.Retry.result with
            | Ok rs ->
                records := !records + List.length rs;
                Obs.incr ~by:(List.length rs) "agent.records";
                Depdb.add_all db rs
            | Error e ->
                incr modules_failed;
                Obs.incr "agent.module_failures";
                last_error := e;
                Log.warn (fun f ->
                    f "source %s: module %s failed after %d attempt(s): %s"
                      name m.Collectors.name outcome.Retry.attempts e))
          source.modules;
        let records_lost =
          match faults with
          | Some inj -> Fault.records_dropped inj ~source:name
          | None -> 0
        in
        if Obs.enabled obs then begin
          Obs.incr ~by:(Retry.trips breaker) "agent.breaker_trips";
          Obs.incr ~by:records_lost "agent.records_lost";
          Obs.observe "agent.source_seconds"
            (Int64.to_float (Int64.sub (Obs.now_ns obs) t0) /. 1e9)
        end;
        let modules_total = List.length source.modules in
        let status =
          if modules_total > 0 && !modules_failed = modules_total then
            Degradation.Failed !last_error
          else if !modules_failed > 0 then
            Degradation.Degraded
              (Printf.sprintf "%d/%d module(s) failed: %s" !modules_failed
                 modules_total !last_error)
          else if records_lost > 0 then
            Degradation.Degraded
              (Printf.sprintf "%d record(s) dropped" records_lost)
          else Degradation.Ok
        in
        {
          Degradation.source = name;
          status;
          attempts = !attempts;
          modules_total;
          modules_failed = !modules_failed;
          records = !records;
          records_lost;
        })
      sources
  in
  (db, Degradation.make ~retries:!retries reports)

(* In PIA the agent never pools records: each provider derives its own
   normalized component set locally (§4.2.3). A provider's set is the
   union over all machines its records describe. *)
let component_set_of_db spec db =
  let db = filter_kinds spec db in
  Componentset.union_many
    (List.map
       (fun machine -> Componentset.of_depdb db ~machine)
       (Depdb.machines db))

let with_degradation degradation (report : Sia_audit.deployment_report) =
  if not (Degradation.degraded degradation) then report
  else
    let diag =
      Lint.degraded_collection
        ~completeness:degradation.Degradation.completeness
        ~failed_sources:(Degradation.failed_sources degradation)
    in
    { report with Sia_audit.diagnostics = diag :: report.Sia_audit.diagnostics }

let run ?(rng = Prng.of_int 0x1DAA5) ?rg_algorithm ?pia_protocol ?faults ?retry
    spec sources =
  check_unique_sources sources;
  let selected = List.map (find_source sources) spec.Spec.data_sources in
  match spec.Spec.metric with
  | Spec.Jaccard_similarity ->
      (* Each provider collects locally under the retry engine; a
         provider that never answers is excluded from the protocol and
         reported in the degradation record. *)
      let per_provider =
        List.map
          (fun s ->
            let db, deg = collect ?faults ?retry ~rng [ s ] in
            let report = List.hd deg.Degradation.sources in
            let provider =
              match report.Degradation.status with
              | Degradation.Failed _ -> None
              | _ ->
                  Some
                    {
                      Pia_audit.name = s.source_name;
                      Pia_audit.components = component_set_of_db spec db;
                    }
            in
            (provider, report, deg.Degradation.retries))
          selected
      in
      let providers = List.filter_map (fun (p, _, _) -> p) per_provider in
      let retries =
        List.fold_left (fun acc (_, _, r) -> acc + r) 0 per_provider
      in
      let degradation =
        Degradation.make ~retries
          (List.map (fun (_, report, _) -> report) per_provider)
      in
      if List.length providers < spec.Spec.redundancy then
        failwith
          (Printf.sprintf
             "Agent.run: only %d/%d providers responded — cannot audit %d-way \
              redundancy"
             (List.length providers) (List.length selected)
             spec.Spec.redundancy);
      let protocol =
        match pia_protocol with
        | Some p -> p
        | None -> Pia_audit.Psop { params = None }
      in
      Log.info (fun f ->
          f "running PIA across %d providers (redundancy %d)"
            (List.length providers) spec.Spec.redundancy);
      let report =
        Pia_audit.audit ~protocol ~rng ?faults ?retry ~way:spec.Spec.redundancy
          providers
      in
      {
        spec;
        outcome = Pia_outcome report;
        database = Depdb.create ();
        degradation;
      }
  | Spec.Size_ranking | Spec.Probability_ranking _ ->
      let db, degradation = collect ?faults ?retry ~rng selected in
      let db = filter_kinds spec db in
      let ranking, component_probability =
        match spec.Spec.metric with
        | Spec.Size_ranking -> (Sia_audit.Size_based, None)
        | Spec.Probability_ranking { component_probability } ->
            (Sia_audit.Probability_based, Some component_probability)
        | Spec.Jaccard_similarity -> assert false
      in
      let request =
        Sia_audit.request ~required:spec.Spec.required ?component_probability
          ?algorithm:rg_algorithm ~ranking []
      in
      (* A source that contributed no records cannot be audited (the
         graph builder has nothing to build from), so candidates that
         include one are skipped — the degradation record and IND-R001
         account for the gap. *)
      let candidates = Spec.candidate_deployments spec in
      let machines = Depdb.machines db in
      let viable =
        List.filter (List.for_all (fun s -> List.mem s machines)) candidates
      in
      let skipped = List.length candidates - List.length viable in
      if skipped > 0 then
        Log.warn (fun f ->
            f "skipping %d candidate deployment(s) with failed sources" skipped);
      Log.info (fun f ->
          f "running SIA over %d candidate deployments" (List.length viable));
      let reports =
        Sia_audit.audit_candidates ~rng db ~candidates:viable request
        |> List.map (with_degradation degradation)
      in
      {
        spec;
        outcome = Sia_outcome reports;
        database = db;
        degradation;
      }

let render run =
  let body =
    match run.outcome with
    | Sia_outcome reports -> Sia_report.render_comparison reports
    | Pia_outcome report -> Pia_audit.render report
  in
  if Degradation.degraded run.degradation then
    Degradation.render run.degradation ^ "\n\n" ^ body
  else body

let best_deployment run =
  match run.outcome with
  | Sia_outcome (best :: _) -> best.Sia_audit.servers
  | Sia_outcome [] -> invalid_arg "Agent.best_deployment: empty report"
  | Pia_outcome report -> (Pia_audit.best report).Pia_audit.providers
