(* The indaas command-line tool: structural and private independence
   audits from the shell.

     indaas lint  --db deps.xml --graph --format json
     indaas sia   --db deps.xml --servers S1,S2 [--strict] [--fault db=drop:0.3]
     indaas pia   --provider A=a.txt --provider B=b.txt
     indaas topo  --k 16
     indaas case  network|hardware|software
     indaas chaos --scenario sia-lab --plan crash-one --trials 10 --seed 42
     indaas dot   --db deps.xml --servers S1,S2 -o graph.dot
     indaas serve --seed 7 [--metrics] < requests.bin > responses.bin
     indaas client --submit db=deps.xml --audit --servers S1,S2 --shutdown
*)

module Depdb = Indaas_depdata.Depdb
module Collectors = Indaas_depdata.Collectors
module Agent = Indaas.Agent
module Chaos = Indaas.Chaos
module Fault = Indaas_resilience.Fault
module Degradation = Indaas_resilience.Degradation
module Sia_audit = Indaas_sia.Audit
module Params = Indaas_sia.Params
module Sia_report = Indaas_sia.Report
module Builder = Indaas_sia.Builder
module Pia_audit = Indaas_pia.Audit
module Fattree = Indaas_topology.Fattree
module Scenario = Indaas.Scenario
module Dot = Indaas_faultgraph.Dot
module Table = Indaas_util.Table
module Lint = Indaas_lint.Lint
module Lint_reporter = Indaas_lint.Reporter
module Diagnostic = Indaas_lint.Diagnostic
module Obs = Indaas_obs.Registry
module Obs_export = Indaas_obs.Export
module Vclock = Indaas_resilience.Vclock
module Server = Indaas_service.Server
module Client = Indaas_service.Client
module Transport = Indaas_service.Transport
module Frame = Indaas_service.Frame
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_db path =
  match Depdb.of_string (read_file path) with
  | db -> db
  | exception Failure msg ->
      Printf.eprintf "indaas: cannot parse %s: %s\n" path msg;
      exit 124

(* --- shared arguments ------------------------------------------------- *)

let db_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "db" ] ~docv:"FILE"
        ~doc:"Dependency database in the Table 1 wire format.")

let servers_arg =
  Arg.(
    required
    & opt (some (list string)) None
    & info [ "servers" ] ~docv:"S1,S2,..."
        ~doc:"Servers of the redundancy deployment to audit.")

let required_info =
  Arg.info [ "required" ] ~docv:"N"
    ~doc:"Replicas that must stay alive (n-of-m redundancy)."

let required_arg = Arg.(value & opt int Params.default.required & required_info)

let seed_arg =
  Arg.(
    value
    & opt int Params.default.seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* The audit-parameter flags, one per {!Params.field}: the audit they
   describe, each absent flag left at [Params.default], and the fields
   they state. [sia] and [compare] use the former; [client] sends only
   the stated fields, and the daemon fills the rest from the same
   defaults (the seed from its own --seed). *)
let audit_flags =
  let flag field set ?none c i =
    Term.(const (Option.map (fun v -> (field, fun p -> set p v)))
          $ Arg.(value & opt (some' ?none c) None & i))
  in
  let make a b c d e =
    let given = List.filter_map Fun.id [ a; b; c; d; e ] in
    ( List.fold_left (fun p (_, set) -> set p) Params.default given,
      List.map fst given )
  in
  let d = Params.default in
  Term.(
    const make
    $ flag Params.Required (fun p v -> { p with Params.required = v })
        ~none:d.required Arg.int required_info
    $ flag Params.Algorithm (fun p v -> { p with Params.algorithm = v })
        ~none:d.algorithm Arg.(enum Params.algorithms)
        (Arg.info [ "algorithm" ] ~docv:"ALG"
           ~doc:"Risk-group algorithm: $(b,minimal) (exact) or $(b,sampling).")
    $ flag Params.Rounds (fun p v -> { p with Params.rounds = v })
        ~none:d.rounds Arg.int
        (Arg.info [ "rounds" ] ~docv:"N"
           ~doc:"Sampling rounds (with --algorithm sampling).")
    $ flag Params.Prob (fun p v -> { p with Params.prob = Some v }) Arg.float
        (Arg.info [ "prob" ] ~docv:"P"
           ~doc:
             "Uniform component failure probability; enables \
              probability-based ranking.")
    $ flag Params.Seed (fun p v -> { p with Params.seed = v })
        ~none:d.seed Arg.int
        (Arg.info [ "seed" ] ~docv:"SEED"
           ~doc:"Audit PRNG seed ($(b,client) leaves the daemon's by default)."))

(* The audit specification shared by [sia] and [compare]. *)
let params_arg servers =
  Term.(const (fun servers (p, _) -> { p with Params.servers }) $ servers
        $ audit_flags)

(* --- observability ----------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans and metrics for this run and write them to $(docv) \
           in Chrome trace_event format (loadable in about:tracing or \
           Perfetto).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Record counters and histograms for this run and print them (plus \
           a span summary) after the report.")

(* Timestamps come from the real clock, or from a fault injector's
   virtual clock when one drives the run — then the whole trace is a
   function of the seed and two runs compare byte-identical. *)
let enable_obs ?injector ~trace ~metrics ~seed () =
  if metrics || trace <> None then begin
    let clock =
      match injector with
      | Some inj ->
          Obs.clock_of_seconds (fun () -> Vclock.now (Fault.clock inj))
      | None -> Obs.real_clock
    in
    Obs.enable ~clock ~seed (Obs.current ())
  end

(* Exporters run after the report (and before any non-zero exit) so a
   failing audit still leaves its trace behind. *)
let finish_obs ~trace ~metrics () =
  let reg = Obs.current () in
  (match trace with
  | Some path -> Obs_export.write_chrome_trace reg ~path
  | None -> ());
  if metrics then begin
    print_newline ();
    print_string (Obs_export.summary reg);
    print_string (Indaas_obs.Metrics.render (Obs.metrics reg))
  end

(* IND-O001: a report is about to be emitted with recording on, but no
   collector span was ever recorded — the trace is missing the
   collection phase. *)
let no_collector_spans ~disable () =
  Obs.on ()
  && (not (List.mem "IND-O001" disable))
  && Obs_export.span_count ~name:"collect" (Obs.current ()) = 0
  && Obs_export.span_count ~name:"collect.source" (Obs.current ()) = 0

(* --- indaas lint ------------------------------------------------------- *)

let disable_arg =
  Arg.(
    value
    & opt_all (list string) []
    & info [ "disable" ] ~docv:"CODE[,CODE...]"
        ~doc:"Suppress rules by error code, e.g. $(b,IND-D003). Repeatable.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Run the static linter over the database first and refuse to \
           proceed when it reports error-severity findings.")

(* --strict: lint the DB before auditing; errors refuse, warnings pass
   through on stderr so reports stay pipeable. *)
let enforce_strict ~strict ?(disable = []) db =
  if strict then begin
    let findings = Lint.lint_db ~disable db in
    if Lint.errors findings <> [] then begin
      prerr_endline (Lint_reporter.render findings);
      prerr_endline "refusing to audit: the dependency database has lint errors";
      exit 1
    end
    else if findings <> [] then
      Printf.eprintf "lint: %s\n" (Lint_reporter.summary findings)
  end

let lint_cmd =
  let run db graph servers required format disable rules =
    let disable = List.concat disable in
    if rules then begin
      let t = Table.create [ "code"; "severity"; "title" ] in
      List.iter
        (fun (code, severity, title) ->
          Table.add_row t [ code; Diagnostic.severity_to_string severity; title ])
        Lint.registry;
      Table.print t
    end
    else
      match db with
      | None ->
          prerr_endline "indaas lint: --db is required (or use --rules)";
          exit 124
      | Some path ->
          let db = load_db path in
          let base =
            [ Lint.Db db; Lint.Topology (Indaas_lint.Topo_rules.of_db db) ]
          in
          let findings =
            if not graph then Lint.run ~disable base
            else begin
              let servers =
                match servers with Some s -> s | None -> Depdb.machines db
              in
              match Builder.build db (Builder.spec ~required servers) with
              | g -> Lint.run ~disable (base @ [ Lint.Fault_graph g ])
              | exception Invalid_argument msg ->
                  let g007 =
                    if List.mem "IND-G007" disable then []
                    else [ Lint.construction_failure msg ]
                  in
                  List.sort_uniq Diagnostic.compare
                    (Lint.run ~disable base @ g007)
            end
          in
          (match format with
          | `Table -> print_endline (Lint_reporter.render findings)
          | `Json ->
              print_endline
                (Indaas_util.Json.to_string ~indent:true
                   (Lint_reporter.to_json findings)));
          exit (Lint_reporter.exit_code findings)
  in
  let db_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "db" ] ~docv:"FILE"
          ~doc:"Dependency database in the Table 1 wire format.")
  in
  let graph_arg =
    Arg.(
      value & flag
      & info [ "graph" ]
          ~doc:
            "Also build the deployment fault graph (over --servers, or every \
             machine in the database) and run the fault-graph rules on it.")
  in
  let servers_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "servers" ] ~docv:"S1,S2,..."
          ~doc:"Servers for the --graph deployment (default: all machines).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
      & info [ "format" ] ~docv:"FMT" ~doc:"$(b,table) or $(b,json).")
  in
  let rules_arg =
    Arg.(
      value & flag
      & info [ "rules" ] ~doc:"List every registered rule and exit.")
  in
  let term =
    Term.(
      const run $ db_arg $ graph_arg $ servers_arg $ required_arg $ format_arg
      $ disable_arg $ rules_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically check dependency data, fault graphs and topologies \
          without running an audit.")
    term

(* --- indaas sia -------------------------------------------------------- *)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")

let fault_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "fault" ] ~docv:"TARGET=SPEC"
        ~doc:
          "Inject a fault while collecting the database, e.g. \
           $(b,db=drop:0.3) or $(b,*=flaky:2). The database is served by a \
           data source named $(b,db); the audit degrades instead of failing \
           and the report carries the $(b,IND-R001) diagnostic. Repeatable.")

let parse_fault_entries specs =
  List.map
    (fun s ->
      match Fault.entry_of_string s with
      | entry -> entry
      | exception Failure msg ->
          Printf.eprintf "indaas: bad --fault %S: %s\n" s msg;
          exit 124)
    specs

let print_digest_arg =
  Arg.(
    value & flag
    & info [ "print-digest" ]
        ~doc:
          "Print the dependency database's canonical SHA-256 content \
           digest and exit without auditing. The same digest versions \
           snapshots and keys result caching in $(b,indaas serve).")

let sia_cmd =
  let run db (p : Params.t) json strict disable faults trace metrics
      print_digest =
    let disable = List.concat disable in
    if print_digest then begin
      print_endline (Depdb.digest (load_db db));
      exit 0
    end;
    (* Under --fault the database is re-collected through the fault
       injector and the retry engine, as if a flaky data source served
       it: the audit then runs over whatever records survived. *)
    let injector =
      match parse_fault_entries faults with
      | [] -> None
      | entries -> Some (Fault.injector ~seed:p.seed (Fault.plan entries))
    in
    enable_obs ?injector ~trace ~metrics ~seed:p.seed ();
    let report, degradation, degraded =
      Obs.with_span "sia.audit" @@ fun () ->
      let db, degradation, emptied =
        match injector with
        | None -> (Obs.with_span "collect" (fun () -> load_db db), None, None)
        | Some injector ->
            let raw = load_db db in
            let source =
              Agent.data_source ~name:"db"
                [ Collectors.static ~name:"records" (Depdb.records raw) ]
            in
            let db, deg =
              Agent.collect ~faults:injector
                ~rng:(Indaas_util.Prng.of_int p.seed)
                [ source ]
            in
            (* A deployment server whose every record the faults took
               cannot be audited at all. (One the database never had
               stays the usage error Builder.build reports.) *)
            let had = Depdb.machines raw and kept = Depdb.machines db in
            let emptied =
              List.find_opt
                (fun s -> List.mem s had && not (List.mem s kept))
                p.servers
            in
            (db, Some deg, emptied)
      in
      let degraded =
        match degradation with Some d -> Degradation.degraded d | None -> false
      in
      if degraded && strict then begin
        Option.iter (fun d -> prerr_endline (Degradation.render d)) degradation;
        prerr_endline "refusing to audit: dependency collection was degraded";
        exit 1
      end;
      (match (emptied, degradation) with
      | Some server, Some d ->
          if json then
            print_endline
              (Indaas_util.Json.to_string ~indent:true
                 (Indaas_util.Json.Obj
                    [ ("degradation", Degradation.to_json d) ]))
          else print_endline (Degradation.render d);
          Printf.eprintf
            "refusing to audit: collection left no dependency records for \
             server %S\n"
            server;
          exit 1
      | _ -> ());
      enforce_strict ~strict ~disable db;
      let report =
        Sia_audit.audit ~rng:(Indaas_util.Prng.of_int p.seed) db
          (Params.request p)
      in
      let report =
        match degradation with
        | Some d -> Agent.with_degradation d report
        | None -> report
      in
      let report =
        if no_collector_spans ~disable () then
          {
            report with
            Sia_audit.diagnostics =
              Lint.no_collector_spans :: report.Sia_audit.diagnostics;
          }
        else report
      in
      (report, degradation, degraded)
    in
    if json then begin
      let report_json = Sia_report.deployment_to_json report in
      let payload =
        match degradation with
        | None -> report_json
        | Some d ->
            Indaas_util.Json.Obj
              [
                ("degradation", Degradation.to_json d);
                ("report", report_json);
              ]
      in
      print_endline (Indaas_util.Json.to_string ~indent:true payload)
    end
    else begin
      if degraded then
        Option.iter
          (fun d ->
            print_endline (Degradation.render d);
            print_newline ())
          degradation;
      print_endline (Sia_report.render_deployment report)
    end;
    if report.Sia_audit.unexpected <> [] && not json then
      Printf.printf
        "\nWARNING: %d unexpected risk group(s) — redundancy is undermined.\n"
        (List.length report.Sia_audit.unexpected);
    finish_obs ~trace ~metrics ();
    if report.Sia_audit.unexpected <> [] then exit 2
  in
  let term =
    Term.(
      const run $ db_arg $ params_arg servers_arg $ json_arg $ strict_arg
      $ disable_arg $ fault_arg $ trace_arg $ metrics_arg $ print_digest_arg)
  in
  Cmd.v
    (Cmd.info "sia" ~doc:"Structural independence audit of one deployment.")
    term

(* --- indaas chaos ------------------------------------------------------- *)

let chaos_cmd =
  let run scenario plan trials seed json list trace metrics =
    if list then print_string (Chaos.list_text ())
    else begin
      (* The per-trial virtual clock is installed by the harness
         itself (each trial re-points the registry clock at its
         injector), so every recorded timestamp is a function of the
         seed and the trace compares byte-identical across runs. *)
      enable_obs ~trace ~metrics ~seed ();
      let summary = Chaos.run ~seed ~scenario ~plan ~trials () in
      if json then
        print_endline
          (Indaas_util.Json.to_string ~indent:true (Chaos.to_json summary))
      else print_string (Chaos.render summary);
      finish_obs ~trace ~metrics ()
    end
  in
  let scenario_arg =
    Arg.(
      value & opt string "sia-lab"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:"Scenario to stress (see $(b,--list)).")
  in
  let plan_arg =
    Arg.(
      value & opt string "none"
      & info [ "plan" ] ~docv:"NAME" ~doc:"Fault plan (see $(b,--list)).")
  in
  let trials_arg =
    Arg.(
      value & opt int 10
      & info [ "trials" ] ~docv:"N" ~doc:"Independent trials to run.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List known scenarios and fault plans, then exit.")
  in
  let term =
    Term.(
      const run $ scenario_arg $ plan_arg $ trials_arg $ seed_arg $ json_arg
      $ list_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Stress the audit pipeline: repeated audits under a deterministic \
          fault plan, reporting degradation statistics.")
    term

(* --- indaas compare ------------------------------------------------------ *)

let compare_cmd =
  let run db candidates (p : Params.t) json trace metrics =
    enable_obs ~trace ~metrics ~seed:p.seed ();
    let reports =
      Obs.with_span "sia.compare" @@ fun () ->
      let db = Obs.with_span "collect" (fun () -> load_db db) in
      let candidates = List.map (String.split_on_char ',') candidates in
      Sia_audit.audit_candidates ~rng:(Indaas_util.Prng.of_int p.seed) db
        ~candidates (Params.request p)
    in
    if json then
      print_endline
        (Indaas_util.Json.to_string ~indent:true
           (Sia_report.comparison_to_json reports))
    else print_endline (Sia_report.render_comparison reports);
    finish_obs ~trace ~metrics ()
  in
  let candidates_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"DEPLOYMENT"
          ~doc:"Candidate deployments, each a comma-separated server list.")
  in
  let term =
    Term.(
      const run $ db_arg $ candidates_arg
      $ params_arg (Term.const [])
      $ json_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Rank candidate deployments by independence.")
    term

(* --- indaas pia ----------------------------------------------------------- *)

let pia_cmd =
  let run providers way protocol minhash_m key_bits nofm json seed disable
      trace metrics =
    let disable = List.concat disable in
    (* Protocol parameters are checked whichever --protocol runs, before
       any provider file is read, with the protocols' own messages. *)
    if minhash_m < 1 then invalid_arg "Minhash.signature: m must be positive";
    if key_bits < 16 then invalid_arg "Paillier.generate: modulus too small";
    enable_obs ~trace ~metrics ~seed ();
    let rng = Indaas_util.Prng.of_int seed in
    let providers =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | None ->
              Printf.eprintf "indaas: --provider expects NAME=FILE, got %S\n"
                spec;
              exit 124
          | Some i ->
              let name = String.sub spec 0 i in
              let path = String.sub spec (i + 1) (String.length spec - i - 1) in
              let components =
                read_file path |> String.split_on_char '\n'
                |> List.map String.trim
                |> List.filter (fun l -> l <> "")
              in
              Pia_audit.provider ~name components)
        providers
    in
    let protocol =
      match protocol with
      | `Psop -> Pia_audit.Psop { params = None }
      | `Minhash -> Pia_audit.Psop_minhash { params = None; m = minhash_m }
      | `Ks -> Pia_audit.Ks { key_bits }
      | `Bloom -> Pia_audit.Bloom { bits = 4096; hashes = 4; flip = 0. }
      | `Clear -> Pia_audit.Cleartext
    in
    (match nofm with
    | None ->
        let report =
          Obs.with_span "pia.audit" @@ fun () ->
          Pia_audit.audit ~protocol ~rng ~way providers
        in
        if json then
          print_endline
            (Indaas_util.Json.to_string ~indent:true (Pia_audit.to_json report))
        else print_endline (Pia_audit.render report)
    | Some n ->
        let results =
          Obs.with_span "pia.audit" @@ fun () ->
          Pia_audit.audit_nofm ~protocol ~rng ~n ~m:way providers
        in
        print_endline (Pia_audit.render_nofm ~n results));
    (* Provider sets come from files here, not from instrumented
       collectors — surface that on the emitted report as IND-O001. *)
    if no_collector_spans ~disable () then
      prerr_endline (Lint_reporter.render [ Lint.no_collector_spans ]);
    finish_obs ~trace ~metrics ()
  in
  let providers_arg =
    Arg.(
      non_empty
      & opt_all string []
      & info [ "provider" ] ~docv:"NAME=FILE"
          ~doc:
            "A cloud provider and its component list (one component per \
             line). Repeatable.")
  in
  let way_arg =
    Arg.(value & opt int 2 & info [ "way" ] ~docv:"N" ~doc:"Redundancy degree.")
  in
  let protocol_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("psop", `Psop); ("minhash", `Minhash); ("ks", `Ks);
               ("bloom", `Bloom); ("clear", `Clear) ])
          `Psop
      & info [ "protocol" ] ~docv:"PROTO"
          ~doc:"$(b,psop), $(b,minhash), $(b,ks), $(b,bloom) or $(b,clear).")
  in
  let m_arg =
    Arg.(value & opt int 256 & info [ "minhash-m" ] ~docv:"M" ~doc:"MinHash functions.")
  in
  let bits_arg =
    Arg.(value & opt int 256 & info [ "key-bits" ] ~docv:"BITS" ~doc:"KS Paillier modulus size.")
  in
  let nofm_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "nofm" ] ~docv:"N"
          ~doc:"Audit n-of-m deployments: require $(docv) live providers out \
                of each --way-sized group (section 4.2.5).")
  in
  let term =
    Term.(
      const run $ providers_arg $ way_arg $ protocol_arg $ m_arg $ bits_arg
      $ nofm_arg $ json_arg $ seed_arg $ disable_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "pia"
       ~doc:"Private independence audit across mutually distrustful providers.")
    term

(* --- indaas topo ------------------------------------------------------------ *)

let topo_cmd =
  let run k =
    let t = Fattree.create ~k in
    let table =
      Table.create
        ~aligns:[ Table.Left; Table.Right ]
        [ "parameter"; "value" ]
    in
    List.iter2
      (fun name v -> Table.add_row table [ name; v ])
      [ "# switch ports"; "# core routers"; "# agg switches"; "# ToR switches";
        "# servers"; "Total # devices" ]
      (Fattree.table3_row t);
    Table.print table
  in
  let k_arg =
    Arg.(value & opt int 16 & info [ "k"; "ports" ] ~docv:"K" ~doc:"Fat-tree port count (even).")
  in
  Cmd.v
    (Cmd.info "topo" ~doc:"Generate a fat-tree topology and print its Table 3 row.")
    Term.(const run $ k_arg)

(* --- indaas case -------------------------------------------------------------- *)

let case_cmd =
  let run which =
    match which with
    | `Network ->
        let c = Scenario.run_network_case () in
        Printf.printf
          "deployments=%d clean=%d random-success=%.0f%% best={Rack %s} Pr=%s\n"
          c.Scenario.total_deployments c.Scenario.clean_deployments
          (100. *. c.Scenario.random_success_probability)
          (String.concat ", Rack " (List.map string_of_int c.Scenario.best_pair_racks))
          (match c.Scenario.lowest_failure_probability with
          | Some p -> Printf.sprintf "%.4f" p
          | None -> "-")
    | `Hardware ->
        let c = Scenario.run_hardware_case () in
        Printf.printf "co-located=%b recommended={%s} fixed=%b\ntop4:\n"
          c.Scenario.co_located
          (String.concat ", " c.Scenario.recommended_servers)
          c.Scenario.fixed;
        List.iteri
          (fun i names ->
            Printf.printf "  %d. {%s}\n" (i + 1) (String.concat ", " names))
          c.Scenario.top4
    | `Software ->
        let c = Scenario.run_software_case () in
        print_string (Pia_audit.render c.Scenario.two_way);
        print_newline ();
        print_string (Pia_audit.render c.Scenario.three_way);
        print_newline ()
  in
  let which_arg =
    Arg.(
      required
      & pos 0
          (some (enum [ ("network", `Network); ("hardware", `Hardware); ("software", `Software) ]))
          None
      & info [] ~docv:"CASE" ~doc:"$(b,network), $(b,hardware) or $(b,software).")
  in
  Cmd.v
    (Cmd.info "case" ~doc:"Run one of the paper's three case studies (§6.2).")
    Term.(const run $ which_arg)

(* --- indaas dot ----------------------------------------------------------------- *)

let dot_cmd =
  let run db servers required output strict disable highlight_rg =
    let db = load_db db in
    enforce_strict ~strict ~disable:(List.concat disable) db;
    let request = Params.request { Params.default with servers; required } in
    let graph = Builder.build db request.Sia_audit.spec in
    let highlight =
      match highlight_rg with
      | None -> None
      | Some rank ->
          if rank < 1 then begin
            prerr_endline "indaas dot: --highlight-rg ranks start at 1";
            exit 124
          end;
          let rgs = Sia_audit.risk_groups request.Sia_audit.algorithm graph in
          if rank > List.length rgs then begin
            Printf.eprintf
              "indaas dot: --highlight-rg %d, but the deployment has only %d \
               minimal risk group(s)\n"
              rank (List.length rgs);
            exit 124
          end;
          Some (List.nth rgs (rank - 1))
    in
    match output with
    | None -> print_string (Dot.to_dot ?highlight graph)
    | Some path ->
        Dot.write_file ?highlight path graph;
        Printf.printf "wrote %s\n" path
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  let highlight_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "highlight-rg" ] ~docv:"RANK"
          ~doc:
            "Highlight the $(docv)-th minimal risk group (1 = smallest, in \
             canonical family order): the exact minimal family that \
             $(b,indaas sia) ranks.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export a deployment's fault graph in Graphviz format.")
    Term.(
      const run $ db_arg $ servers_arg $ required_arg $ output_arg $ strict_arg
      $ disable_arg $ highlight_arg)

(* --- indaas importance ------------------------------------------------------------ *)

let importance_cmd =
  let run db servers required prob =
    let db = load_db db in
    let spec =
      Builder.spec ~required
        ~component_probability:(Builder.uniform_probability prob) servers
    in
    let graph = Builder.build db spec in
    let rgs = Sia_audit.risk_groups Sia_audit.auto_rg graph in
    Printf.printf "Pr(deployment fails) = %.6g (exact, BDD)\n\n"
      (Indaas_faultgraph.Bdd.graph_probability graph);
    print_endline
      (Indaas_faultgraph.Importance.render
         (Indaas_faultgraph.Importance.rank_components graph ~rgs))
  in
  let prob_arg =
    Arg.(
      value & opt float 0.1
      & info [ "prob" ] ~docv:"P" ~doc:"Uniform component failure probability.")
  in
  Cmd.v
    (Cmd.info "importance"
       ~doc:
         "Rank a deployment's components by Birnbaum and Fussell-Vesely \
          importance.")
    Term.(const run $ db_arg $ servers_arg $ required_arg $ prob_arg)

(* --- indaas gen ------------------------------------------------------------------ *)

let gen_cmd =
  let run k servers output =
    let t = Fattree.create ~k in
    let servers =
      match servers with
      | Some list -> list
      | None -> [ 0; Fattree.server_count t - 1 ]
    in
    let db = Depdb.create () in
    List.iter
      (fun s -> Depdb.add_all db (Fattree.network_records t ~server:s))
      servers;
    let text = Depdb.to_string db in
    (match output with
    | None -> print_endline text
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc text;
            output_char oc '\n');
        Printf.printf "wrote %d records for %d server(s) to %s\n" (Depdb.size db)
          (List.length servers) path);
    ()
  in
  let k_arg =
    Arg.(value & opt int 8 & info [ "k"; "ports" ] ~docv:"K" ~doc:"Fat-tree port count.")
  in
  let servers_arg =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "servers" ] ~docv:"I,J,..."
          ~doc:"Server indices to emit records for (default: first and last).")
  in
  let output_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Generate a Table 1 dependency database from a fat-tree topology.")
    Term.(const run $ k_arg $ servers_arg $ output_arg)

(* --- indaas coverage --------------------------------------------------------------- *)

let coverage_cmd =
  let run db servers required bias checkpoints seed =
    let db = load_db db in
    let graph = Builder.build db (Builder.spec ~required servers) in
    let rng = Indaas_util.Prng.of_int seed in
    let rgs = Sia_audit.risk_groups Sia_audit.auto_rg graph in
    Printf.printf "%d minimal risk groups (exact)\n" (List.length rgs);
    let points =
      Indaas_faultgraph.Sampling.coverage ~failure_bias:bias rng graph
        ~targets:rgs ~checkpoints
    in
    let t =
      Table.create
        ~aligns:[ Table.Right; Table.Right; Table.Right ]
        [ "rounds"; "time"; "% detected" ]
    in
    List.iter
      (fun (p : Indaas_faultgraph.Sampling.coverage_point) ->
        Table.add_row t
          [
            string_of_int p.Indaas_faultgraph.Sampling.rounds;
            Indaas_util.Timing.format_seconds p.Indaas_faultgraph.Sampling.seconds;
            Printf.sprintf "%.1f%%"
              (100. *. p.Indaas_faultgraph.Sampling.fraction);
          ])
      points;
    Table.print t
  in
  let bias_arg =
    Arg.(value & opt float 0.8 & info [ "bias" ] ~docv:"P" ~doc:"Failure bias per round.")
  in
  let checkpoints_arg =
    Arg.(
      value
      & opt (list int) [ 1000; 10_000; 100_000 ]
      & info [ "checkpoints" ] ~docv:"N,N,..." ~doc:"Round checkpoints.")
  in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Figure 7-style sampling coverage analysis of one deployment.")
    Term.(const run $ db_arg $ servers_arg $ required_arg $ bias_arg
          $ checkpoints_arg $ seed_arg)

(* --- indaas serve / indaas client -------------------------------------- *)

let serve_cmd =
  let run seed max_queue deadline cache_capacity trace metrics =
    let usage_unless ok msg =
      if not ok then begin
        prerr_endline ("indaas serve: " ^ msg);
        exit 124
      end
    in
    usage_unless (max_queue >= 1) "--max-queue must be at least 1";
    usage_unless (cache_capacity >= 1) "--cache-capacity must be at least 1";
    usage_unless
      (Option.fold ~none:true ~some:(fun d -> d >= 0.) deadline)
      "--deadline must be non-negative";
    let config =
      {
        Server.seed;
        max_queue;
        default_deadline = deadline;
        cache_capacity;
      }
    in
    let srv = Server.create ~config () in
    (* Timestamps come from the scheduler's virtual clock, so traces
       and metrics are a function of (request stream, seed) — two runs
       over the same input compare byte-identical — except queue waits,
       which follow how the input splits into reads. *)
    if metrics || trace <> None then begin
      let clock =
        Obs.clock_of_seconds (fun () -> Vclock.now (Server.clock srv))
      in
      Obs.enable ~clock ~seed (Obs.current ())
    end;
    set_binary_mode_in stdin true;
    set_binary_mode_out stdout true;
    Server.serve srv (Transport.of_channels stdin stdout);
    let reg = Obs.current () in
    (match trace with
    | Some path -> Obs_export.write_chrome_trace reg ~path
    | None -> ());
    (* Frames own stdout; the observability summary goes to stderr. *)
    if metrics then begin
      prerr_string (Obs_export.summary reg);
      prerr_string (Indaas_obs.Metrics.render (Obs.metrics reg))
    end
  in
  let max_queue_arg =
    Arg.(
      value & opt int 64
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Admission-control bound: a request that arrives while \
             $(docv) admitted ones still wait to run is shed with an \
             $(b,overloaded) error, answered in its turn.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:
            "Default queue-wait deadline in virtual seconds; requests that \
             waited longer are shed with a $(b,deadline-exceeded) error. \
             Per-request $(b,deadline) parameters override it.")
  in
  let cache_capacity_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache entries to keep (LRU beyond $(docv)).")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Record counters and histograms for this run and print them \
             (plus a span summary) to stderr after serving.")
  in
  let term =
    Term.(
      const run $ seed_arg $ max_queue_arg $ deadline_arg
      $ cache_capacity_arg $ trace_arg $ metrics_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Audit daemon: answer protocol-v1 request frames from stdin on \
          stdout as they arrive, until end of input or a $(b,shutdown) \
          request, with snapshot storage, request scheduling and result \
          caching.")
    term

let client_cmd =
  let read_all ic =
    let chunk = 65536 in
    let bytes = Bytes.create chunk in
    let buf = Buffer.create chunk in
    let rec loop () =
      let n = input ic bytes 0 chunk in
      if n > 0 then begin
        Buffer.add_subbytes buf bytes 0 n;
        loop ()
      end
    in
    loop ();
    Buffer.contents buf
  in
  let run decode only snapshot submits audit_flag rg_query_flag compares
      servers (params, stated) deadline repeat stats_flag shutdown_flag =
    if decode then begin
      set_binary_mode_in stdin true;
      let responses =
        match Client.decode_responses (read_all stdin) with
        | responses -> responses
        | exception (Frame.Protocol_error msg | Frame.Bad_frame msg) ->
            Printf.eprintf "indaas client: corrupt response stream: %s\n" msg;
            exit 1
        | exception Failure msg ->
            Printf.eprintf "indaas client: %s\n" msg;
            exit 1
      in
      let failures = ref 0 in
      List.iter
        (fun (r : Frame.response) ->
          let wanted =
            match only with None -> true | Some id -> id = r.Frame.id
          in
          if wanted then
            match r.Frame.result with
            | Ok payload ->
                print_endline (Indaas_util.Json.to_string ~indent:true payload)
            | Error e ->
                incr failures;
                Printf.eprintf "indaas client: response %d: %s: %s\n"
                  r.Frame.id e.Frame.code e.Frame.message)
        responses;
      if !failures > 0 then exit 1
    end
    else begin
      if not (Option.fold ~none:true ~some:(fun d -> d >= 0.) deadline) then begin
        prerr_endline "indaas client: --deadline must be non-negative";
        exit 124
      end;
      let next_id = ref 0 in
      let id () =
        incr next_id;
        !next_id
      in
      let out = Buffer.create 1024 in
      let emit req = Buffer.add_string out (Frame.encode_request req) in
      List.iter
        (fun spec ->
          match String.index_opt spec '=' with
          | None ->
              Printf.eprintf "--submit expects SOURCE=FILE, got %S\n" spec;
              exit 124
          | Some i ->
              let source = String.sub spec 0 i in
              let path =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              emit
                (Client.submit_deps ~id:(id ()) ?snapshot ~source
                   ~records:(read_file path) ()))
        submits;
      let query_servers flag =
        match servers with
        | Some s -> s
        | None ->
            Printf.eprintf "indaas client: %s requires --servers\n" flag;
            exit 124
      in
      if audit_flag then begin
        let servers = query_servers "--audit" in
        for _ = 1 to repeat do
          emit
            (Client.audit ~id:(id ()) ?snapshot ~stated ?deadline
               { params with servers })
        done
      end;
      if rg_query_flag then begin
        let servers = query_servers "--rg-query" in
        for _ = 1 to repeat do
          emit
            (Client.rg_query ~id:(id ()) ?snapshot ~stated ?deadline
               { params with servers })
        done
      end;
      if compares <> [] then begin
        let candidates = List.map (String.split_on_char ',') compares in
        for _ = 1 to repeat do
          emit
            (Client.compare_deployments ~id:(id ()) ?snapshot ~stated
               ?deadline ~candidates params)
        done
      end;
      if stats_flag then emit (Client.stats ~id:(id ()));
      if shutdown_flag then emit (Client.shutdown ~id:(id ()));
      if !next_id = 0 then begin
        prerr_endline
          "indaas client: nothing to send — use --submit, --audit, \
           --rg-query, --compare, --stats or --shutdown (or --decode to read \
           responses)";
        exit 124
      end;
      set_binary_mode_out stdout true;
      print_string (Buffer.contents out)
    end
  in
  let decode_arg =
    Arg.(
      value & flag
      & info [ "decode" ]
          ~doc:
            "Decode a response-frame stream from stdin instead of encoding \
             requests: print each $(b,ok) payload as indented JSON on \
             stdout; report $(b,error) responses on stderr and exit 1.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "only" ] ~docv:"ID"
          ~doc:"With --decode, print only the response with this request id.")
  in
  let snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"NAME"
          ~doc:"Snapshot to submit to / audit (server default: $(b,default)).")
  in
  let submit_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "submit" ] ~docv:"SOURCE=FILE"
          ~doc:
            "Emit a $(b,submit-deps) request replacing $(i,SOURCE)'s records \
             with $(i,FILE)'s Table 1 wire text. Repeatable; submissions \
             are emitted first, in command-line order.")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:"Emit an $(b,audit) request over --servers.")
  in
  let rg_query_arg =
    Arg.(
      value & flag
      & info [ "rg-query" ]
          ~doc:"Emit an $(b,rg-query) request over --servers.")
  in
  let compare_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "compare" ] ~docv:"S1,S2,..."
          ~doc:
            "Emit a $(b,compare) request; each occurrence is one candidate \
             deployment (comma-separated server list). Repeatable.")
  in
  let servers_arg =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "servers" ] ~docv:"S1,S2,..."
          ~doc:"Servers of the deployment for --audit / --rg-query.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Per-request queue-wait deadline in virtual seconds.")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Emit each --audit / --rg-query / --compare request $(docv) \
             times (distinct ids — exercises the result cache).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Emit a $(b,stats) request after the queries.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Emit a final $(b,shutdown) request.")
  in
  let term =
    Term.(
      const run $ decode_arg $ only_arg $ snapshot_arg $ submit_arg
      $ audit_arg $ rg_query_arg $ compare_arg $ servers_arg $ audit_flags
      $ deadline_arg $ repeat_arg $ stats_arg $ shutdown_arg)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Encode protocol-v1 request frames for $(b,indaas serve) (or decode \
          its response frames with --decode). Audit flags left out are left \
          off the wire; the daemon's defaults equal $(b,indaas sia)'s.")
    term

let () =
  (* INDAAS_LOG=debug|info enables protocol/agent logging on stderr. *)
  (match Sys.getenv_opt "INDAAS_LOG" with
  | Some level ->
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level
        (match level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | _ -> Some Logs.Warning)
  | None -> ());
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "indaas" ~version:"1.0.0"
      ~doc:"Independence-as-a-Service: audit redundancy deployments proactively."
  in
  let cmd =
    Cmd.group ~default info
      [ lint_cmd; sia_cmd; compare_cmd; pia_cmd; topo_cmd; case_cmd;
        chaos_cmd; dot_cmd; gen_cmd; coverage_cmd; importance_cmd;
        serve_cmd; client_cmd ]
  in
  (* The one error boundary: input the libraries reject (an unknown
     server, an out-of-range parameter, an unreadable file) is a usage
     error, as the daemon answers it with bad-request; anything else
     is a bug and keeps cmdliner's internal-error exit. *)
  exit
    (match Cmd.eval ~catch:false cmd with
    | code -> code
    | exception (Invalid_argument msg | Sys_error msg) ->
        prerr_endline ("indaas: " ^ msg);
        Cmd.Exit.cli_error
    | exception e ->
        prerr_endline
          ("indaas: internal error, uncaught exception:\n  "
          ^ Printexc.to_string e);
        Cmd.Exit.internal_error)
