(* The traced replay: the request sequence the server answered is replayed
   by calling each layer's public functions in the order [Server] calls
   them, with a benchmark-owned span around every call. The registry is
   never installed as current, so the libraries' own spans stay off.

   Each request is one root span. Probes — extra calls on the same inputs
   that split a layer further — are roots of their own, recorded after
   the request span closes, so they never count towards it. *)

module Registry = Indaas_obs.Registry
module Span = Indaas_obs.Span
module Frame = Indaas_service.Frame
module Snapshot = Indaas_service.Snapshot
module Cache = Indaas_service.Cache
module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Builder = Indaas_sia.Builder
module Rank = Indaas_sia.Rank
module Sia_audit = Indaas_sia.Audit
module Report = Indaas_sia.Report
module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Lint = Indaas_lint.Lint
module Diagnostic = Indaas_lint.Diagnostic
module Json = Indaas_util.Json
module SM = Corpus.SM

let snapshot = "default"

(* Counts taken where the work happens; means are per call of the layer
   that did it. *)
type counts = {
  mutable bytes_out : int;
  mutable builds : int;
  mutable nodes : int;
  mutable minimizes : int;
  mutable rgs : int;
  mutable bdd_fallbacks : int;
  mutable lints : int;
  mutable findings : int;
  mutable mismatches : int;
}

type state = {
  reg : Registry.t;
  store : Snapshot.store;
  cache : Cache.t;
  mutable sources : Dependency.t list SM.t;
  counts : counts;
}

let span st name ?(attrs = []) f = Registry.with_span_in st.reg ~attrs name f

let str name params =
  match Json.member name params with Some (Json.String s) -> s | _ -> ""

let servers_of params =
  match Json.member "servers" params with
  | Some (Json.List l) -> List.map (function Json.String s -> s | _ -> "") l
  | _ -> []

let required_of params =
  match Json.member "required" params with Some (Json.Int r) -> r | _ -> 1

let probe_depdb st sources =
  let db =
    span st "depdb.union"
      ~attrs:[ ("records", string_of_int (Corpus.record_count sources)) ]
      (fun () -> Corpus.depdb_of sources)
  in
  ignore (span st "depdb.digest" (fun () -> Depdb.digest db))

let shape graph spec =
  [
    ("nodes", string_of_int (Graph.node_count graph));
    ("basics", string_of_int (Array.length (Graph.basic_ids graph)));
    ("servers", string_of_int (List.length spec.Builder.servers));
    ("required", string_of_int spec.Builder.required);
  ]

(* Both exact engines on the graph the audit just built. *)
let probe_engines st graph spec =
  let attrs = shape graph spec in
  ignore
    (span st "probe.enum" ~attrs (fun () ->
         try Some (Cutset.minimal_risk_groups graph)
         with Cutset.Too_many_cut_sets _ -> None));
  ignore (span st "probe.bdd" ~attrs (fun () -> Bdd.minimal_risk_groups graph))

let submit st params probes =
  let source = str "source" params in
  let records =
    span st "dependency.parse" (fun () -> Dependency.of_xml_many (str "records" params))
  in
  let before = st.sources in
  let old = span st "snapshot.get" (fun () -> Snapshot.get st.store ~snapshot) in
  let view =
    span st "snapshot.submit" (fun () ->
        Snapshot.submit st.store ~snapshot ~source records)
  in
  st.sources <- SM.add source records st.sources;
  let after = st.sources in
  if Option.is_some old then probes := (fun () -> probe_depdb st before) :: !probes;
  probes := (fun () -> probe_depdb st after) :: !probes;
  let invalidated =
    match old with
    | Some o when o.Snapshot.digest <> view.Snapshot.digest ->
        span st "cache.invalidate" (fun () ->
            Cache.invalidate_snapshot st.cache ~digest:o.Snapshot.digest)
    | _ -> 0
  in
  Json.Obj
    [
      ("snapshot", Json.String view.Snapshot.name);
      ("version", Json.Int view.Snapshot.version);
      ("digest", Json.String view.Snapshot.digest);
      ("records", Json.Int (Depdb.size view.Snapshot.db));
      ( "sources",
        Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) view.Snapshot.sources) );
      ("invalidated", Json.Int invalidated);
    ]

(* The batch audit, one layer per span, assembled into the same report
   [Sia_audit.audit] returns for the auto engine and size ranking. *)
let compute st (view : Snapshot.view) spec probes =
  let c = st.counts in
  let graph = span st "builder.build" (fun () -> Builder.build view.Snapshot.db spec) in
  c.builds <- c.builds + 1;
  c.nodes <- c.nodes + Graph.node_count graph;
  probes := (fun () -> probe_engines st graph spec) :: !probes;
  let rgs =
    span st "minimize" (fun () ->
        try Cutset.minimal_risk_groups graph
        with Cutset.Too_many_cut_sets _ ->
          c.bdd_fallbacks <- c.bdd_fallbacks + 1;
          Bdd.minimal_risk_groups graph)
  in
  c.minimizes <- c.minimizes + 1;
  c.rgs <- c.rgs + List.length rgs;
  let expected_rg_size = Builder.expected_rg_size spec in
  let ranked, score, unexpected =
    span st "rank" (fun () ->
        let ranked = Rank.size_based graph rgs in
        ( ranked,
          Rank.independence_score_size ranked,
          Rank.unexpected ~expected_size:expected_rg_size ranked ))
  in
  let diagnostics =
    span st "lint" (fun () ->
        Lint.run [ Lint.Fault_graph graph ]
        |> List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Hint))
  in
  c.lints <- c.lints + 1;
  c.findings <- c.findings + List.length diagnostics;
  span st "report.json" (fun () ->
      Report.deployment_to_json
        {
          Sia_audit.servers = spec.Builder.servers;
          graph;
          ranked;
          unexpected;
          independence_score = score;
          failure_probability = None;
          expected_rg_size;
          diagnostics;
        })

let audit st params probes =
  let view =
    match span st "snapshot.get" (fun () -> Snapshot.get st.store ~snapshot) with
    | Some v -> v
    | None -> failwith "replay: audit before any submission"
  in
  let sources = st.sources in
  probes := (fun () -> probe_depdb st sources) :: !probes;
  (* The server keys on a digest of the normalized parameters; any
     canonical form of them keys the same entries. *)
  let key =
    {
      Cache.snapshot_digest = view.Snapshot.digest;
      spec_digest = Json.to_string params;
      engine = "auto";
      budget = None;
    }
  in
  match span st "cache.find" (fun () -> Cache.find st.cache key) with
  | Some json -> json
  | None ->
      let spec =
        Builder.spec ~required:(required_of params) (servers_of params)
      in
      let json = compute st view spec probes in
      span st "cache.add" (fun () -> Cache.add st.cache key json);
      json

let request st ~workload (ex : Measure.exchange) =
  let probes = ref [] in
  let bytes =
    span st "request"
      ~attrs:
        [ ("workload", workload); ("id", string_of_int ex.Measure.id);
          ("phase", Corpus.phase_name ex.Measure.phase) ]
      (fun () ->
        let req =
          span st "frame.decode" (fun () ->
              let d = Frame.decoder () in
              Frame.feed d ex.Measure.frame;
              match Frame.next d with
              | Some json -> Frame.request_of_json json
              | None -> failwith "replay: truncated request frame")
        in
        let payload =
          match req.Frame.meth with
          | "submit-deps" -> submit st req.Frame.params probes
          | "audit" -> audit st req.Frame.params probes
          | m -> failwith ("replay: unexpected method " ^ m)
        in
        span st "frame.encode" (fun () ->
            Frame.encode_response { Frame.id = req.Frame.id; result = Ok payload }))
  in
  List.iter (fun probe -> probe ()) (List.rev !probes);
  st.counts.bytes_out <- st.counts.bytes_out + String.length bytes;
  if not (String.equal bytes ex.Measure.served) then
    st.counts.mismatches <- st.counts.mismatches + 1

let gc_every = 32

type result = { reg : Registry.t; counts : counts; cache : Cache.stats; records : int }

let run ~workload exchanges =
  let reg = Registry.create ~clock:Monotonic_clock.now () in
  Registry.enable ~clock:Monotonic_clock.now reg;
  let st =
    {
      reg;
      store = Snapshot.create ();
      cache = Cache.create ~capacity:Indaas_service.Server.default_config.cache_capacity ();
      sources = SM.empty;
      counts =
        {
          bytes_out = 0; builds = 0; nodes = 0; minimizes = 0; rgs = 0;
          bdd_fallbacks = 0; lints = 0; findings = 0; mismatches = 0;
        };
    }
  in
  (* The GC paces itself on large allocations (3-way responses, digest
     text) far behind the live set; collecting between requests keeps the
     replay's heap near what it retains. *)
  List.iteri
    (fun i ex ->
      if i mod gc_every = 0 then Gc.full_major ();
      request st ~workload ex)
    exchanges;
  let records =
    match Snapshot.get st.store ~snapshot with
    | Some v -> Depdb.size v.Snapshot.db
    | None -> 0
  in
  { reg; counts = st.counts; cache = Cache.stats st.cache; records }
