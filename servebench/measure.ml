(* Measured runs: every request is a v1 frame written to a loopback
   transport and answered by [Server.serve] on one long-lived server, in a
   closed loop with one client. Latency runs from the first request byte
   written to the last response byte read; encoding the request and
   checking the response happen outside that window. Each latency is also
   kept scaled to reference seconds (see [Calib]); the run's budget and
   every reported end-to-end timing use the scaled values. *)

module Server = Indaas_service.Server
module Transport = Indaas_service.Transport
module Frame = Indaas_service.Frame
module Client = Indaas_service.Client
module Scheduler = Indaas_service.Scheduler
module Depdb = Indaas_depdata.Depdb
module Sia_audit = Indaas_sia.Audit
module Report = Indaas_sia.Report
module Prng = Indaas_util.Prng
module Json = Indaas_util.Json
module SM = Corpus.SM

let now = Monotonic_clock.now
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

(* Set-ups per run; [setup_s] is their median. *)
let setup_reps = 24

(* The server's heap is read after this many measured requests: a fixed
   point every commit reaches, below the result cache's 1024 entries, so
   the figure does not follow throughput. *)
let heap_after = 128

let server_heap_mb srv =
  float_of_int (Obj.reachable_words (Obj.repr srv) * (Sys.word_size / 8)) /. 1048576.

let chunk = Bytes.create 65536

(* One serving session: [serve] is one-shot and answers after end of
   stream, so each request gets its own. *)
let exchange srv frame =
  let client, server_end = Transport.loopback () in
  let out = Buffer.create 65536 in
  let t0 = now () in
  client.Transport.write frame;
  client.Transport.close ();
  Server.serve srv server_end;
  let rec drain () =
    let n = client.Transport.read chunk 0 (Bytes.length chunk) in
    if n > 0 then (
      Buffer.add_subbytes out chunk 0 n;
      drain ())
  in
  drain ();
  let t1 = now () in
  (Buffer.contents out, seconds_between t0 t1)

(* --- references --------------------------------------------------------- *)

(* The batch path on a DepDB the benchmark builds itself. Audits memoize
   their payload per DepDB only where deployments repeat. *)
type reference = {
  mutable sources : Indaas_depdata.Dependency.t list SM.t;
  mutable db : Depdb.t;
  memo : (string list * int, Json.t) Hashtbl.t option;
}

let reference ~memo sources =
  {
    sources;
    db = Corpus.depdb_of sources;
    memo = (if memo then Some (Hashtbl.create 64) else None);
  }

let sync r sources =
  if r.sources != sources then (
    r.sources <- sources;
    r.db <- Corpus.depdb_of sources;
    Option.iter Hashtbl.reset r.memo)

let batch_audit db ~servers ~required =
  Report.deployment_to_json
    (Sia_audit.audit
       ~rng:(Prng.of_int Server.default_config.Server.seed)
       db
       (Sia_audit.request ~required ~algorithm:Sia_audit.auto_rg servers))

let audit_payload r ~servers ~required =
  match r.memo with
  | None -> batch_audit r.db ~servers ~required
  | Some memo -> (
      match Hashtbl.find_opt memo (servers, required) with
      | Some json -> json
      | None ->
          let json = batch_audit r.db ~servers ~required in
          Hashtbl.add memo (servers, required) json;
          json)

let submit_ok ~id ~digest ~records bytes =
  match Client.decode_responses bytes with
  | [ { Frame.id = id'; result = Ok payload } ] when id' = id ->
      Json.member "digest" payload = Some (Json.String digest)
      && Json.member "records" payload = Some (Json.Int records)
  | _ | (exception _) -> false

let check r ~id req bytes =
  match req with
  | Corpus.Audit { servers; required } ->
      String.equal bytes
        (Frame.encode_response
           { Frame.id; result = Ok (audit_payload r ~servers ~required) })
  | Corpus.Submit _ ->
      submit_ok ~id ~digest:(Depdb.digest r.db) ~records:(Depdb.size r.db) bytes

(* --- runs --------------------------------------------------------------- *)

type sample = {
  phase : Corpus.phase;
  meth : string;
  latency : float;  (** measured seconds *)
  scaled : float;  (** reference seconds *)
}

type exchange = { id : int; frame : string; served : string; phase : Corpus.phase }

type run = {
  setup : float array;  (** reference seconds per fresh set-up *)
  setup_submits : float list;  (** scaled submit latencies of every set-up *)
  samples : sample list;  (** every request of the kept server, in order *)
  exchanges : exchange list;  (** kept only when [keep]; in order *)
  attempted : int;
  failed : int;  (** error responses and failed output checks *)
  shed : int;  (** requests the server's scheduler shed *)
  server_heap_mb : float;  (** reachable from the server after [heap_after] requests *)
  kernel_s : float;  (** median calibration kernel time *)
}

type budget = Seconds of float | Requests of int

(* Calibrate after every [calib_every] reference seconds of requests. *)
let calib_every = 0.025

(* [reps] set-ups run back to back before anything else; the last one's
   server takes the workload. The measured phase lasts for [budget] and at
   least [heap_after] requests. [keep] retains request and response bytes
   for the replay. *)
let run c w ~seed ~budget ~reps ~heap_after ~keep =
  let stream = Corpus.stream c w ~seed in
  let cal = Calib.start () in
  let samples = ref [] and exchanges = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let send srv ~id ~record phase r req =
    let frame = Corpus.encode ~id req in
    let served, latency = exchange srv frame in
    let ok = check r ~id req served in
    let scaled = Calib.scale cal latency in
    incr attempted;
    if not ok then incr failed;
    if record then (
      samples := { phase; meth = Corpus.meth req; latency; scaled } :: !samples;
      if keep then exchanges := { id; frame; served; phase } :: !exchanges);
    scaled
  in
  (* Each ingest submission is checked against the union of the sources
     sent so far. *)
  let ingest_refs =
    List.mapi
      (fun i _ ->
        let sent = List.filteri (fun j _ -> j <= i) Corpus.ingest_order in
        reference ~memo:false
          (SM.filter (fun name _ -> List.mem name sent) c.Corpus.sources))
      Corpus.ingest_order
  in
  let setup = ref [] and setup_submits = ref [] in
  let fresh ~record =
    (* Like a freshly started daemon, each set-up begins on a collected
       heap instead of paying for the previous set-up's garbage. *)
    Gc.full_major ();
    let t0 = now () in
    let srv = Server.create () in
    let create = Calib.scale cal (seconds_between t0 (now ())) in
    let ingest, _ =
      List.fold_left2
        (fun (acc, id) source r ->
          let records = SM.find source c.Corpus.sources in
          let dt =
            send srv ~id ~record Corpus.Setup r (Corpus.Submit { source; records })
          in
          setup_submits := dt :: !setup_submits;
          (acc +. dt, id + 1))
        (0., 1) Corpus.ingest_order ingest_refs
    in
    setup := (create +. ingest) :: !setup;
    Calib.sample cal;
    srv
  in
  for _ = 2 to reps do
    ignore (fresh ~record:false)
  done;
  let srv = fresh ~record:true in
  let next_id = ref (List.length Corpus.ingest_order) in
  let send_kept phase r req =
    incr next_id;
    send srv ~id:!next_id ~record:true phase r req
  in
  let r = reference ~memo:(w <> Corpus.Cold_audits) !(stream.Corpus.sources) in
  List.iter (fun req -> ignore (send_kept Corpus.Prime r req)) stream.Corpus.prime;
  (* Set-up garbage is not charged to the first measured requests. *)
  Gc.full_major ();
  let measured = ref 0. and count = ref 0 and since_cal = ref 0. and heap = ref 0. in
  let finished () =
    !count >= heap_after
    && match budget with Seconds s -> !measured >= s | Requests n -> !count >= n
  in
  while not (finished ()) do
    let req = stream.Corpus.next () in
    sync r !(stream.Corpus.sources);
    let dt = send_kept Corpus.Measure r req in
    measured := !measured +. dt;
    incr count;
    if !count = heap_after then heap := server_heap_mb srv;
    since_cal := !since_cal +. dt;
    if !since_cal >= calib_every then (
      Calib.sample cal;
      since_cal := 0.)
  done;
  {
    setup = Array.of_list !setup;
    setup_submits = List.rev !setup_submits;
    samples = List.rev !samples;
    exchanges = List.rev !exchanges;
    attempted = !attempted;
    failed = !failed;
    shed =
      (let s = Scheduler.stats (Server.scheduler srv) in
       s.Scheduler.shed_overload + s.Scheduler.shed_deadline);
    server_heap_mb = !heap;
    kernel_s = Calib.kernel_s cal;
  }
