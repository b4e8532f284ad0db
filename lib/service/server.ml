module Json = Indaas_util.Json
module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry
module Dependency = Indaas_depdata.Dependency
module Vclock = Indaas_resilience.Vclock
module Builder = Indaas_sia.Builder
module Sia_audit = Indaas_sia.Audit
module Sia_report = Indaas_sia.Report
module Cutset = Indaas_faultgraph.Cutset
module Params = Indaas_sia.Params

type config = {
  seed : int;
  max_queue : int;
  default_deadline : float option;
  cache_capacity : int;
}

let default_config =
  { seed = Params.default.seed; max_queue = 64; default_deadline = None;
    cache_capacity = 1024 }

type t = {
  config : config;
  store : Snapshot.store;
  cache : Cache.t;
  sched : Scheduler.t;
}

let create ?(config = default_config) () =
  {
    config;
    store = Snapshot.create ();
    cache = Cache.create ~capacity:config.cache_capacity ();
    sched =
      Scheduler.create ~max_queue:config.max_queue
        ?default_deadline:config.default_deadline ();
  }

let clock t = Scheduler.clock t.sched
let scheduler t = t.sched
let cache_stats t = Cache.stats t.cache

(* --- error plumbing ---------------------------------------------------- *)

(* Dispatch failures unwind as (code, message) pairs and come back to
   the client as error responses; the daemon itself never dies on a
   request. *)
exception Reply_error of string * string

let fail_code code fmt =
  Printf.ksprintf (fun m -> raise (Reply_error (code, m))) fmt

let bad fmt = fail_code "bad-request" fmt

(* --- parameter decoding ------------------------------------------------ *)

let str_param ?default name params =
  match Json.member name params with
  | Some (Json.String s) -> s
  | Some _ -> bad "parameter %S must be a string" name
  | None -> (
      match default with
      | Some d -> d
      | None -> bad "missing parameter %S" name)

(* Parameter [name]'s list of strings; any other shape is refused as
   not [what]. *)
let strings ~name ~what json =
  let malformed () = bad "parameter %S must be %s" name what in
  match json with
  | Json.List items ->
      List.map (function Json.String s -> s | _ -> malformed ()) items
  | _ -> malformed ()

let servers_param params =
  let strings = strings ~name:"servers" ~what:"a list of strings" in
  match Option.map strings (Json.member "servers" params) with
  | Some [] -> bad "parameter \"servers\" must not be empty"
  | Some servers -> servers
  | None -> bad "missing parameter \"servers\""

let unknown_snapshot name =
  fail_code "unknown-snapshot" "no snapshot %S (submit dependency data first)"
    name

(* The stored key (content digest and snapshot name) keys the cache,
   so a hit never touches the records, and two snapshots with one
   content digest never share an entry: their record orders, and so
   their answers, may differ. A miss builds a DepDB of only the
   deployment's servers' records ({!Snapshot.footprint}), never the
   union. *)
let snapshot_key t name =
  match Snapshot.key t.store ~snapshot:name with
  | Some key -> key
  | None -> unknown_snapshot name

let footprint_db t name ~machines =
  match Snapshot.footprint t.store ~snapshot:name ~machines with
  | Some db -> db
  | None -> unknown_snapshot name

(* Decoding a spec ([Invalid_argument] naming the malformed field) and
   audit computations can die many ways; every one must come back as
   an error response, not kill the daemon. *)
let guarded f =
  match f () with
  | result -> result
  | exception Invalid_argument msg -> bad "%s" msg
  | exception Failure msg -> fail_code "audit-error" "%s" msg

let cached t key compute =
  match Cache.find t.cache key with
  | Some json -> json
  | None ->
      let json = Obs.with_span "service.compute" compute in
      Cache.add t.cache key json;
      json

(* --- methods ------------------------------------------------------------ *)

let submit_deps t params =
  let snapshot = str_param ~default:"default" "snapshot" params in
  let source = str_param "source" params in
  let text = str_param ~default:"" "records" params in
  let records =
    match Dependency.of_xml_many text with
    | records -> records
    | exception Failure msg -> bad "cannot parse records: %s" msg
  in
  let info, stale = Snapshot.update t.store ~snapshot ~source records in
  let invalidated =
    match stale with
    | Some key -> Cache.invalidate_snapshot t.cache ~digest:key
    | None -> 0
  in
  Obs.incr "service.submissions";
  Json.Obj
    (Snapshot.info_fields ~snapshot info
    @ [ ("invalidated", Json.Int invalidated) ])

(* The audit-shaped methods: decode the spec (an absent field takes
   {!Params.default}'s value, except the seed, which is the daemon's),
   answer from the cache, and on a miss run [compute] over the DepDB
   of the servers the request names (all candidates' servers for
   [compare]). The spec digest covers the whole request; the key's
   [engine] and [budget] are constants (see cache.mli). *)
let audit_method t ~meth ?candidates ~servers params compute =
  let snapshot = str_param ~default:"default" "snapshot" params in
  let p =
    guarded @@ fun () ->
    Params.of_json
      ~default:{ Params.default with servers; seed = t.config.seed }
      params
  in
  let key =
    {
      Cache.snapshot_digest = snapshot_key t snapshot;
      spec_digest =
        Indaas_crypto.Digest.sha256_hex
          (Json.to_string (Params.spec_json ~meth ?candidates p));
      engine = "auto";
      budget = None;
    }
  in
  cached t key @@ fun () ->
  let machines =
    match candidates with Some c -> List.concat c | None -> servers
  in
  let db = footprint_db t snapshot ~machines in
  guarded @@ fun () -> compute db p

let audit t params =
  audit_method t ~meth:"audit" ~servers:(servers_param params) params
  @@ fun db p ->
  Sia_report.deployment_to_json
    (Sia_audit.audit ~rng:(Prng.of_int p.seed) db (Params.request p))

let compare_deployments t params =
  let name = "candidates" and what = "a list of server lists" in
  let candidates =
    match Json.member name params with
    | Some (Json.List lists) -> List.map (strings ~name ~what) lists
    | Some _ -> bad "parameter %S must be %s" name what
    | None -> bad "missing parameter \"candidates\""
  in
  if candidates = [] then bad "parameter \"candidates\" must not be empty";
  audit_method t ~meth:"compare" ~candidates ~servers:[] params @@ fun db p ->
  Sia_report.comparison_to_json
    (Sia_audit.audit_candidates ~rng:(Prng.of_int p.seed) db ~candidates
       (Params.request p))

let rg_query t params =
  audit_method t ~meth:"rg-query" ~servers:(servers_param params) params
  @@ fun db p ->
  let { Sia_audit.spec; algorithm; _ } = Params.request p in
  let graph = Builder.build db spec in
  let rgs = Sia_audit.risk_groups ~rng:(Prng.of_int p.seed) algorithm graph in
  Json.Obj
    [
      ("count", Json.Int (List.length rgs));
      ("expected_size", Json.Int (Builder.expected_rg_size spec));
      ( "risk_groups",
        Json.List
          (List.map
             (fun rg ->
               Json.List
                 (List.map
                    (fun name -> Json.String name)
                    (Cutset.names graph rg)))
             rgs) );
    ]

let stats_json t =
  Json.Obj
    [
      ("snapshots", Snapshot.to_json t.store);
      ("cache", Cache.stats_to_json (Cache.stats t.cache));
      ("scheduler", Scheduler.stats_to_json (Scheduler.stats t.sched));
      ("virtual_seconds", Json.Float (Vclock.now (clock t)));
    ]

(* --- dispatch ----------------------------------------------------------- *)

let shutdown_payload = Json.Obj [ ("stopping", Json.Bool true) ]

let dispatch t (req : Frame.request) =
  match req.Frame.meth with
  | "submit-deps" -> submit_deps t req.Frame.params
  | "audit" -> audit t req.Frame.params
  | "compare" -> compare_deployments t req.Frame.params
  | "rg-query" -> rg_query t req.Frame.params
  | "stats" -> stats_json t
  | "shutdown" -> shutdown_payload
  | m ->
      fail_code "unknown-method"
        "unknown method %S (protocol v%d: submit-deps, audit, compare, \
         rg-query, stats, shutdown)"
        m Frame.version

let error_response id code message =
  { Frame.id; result = Error { Frame.code; message } }

let handle t (req : Frame.request) =
  Obs.with_span "service.request"
    ~attrs:[ ("method", req.Frame.meth); ("id", string_of_int req.Frame.id) ]
  @@ fun () ->
  Obs.incr "service.requests";
  if req.Frame.version <> Frame.version then
    error_response req.Frame.id "unsupported-version"
      (Printf.sprintf "request speaks protocol v%d, this daemon speaks v%d"
         req.Frame.version Frame.version)
  else
    match dispatch t req with
    | payload -> { Frame.id = req.Frame.id; result = Ok payload }
    | exception Reply_error (code, message) ->
        Obs.incr "service.errors";
        error_response req.Frame.id code message

(* --- serving ------------------------------------------------------------ *)

(* Nominal per-method virtual cost, for deadline arithmetic. Binary
   fractions keep accumulated virtual time exactly representable. *)
let cost_of meth =
  match meth with
  | "audit" | "compare" | "rg-query" -> 1.0
  | "submit-deps" -> 0.25
  | _ -> 0.03125

(* The scheduling deadline rides outside [params] — it shapes when a
   request runs, not what it computes, so it stays out of the cache
   key. Anything but a non-negative number is the request's error, as
   [serve --deadline] rejects it. *)
let deadline_of (req : Frame.request) =
  match Json.member "deadline" req.Frame.params with
  | None -> None
  | Some (Json.Float f) when f >= 0. -> Some f
  | Some (Json.Int i) when i >= 0 -> Some (float_of_int i)
  | Some _ -> bad "\"deadline\" must be a non-negative number of seconds"

let serve t transport =
  let dec = Frame.decoder () in
  let buf = Bytes.create 8192 in
  (* A payload too large for one frame is answered with an error, so
     the daemon and the frames queued behind it live on. *)
  let reply (response : Frame.response) =
    transport.Transport.write
      (match Frame.encode_response response with
      | bytes -> bytes
      | exception Frame.Protocol_error msg ->
          Frame.encode_response
            (error_response response.Frame.id "response-too-large" msg))
  in
  (* The server's own answers go out after every queued job's, so
     responses keep arrival order. *)
  let answer response =
    Scheduler.run_all t.sched;
    reply response
  in
  let bad_frame id msg = answer (error_response id "bad-frame" msg) in
  (* Admit one frame; [false] once it asked to shut down. *)
  let admit json =
    match Frame.request_of_json json with
    | { Frame.meth = "shutdown"; _ } as req ->
        answer (handle t req);
        false
    | req ->
        (match deadline_of req with
        | deadline ->
            Scheduler.submit t.sched ?deadline ~cost:(cost_of req.Frame.meth)
              ~run:(fun () -> reply (handle t req))
              ~shed:(fun ~reason ->
                reply
                  (error_response req.Frame.id reason
                     (Printf.sprintf "request shed by the scheduler: %s" reason)))
              ()
        | exception Reply_error (code, message) ->
            answer (error_response req.Frame.id code message));
        true
    | exception Frame.Bad_frame msg ->
        bad_frame
          (match Json.member "id" json with Some (Json.Int i) -> i | _ -> -1)
          msg;
        true
  in
  (* Admit every frame the bytes read so far complete, answer them,
     and only then block for more input. Input after a shutdown is
     deliberately dropped. *)
  let rec loop () =
    match Frame.next dec with
    | Some json -> if admit json then loop ()
    | exception Frame.Protocol_error msg -> bad_frame (-1) msg
    | None ->
        Scheduler.run_all t.sched;
        let n = transport.Transport.read buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Frame.feed dec (Bytes.sub_string buf 0 n);
          loop ()
        end
        else if Frame.pending_bytes dec > 0 then
          (* [next] returned None right before the EOF read, so the
             leftover bytes are a truncated frame. *)
          bad_frame (-1)
            (Printf.sprintf "truncated frame: %d byte(s) at end of stream"
               (Frame.pending_bytes dec))
  in
  loop ();
  transport.Transport.close ()
