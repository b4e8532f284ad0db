module Json = Indaas_util.Json
module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry
module Dependency = Indaas_depdata.Dependency
module Vclock = Indaas_resilience.Vclock
module Builder = Indaas_sia.Builder
module Sia_audit = Indaas_sia.Audit
module Sia_report = Indaas_sia.Report
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd

type config = {
  seed : int;
  max_queue : int;
  default_deadline : float option;
  cache_capacity : int;
}

let default_config =
  { seed = 42; max_queue = 64; default_deadline = None; cache_capacity = 1024 }

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

let int_param ~default name params =
  match Json.member name params with
  | Some (Json.Int i) -> i
  | Some _ -> bad "parameter %S must be an integer" name
  | None -> default

let int_opt_param name params =
  match Json.member name params with
  | Some (Json.Int i) -> Some i
  | Some _ -> bad "parameter %S must be an integer" name
  | None -> None

let float_opt_param name params =
  match Json.member name params with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ -> bad "parameter %S must be a number" name
  | None -> None

let string_list_param name params =
  match Json.member name params with
  | Some (Json.List items) ->
      Some
        (List.map
           (function
             | Json.String s -> s
             | _ -> bad "parameter %S must be a list of strings" name)
           items)
  | Some _ -> bad "parameter %S must be a list of strings" name
  | None -> None

let engine_param params =
  match str_param ~default:"auto" "engine" params with
  | "enum" -> `Enum
  | "bdd" -> `Bdd
  | "auto" -> `Auto
  | e -> bad "unknown engine %S (enum, bdd or auto)" e

(* --- audit parameter block --------------------------------------------- *)

(* Everything a deterministic audit result is a function of, beyond
   the snapshot contents. [canonical] is the compact JSON of the
   normalized fields — the spec half of the cache key. *)
type audit_params = {
  snapshot : string;
  servers : string list;
  required : int;
  engine : [ `Enum | `Bdd | `Auto ];
  max_family : int option;
  algorithm : [ `Minimal | `Sampling ];
  rounds : int;
  prob : float option;
  audit_seed : int;
}

let audit_params t params =
  let algorithm =
    match str_param ~default:"minimal" "algorithm" params with
    | "minimal" -> `Minimal
    | "sampling" -> `Sampling
    | a -> bad "unknown algorithm %S (minimal or sampling)" a
  in
  {
    snapshot = str_param ~default:"default" "snapshot" params;
    servers =
      (match string_list_param "servers" params with
      | Some [] -> bad "parameter \"servers\" must not be empty"
      | Some servers -> servers
      | None -> bad "missing parameter \"servers\"");
    required = int_param ~default:1 "required" params;
    engine = engine_param params;
    max_family = int_opt_param "max-family" params;
    algorithm;
    rounds = int_param ~default:10_000 "rounds" params;
    prob = float_opt_param "prob" params;
    audit_seed = int_param ~default:t.config.seed "seed" params;
  }

let engine_name p =
  match p.algorithm with
  | `Sampling -> "sampling"
  | `Minimal -> (
      match p.engine with `Enum -> "enum" | `Bdd -> "bdd" | `Auto -> "auto")

(* The engine and family budget live in their own cache-key fields;
   the spec digest covers the rest of the request. *)
let spec_digest ~meth p =
  let prob =
    match p.prob with Some f -> Json.Float f | None -> Json.Null
  in
  Indaas_crypto.Digest.sha256_hex
    (Json.to_string
       (Json.Obj
          [
            ("method", Json.String meth);
            ("servers", Json.List (List.map (fun s -> Json.String s) p.servers));
            ("required", Json.Int p.required);
            ("algorithm", Json.String
               (match p.algorithm with
               | `Minimal -> "minimal"
               | `Sampling -> "sampling"));
            ("rounds", Json.Int p.rounds);
            ("prob", prob);
            ("seed", Json.Int p.audit_seed);
          ]))

let cache_key ~meth ~snapshot_digest p =
  {
    Cache.snapshot_digest;
    spec_digest = spec_digest ~meth p;
    engine = engine_name p;
    budget = p.max_family;
  }

let sia_request p =
  let algorithm =
    match p.algorithm with
    | `Minimal -> (
        match p.engine with
        | `Enum ->
            Sia_audit.Minimal_rg { max_size = None; max_family = p.max_family }
        | `Bdd -> Sia_audit.Minimal_rg_bdd { max_size = None }
        | `Auto ->
            Sia_audit.Auto_rg { max_size = None; max_family = p.max_family })
    | `Sampling -> Sia_audit.failure_sampling ~rounds:p.rounds
  in
  let component_probability = Option.map Builder.uniform_probability p.prob in
  let ranking =
    match p.prob with
    | Some _ -> Sia_audit.Probability_based
    | None -> Sia_audit.Size_based
  in
  Sia_audit.request ~required:p.required ?component_probability ~algorithm
    ~ranking p.servers

let unknown_snapshot name =
  fail_code "unknown-snapshot" "no snapshot %S (submit dependency data first)"
    name

(* The stored digest alone keys the cache, so a hit never touches the
   records; the union DepDB is rebuilt only inside the miss thunk. *)
let snapshot_digest t name =
  match Snapshot.digest t.store ~snapshot:name with
  | Some digest -> digest
  | None -> unknown_snapshot name

let snapshot_db t name =
  match Snapshot.get t.store ~snapshot:name with
  | Some view -> view.Snapshot.db
  | None -> unknown_snapshot name

(* Audit computations can die many ways; every one must come back as
   an error response, not kill the daemon. *)
let guarded f =
  match f () with
  | result -> result
  | exception Cutset.Too_many_cut_sets n ->
      fail_code "budget-exceeded"
        "minimal-RG enumeration reached %d cut sets, over the family \
         budget; retry with engine \"bdd\" or a larger \"max-family\""
        n
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
  let old = Snapshot.digest t.store ~snapshot in
  let info = Snapshot.update t.store ~snapshot ~source records in
  let invalidated =
    match old with
    | Some digest when digest <> info.Snapshot.digest ->
        Cache.invalidate_snapshot t.cache ~digest
    | _ -> 0
  in
  Obs.incr "service.submissions";
  Json.Obj
    (Snapshot.info_fields ~snapshot info
    @ [ ("invalidated", Json.Int invalidated) ])

let audit t params =
  let p = audit_params t params in
  let snapshot_digest = snapshot_digest t p.snapshot in
  cached t (cache_key ~meth:"audit" ~snapshot_digest p) @@ fun () ->
  let db = snapshot_db t p.snapshot in
  guarded @@ fun () ->
  let report =
    Sia_audit.audit ~rng:(Prng.of_int p.audit_seed) db (sia_request p)
  in
  Sia_report.deployment_to_json report

let compare_deployments t params =
  let candidates =
    match Json.member "candidates" params with
    | Some (Json.List lists) ->
        List.map
          (function
            | Json.List names ->
                List.map
                  (function
                    | Json.String s -> s
                    | _ ->
                        bad
                          "parameter \"candidates\" must be a list of server \
                           lists")
                  names
            | _ -> bad "parameter \"candidates\" must be a list of server lists")
          lists
    | Some _ -> bad "parameter \"candidates\" must be a list of server lists"
    | None -> bad "missing parameter \"candidates\""
  in
  if candidates = [] then bad "parameter \"candidates\" must not be empty";
  (* [audit_params] wants a servers list; the candidate sets flatten
     into that slot (";"-delimited) so the canonical spec digest
     covers them unambiguously. *)
  let flat =
    List.concat_map (fun c -> List.map (fun s -> Json.String s) c
                              @ [ Json.String ";" ])
      candidates
  in
  let p =
    audit_params t
      (match params with
      | Json.Obj fields ->
          Json.Obj
            (("servers", Json.List flat) :: List.remove_assoc "servers" fields)
      | _ -> Json.Obj [ ("servers", Json.List flat) ])
  in
  let snapshot_digest = snapshot_digest t p.snapshot in
  cached t (cache_key ~meth:"compare" ~snapshot_digest p) @@ fun () ->
  let db = snapshot_db t p.snapshot in
  guarded @@ fun () ->
  let reports =
    Sia_audit.audit_candidates ~rng:(Prng.of_int p.audit_seed) db ~candidates
      (sia_request { p with servers = [] })
  in
  Sia_report.comparison_to_json reports

let rg_query t params =
  let p = audit_params t params in
  let snapshot_digest = snapshot_digest t p.snapshot in
  cached t (cache_key ~meth:"rg-query" ~snapshot_digest p) @@ fun () ->
  let db = snapshot_db t p.snapshot in
  guarded @@ fun () ->
  let spec = Builder.spec ~required:p.required p.servers in
  let graph = Builder.build db spec in
  let rgs =
    match p.engine with
    | `Bdd -> Bdd.minimal_risk_groups graph
    | `Enum -> Cutset.minimal_risk_groups ?max_family:p.max_family graph
    | `Auto -> (
        try Cutset.minimal_risk_groups ?max_family:p.max_family graph
        with Cutset.Too_many_cut_sets _ -> Bdd.minimal_risk_groups graph)
  in
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
   key. *)
let deadline_of (req : Frame.request) =
  match Json.member "deadline" req.Frame.params with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let serve t transport =
  let dec = Frame.decoder () in
  let buf = Bytes.create 8192 in
  (* Response slots in arrival order: every admitted, shed or
     malformed request gets exactly one, filled by the time the queue
     drains. *)
  let slots = ref [] in
  let push_slot () =
    let slot = ref None in
    slots := slot :: !slots;
    slot
  in
  let stop = ref None in
  let stream_error = ref None in
  let admit json =
    match Frame.request_of_json json with
    | req ->
        let slot = push_slot () in
        if req.Frame.meth = "shutdown" then begin
          (* Answer immediately and stop accepting input; already
             admitted work still runs. *)
          slot := Some (handle t req);
          stop := Some `Shutdown
        end
        else
          Scheduler.submit t.sched ?deadline:(deadline_of req)
            ~cost:(cost_of req.Frame.meth)
            ~run:(fun () -> slot := Some (handle t req))
            ~shed:(fun ~reason ->
              slot :=
                Some
                  (error_response req.Frame.id reason
                     (Printf.sprintf "request shed by the scheduler: %s"
                        reason)))
            ()
    | exception Frame.Bad_frame msg ->
        let id =
          match Json.member "id" json with Some (Json.Int i) -> i | _ -> -1
        in
        let slot = push_slot () in
        slot := Some (error_response id "bad-frame" msg)
  in
  (try
     while !stop = None do
       match Frame.next dec with
       | Some json -> admit json
       | None ->
           let n = transport.Transport.read buf 0 (Bytes.length buf) in
           if n = 0 then stop := Some `Eof
           else Frame.feed dec (Bytes.sub_string buf 0 n)
     done;
     (* [next] returned None right before the EOF read, so no complete
        frame can be pending — leftover bytes are a truncated frame.
        After a shutdown, leftover input is deliberately dropped. *)
     if !stop = Some `Eof && Frame.pending_bytes dec > 0 then
       stream_error :=
         Some
           (Printf.sprintf "truncated frame: %d byte(s) at end of stream"
              (Frame.pending_bytes dec))
   with Frame.Protocol_error msg -> stream_error := Some msg);
  Scheduler.run_all t.sched;
  (match !stream_error with
  | Some msg -> (push_slot ()) := Some (error_response (-1) "bad-frame" msg)
  | None -> ());
  List.iter
    (fun slot ->
      match !slot with
      | Some response ->
          transport.Transport.write (Frame.encode_response response)
      | None -> ())
    (List.rev !slots);
  transport.Transport.close ()
