module Json = Indaas_util.Json
module Prng = Indaas_util.Prng
module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Sia_audit = Indaas_sia.Audit
module Sia_report = Indaas_sia.Report
module Sia_rank = Indaas_sia.Rank
module Params = Indaas_sia.Params
module Vclock = Indaas_resilience.Vclock
module Frame = Indaas_service.Frame
module Transport = Indaas_service.Transport
module Snapshot = Indaas_service.Snapshot
module Cache = Indaas_service.Cache
module Scheduler = Indaas_service.Scheduler
module Server = Indaas_service.Server
module Client = Indaas_service.Client
module Builder = Indaas_sia.Builder
module Fattree = Indaas_topology.Fattree
module Collectors = Indaas_depdata.Collectors

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let json = Alcotest.testable (Fmt.of_to_string Json.to_string) ( = )

(* --- frames ------------------------------------------------------------- *)

let req ?(id = 1) ?(version = Frame.version) ?(params = Json.Null) meth =
  { Frame.id; version; meth; params }

let drain dec =
  let rec go acc =
    match Frame.next dec with Some j -> go (j :: acc) | None -> List.rev acc
  in
  go []

let test_frame_roundtrip () =
  let r =
    req ~id:7 "audit"
      ~params:(Json.Obj [ ("servers", Json.List [ Json.String "S1" ]) ])
  in
  let dec = Frame.decoder () in
  Frame.feed dec (Frame.encode_request r);
  (match drain dec with
  | [ j ] ->
      let r' = Frame.request_of_json j in
      check Alcotest.int "id" r.Frame.id r'.Frame.id;
      check Alcotest.int "v" r.Frame.version r'.Frame.version;
      check Alcotest.string "method" r.Frame.meth r'.Frame.meth;
      check json "params" r.Frame.params r'.Frame.params
  | frames -> Alcotest.failf "expected 1 frame, got %d" (List.length frames));
  check Alcotest.int "drained" 0 (Frame.pending_bytes dec);
  let ok = { Frame.id = 7; result = Ok (Json.Int 3) } in
  let err =
    { Frame.id = 8; result = Error { Frame.code = "c"; message = "m" } }
  in
  List.iter
    (fun r ->
      let dec = Frame.decoder () in
      Frame.feed dec (Frame.encode_response r);
      match drain dec with
      | [ j ] ->
          check Alcotest.bool "response roundtrip" true
            (Frame.response_of_json j = r)
      | _ -> Alcotest.fail "expected 1 response frame")
    [ ok; err ]

let test_frame_concatenated () =
  let frames =
    List.map
      (fun i -> Frame.encode_request (req ~id:i "stats"))
      [ 1; 2; 3 ]
  in
  let dec = Frame.decoder () in
  Frame.feed dec (String.concat "" frames);
  let ids =
    List.map (fun j -> (Frame.request_of_json j).Frame.id) (drain dec)
  in
  check Alcotest.(list int) "all frames, in order" [ 1; 2; 3 ] ids

let test_frame_split_prefix () =
  (* The length prefix itself arrives one byte at a time. *)
  let data = Frame.encode_request (req ~id:9 "stats") in
  let dec = Frame.decoder () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Frame.feed dec ~off:i ~len:1 data;
      got := !got @ drain dec)
    data;
  (match !got with
  | [ j ] -> check Alcotest.int "id survives" 9 (Frame.request_of_json j).Frame.id
  | _ -> Alcotest.fail "expected exactly 1 frame");
  check Alcotest.int "no leftovers" 0 (Frame.pending_bytes dec)

let prefix_of n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.to_string b

let protocol_error f =
  match f () with
  | _ -> Alcotest.fail "expected Protocol_error"
  | exception Frame.Protocol_error _ -> ()

let bad_frame f =
  match f () with
  | _ -> Alcotest.fail "expected Bad_frame"
  | exception Frame.Bad_frame _ -> ()

let test_frame_protocol_errors () =
  protocol_error (fun () -> Frame.frame "");
  protocol_error (fun () -> Frame.frame (String.make (Frame.max_frame + 1) 'x'));
  (* Zero, negative and oversized length prefixes poison the decoder. *)
  List.iter
    (fun n ->
      let dec = Frame.decoder () in
      Frame.feed dec (prefix_of n);
      protocol_error (fun () -> Frame.next dec))
    [ 0; -1; Frame.max_frame + 1 ];
  (* A payload that is not JSON is unrecoverable too... *)
  let dec = Frame.decoder () in
  Frame.feed dec (prefix_of 8 ^ "not json");
  protocol_error (fun () -> Frame.next dec);
  (* ...and the poisoned decoder refuses everything afterwards. *)
  protocol_error (fun () -> Frame.feed dec "x");
  protocol_error (fun () -> Frame.next dec)

let test_frame_malformed_requests () =
  let parse fields = Frame.request_of_json (Json.Obj fields) in
  let v = ("v", Json.Int 1) in
  let id = ("id", Json.Int 1) in
  let meth = ("method", Json.String "stats") in
  bad_frame (fun () -> parse [ id; meth ]) (* missing v *);
  bad_frame (fun () -> parse [ v; meth ]) (* missing id *);
  bad_frame (fun () -> parse [ v; id ]) (* missing method *);
  bad_frame (fun () -> parse [ v; id; ("method", Json.Int 3) ]);
  bad_frame (fun () -> parse [ v; ("id", Json.String "x"); meth ]);
  bad_frame (fun () -> parse [ v; id; meth; ("extra", Json.Null) ]);
  bad_frame (fun () -> Frame.request_of_json (Json.List []));
  (* Responses: exactly one of ok/error. *)
  bad_frame (fun () -> Frame.response_of_json (Json.Obj [ ("id", Json.Int 1) ]));
  bad_frame (fun () ->
      Frame.response_of_json
        (Json.Obj
           [ ("id", Json.Int 1); ("ok", Json.Null);
             ("error", Json.Obj [ ("code", Json.String "c");
                                  ("message", Json.String "m") ]) ]))

(* qcheck: any request sequence survives any packetization — including
   1-byte reads, split prefixes and concatenated frames — through the
   loopback transport. *)
let gen_requests =
  QCheck.(
    list_of_size Gen.(int_range 1 6)
      (triple small_nat printable_string
         (small_list (pair (string_of_size Gen.(int_range 1 5)) small_nat))))

let prop_chunked_roundtrip =
  QCheck.Test.make ~name:"frames reassemble under adversarial chunking"
    ~count:200
    QCheck.(pair gen_requests (pair (int_range 1 7) small_nat))
    (fun (specs, (chunk, skew)) ->
      let reqs =
        List.mapi
          (fun i (id, meth, params) ->
            req ~id:(id + i) ("m" ^ meth)
              ~params:
                (Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) params)))
          specs
      in
      let a, b = Transport.loopback ~chunk:(1 + ((chunk + skew) mod 7)) () in
      List.iter (fun r -> a.Transport.write (Frame.encode_request r)) reqs;
      a.Transport.close ();
      let dec = Frame.decoder () in
      let buf = Bytes.create 3 in
      let got = ref [] in
      let rec pump () =
        got := !got @ drain dec;
        let n = b.Transport.read buf 0 (Bytes.length buf) in
        if n > 0 then begin
          Frame.feed dec (Bytes.sub_string buf 0 n);
          pump ()
        end
      in
      pump ();
      got := !got @ drain dec;
      !got = List.map Frame.request_to_json reqs
      && Frame.pending_bytes dec = 0)

(* --- snapshot store ------------------------------------------------------ *)

let record i =
  Dependency.hardware
    ~hw:(Printf.sprintf "S%d" (1 + (i mod 3)))
    ~hw_type:"Disk"
    ~dep:(Printf.sprintf "c%d" i)

let test_snapshot_versions_and_deltas () =
  let store = Snapshot.create () in
  let v1 = Snapshot.submit store ~snapshot:"a" ~source:"net" [ record 0 ] in
  check Alcotest.int "first version" 1 v1.Snapshot.version;
  check Alcotest.int "records" 1 (Depdb.size v1.Snapshot.db);
  let v2 =
    Snapshot.submit store ~snapshot:"a" ~source:"hw" [ record 1; record 2 ]
  in
  check Alcotest.int "second version" 2 v2.Snapshot.version;
  check Alcotest.int "union of sources" 3 (Depdb.size v2.Snapshot.db);
  check
    Alcotest.(list (pair string int))
    "sources sorted" [ ("hw", 2); ("net", 1) ] v2.Snapshot.sources;
  (* Replacing one source touches only that source's records. *)
  let v3 = Snapshot.submit store ~snapshot:"a" ~source:"hw" [ record 3 ] in
  check Alcotest.int "replaced, not merged" 2 (Depdb.size v3.Snapshot.db);
  (* Submitting an empty list drops the source. *)
  let v4 = Snapshot.submit store ~snapshot:"a" ~source:"hw" [] in
  check
    Alcotest.(list (pair string int))
    "source dropped" [ ("net", 1) ] v4.Snapshot.sources;
  check Alcotest.bool "digest tracks content" true
    (v4.Snapshot.digest <> v3.Snapshot.digest);
  check Alcotest.bool "other snapshots untouched" true
    (Snapshot.get store ~snapshot:"b" = None);
  check Alcotest.(list string) "names" [ "a" ]
    (Snapshot.names store)

let test_snapshot_digest_source_invariant () =
  (* The digest is a function of the record set, not of how it was
     split across sources. *)
  let one = Snapshot.create () and two = Snapshot.create () in
  let all = [ record 0; record 1; record 2; record 3 ] in
  let v_one = Snapshot.submit one ~snapshot:"s" ~source:"only" all in
  ignore (Snapshot.submit two ~snapshot:"s" ~source:"x" [ record 2; record 3 ]);
  let v_two =
    Snapshot.submit two ~snapshot:"s" ~source:"y" [ record 0; record 1 ]
  in
  check Alcotest.string "same digest" v_one.Snapshot.digest
    v_two.Snapshot.digest

(* qcheck: after every step of a random submit / replace / drop
   sequence, the digest, counts and union the store hands out equal a
   from-scratch rebuild of the current sources in source-name order. *)
type snapshot_op = Put of int * int list | Drop of int | Resubmit of int

let snapshot_pool =
  [|
    record 0;
    record 1;
    record 2;
    Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
    Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
    Dependency.software ~pgm:"Riak" ~host:"S1" ~deps:[ "libc6" ];
    Dependency.software ~pgm:"Riak" ~host:"S3" ~deps:[ "libc6"; "ssl" ];
  |]

(* Index order is not name order, so the name-ordered merge shows. *)
let snapshot_source i = [| "nsd"; "a"; "lshw"; "apt" |].(i)

let arb_snapshot_ops =
  let open QCheck.Gen in
  let src = int_bound 3 in
  let op =
    frequency
      [
        ( 5,
          map2
            (fun s rs -> Put (s, rs))
            src
            (list_size (int_range 1 5)
               (int_bound (Array.length snapshot_pool - 1))) );
        (1, map (fun s -> Drop s) src);
        (1, map (fun s -> Resubmit s) src);
      ]
  in
  let print = function
    | Put (s, rs) ->
        Printf.sprintf "put %s [%s]" (snapshot_source s)
          (String.concat ";" (List.map string_of_int rs))
    | Drop s -> "drop " ^ snapshot_source s
    | Resubmit s -> "resubmit " ^ snapshot_source s
  in
  QCheck.make
    ~print:QCheck.Print.(list print)
    (list_size (int_range 1 20) op)

let prop_snapshot_matches_rebuild =
  QCheck.Test.make ~name:"stored snapshot state equals a fresh rebuild"
    ~count:300 arb_snapshot_ops (fun ops ->
      let module SM = Map.Make (String) in
      let store = Snapshot.create () in
      let step (model, version) op =
        let source, records =
          match op with
          | Put (s, rs) ->
              (snapshot_source s, List.map (Array.get snapshot_pool) rs)
          | Drop s -> (snapshot_source s, [])
          | Resubmit s ->
              let source = snapshot_source s in
              (source, Option.value ~default:[] (SM.find_opt source model))
        in
        let submitted = Snapshot.submit store ~snapshot:"s" ~source records in
        let model =
          if records = [] then SM.remove source model
          else SM.add source records model
        in
        let version = version + 1 in
        let fresh = Depdb.create () in
        SM.iter (fun _ records -> Depdb.add_all fresh records) model;
        let digest = Depdb.digest fresh in
        let sources = SM.bindings (SM.map List.length model) in
        let expected_json =
          Json.Obj
            [
              ("snapshot", Json.String "s");
              ("version", Json.Int version);
              ("digest", Json.String digest);
              ("records", Json.Int (Depdb.size fresh));
              ( "sources",
                Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) sources) );
            ]
        in
        if Snapshot.digest store ~snapshot:"s" <> Some digest then
          QCheck.Test.fail_report "Snapshot.digest differs from rebuild";
        List.iter
          (fun (view : Snapshot.view) ->
            if
              view.digest <> digest || view.version <> version
              || view.sources <> sources
              || Depdb.records view.db <> Depdb.records fresh
            then QCheck.Test.fail_report "view differs from rebuild")
          [ submitted; Option.get (Snapshot.get store ~snapshot:"s") ];
        if Snapshot.to_json store <> Json.List [ expected_json ] then
          QCheck.Test.fail_reportf "to_json: %s"
            (Json.to_string (Snapshot.to_json store));
        (model, version)
      in
      ignore (List.fold_left step (SM.empty, 0) ops);
      true)

(* --- result cache -------------------------------------------------------- *)

let key ?(snap = "d1") ?(spec = "s1") ?(engine = "auto") ?budget () =
  { Cache.snapshot_digest = snap; spec_digest = spec; engine; budget }

let test_cache_hits_and_misses () =
  let c = Cache.create () in
  check Alcotest.bool "cold miss" true (Cache.find c (key ()) = None);
  Cache.add c (key ()) (Json.Int 1);
  check json "hit" (Json.Int 1) (Option.get (Cache.find c (key ())));
  (* Engine and budget are part of the key. *)
  check Alcotest.bool "engine differs" true
    (Cache.find c (key ~engine:"bdd" ()) = None);
  check Alcotest.bool "budget differs" true
    (Cache.find c (key ~budget:10 ()) = None);
  let s = Cache.stats c in
  check Alcotest.int "hits" 1 s.Cache.hits;
  check Alcotest.int "misses" 3 s.Cache.misses;
  check Alcotest.int "entries" 1 s.Cache.entries

let test_cache_invalidation_is_scoped () =
  let c = Cache.create () in
  Cache.add c (key ~snap:"old" ~spec:"a" ()) Json.Null;
  Cache.add c (key ~snap:"old" ~spec:"b" ()) Json.Null;
  Cache.add c (key ~snap:"other" ~spec:"a" ()) Json.Null;
  check Alcotest.int "exactly the affected entries" 2
    (Cache.invalidate_snapshot c ~digest:"old");
  check Alcotest.bool "survivor still cached" true
    (Cache.find c (key ~snap:"other" ~spec:"a" ()) <> None);
  check Alcotest.int "gone" 0
    (Cache.invalidate_snapshot c ~digest:"old");
  check Alcotest.int "accounted" 2 (Cache.stats c).Cache.invalidated

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c (key ~spec:"a" ()) (Json.Int 1);
  Cache.add c (key ~spec:"b" ()) (Json.Int 2);
  ignore (Cache.find c (key ~spec:"a" ()));
  (* "b" is now least recently used and goes first. *)
  Cache.add c (key ~spec:"c" ()) (Json.Int 3);
  check Alcotest.bool "lru evicted" true (Cache.find c (key ~spec:"b" ()) = None);
  check Alcotest.bool "recent kept" true (Cache.find c (key ~spec:"a" ()) <> None);
  check Alcotest.int "evictions counted" 1 (Cache.stats c).Cache.evicted

(* qcheck: the cache against a naive LRU model — a list of entries,
   most recent first. Both run the same random find / add /
   invalidate sequence; every step must give the same answer and the
   same stats. After each prefix, probing every key on both shows the
   same contents, so each eviction picked the same victim. *)
type cache_op =
  | Find of Cache.key
  | Add of Cache.key * int
  | Invalidate of string

type lru_model = {
  cap : int;
  mutable lru : (Cache.key * Json.t) list;
  mutable st : Cache.stats;  (** [entries] is [List.length lru] *)
}

let model_find m k =
  match List.assoc_opt k m.lru with
  | Some v ->
      m.st <- { m.st with hits = m.st.hits + 1 };
      m.lru <- (k, v) :: List.remove_assoc k m.lru;
      Some v
  | None ->
      m.st <- { m.st with misses = m.st.misses + 1 };
      None

let model_add m k v =
  if List.mem_assoc k m.lru then m.lru <- List.remove_assoc k m.lru
  else if List.length m.lru >= m.cap then begin
    m.lru <- List.filteri (fun i _ -> i < m.cap - 1) m.lru;
    m.st <- { m.st with evicted = m.st.evicted + 1 }
  end;
  m.lru <- (k, v) :: m.lru

let model_invalidate m digest =
  let doomed, kept =
    List.partition (fun (k, _) -> k.Cache.snapshot_digest = digest) m.lru
  in
  let n = List.length doomed in
  m.lru <- kept;
  m.st <- { m.st with invalidated = m.st.invalidated + n };
  n

let cache_universe =
  List.concat_map
    (fun snap -> List.map (fun spec -> key ~snap ~spec ()) [ "a"; "b"; "c" ])
    [ "d1"; "d2"; "d3" ]

let arb_cache_ops =
  let open QCheck.Gen in
  let k = oneofl cache_universe in
  let op =
    frequency
      [
        (3, map (fun k -> Find k) k);
        (3, map2 (fun k v -> Add (k, v)) k small_nat);
        (1, map (fun d -> Invalidate d) (oneofl [ "d1"; "d2"; "d3" ]));
      ]
  in
  let print = function
    | Find k -> Printf.sprintf "find %s/%s" k.Cache.snapshot_digest k.spec_digest
    | Add (k, v) ->
        Printf.sprintf "add %s/%s=%d" k.Cache.snapshot_digest k.spec_digest v
    | Invalidate d -> "invalidate " ^ d
  in
  QCheck.make
    ~print:QCheck.Print.(pair int (list print))
    (pair (int_range 1 5) (list_size (int_range 1 40) op))

let prop_cache_matches_model =
  QCheck.Test.make ~name:"cache matches a naive LRU model" ~count:300
    arb_cache_ops (fun (capacity, ops) ->
      (* One observation per op: lookup result or invalidation count,
         then the stats. *)
      let run ops =
        let c = Cache.create ~capacity () in
        let m =
          {
            cap = capacity;
            lru = [];
            st =
              { entries = 0; hits = 0; misses = 0; invalidated = 0; evicted = 0 };
          }
        in
        List.for_all
          (fun op ->
            let same =
              match op with
              | Find k -> Cache.find c k = model_find m k
              | Add (k, v) ->
                  Cache.add c k (Json.Int v);
                  model_add m k (Json.Int v);
                  true
              | Invalidate d ->
                  Cache.invalidate_snapshot c ~digest:d = model_invalidate m d
            in
            same
            && Cache.stats c = { m.st with entries = List.length m.lru })
          ops
      in
      let probes = List.map (fun k -> Find k) cache_universe in
      List.for_all
        (fun n -> run (List.filteri (fun i _ -> i < n) ops @ probes))
        (List.init (List.length ops + 1) Fun.id))

(* --- scheduler ------------------------------------------------------------ *)

let test_scheduler_overload_shedding () =
  let s = Scheduler.create ~max_queue:2 () in
  let ran = ref [] and shed = ref [] in
  for i = 1 to 3 do
    Scheduler.submit s ~cost:1.0
      ~run:(fun () -> ran := i :: !ran)
      ~shed:(fun ~reason -> shed := (i, reason) :: !shed)
      ()
  done;
  Scheduler.run_all s;
  check Alcotest.(list (pair int string)) "third shed at admission"
    [ (3, "overloaded") ] !shed;
  check Alcotest.(list int) "fifo order" [ 1; 2 ] (List.rev !ran);
  let st = Scheduler.stats s in
  check Alcotest.int "submitted" 3 st.Scheduler.submitted;
  check Alcotest.int "served" 2 st.Scheduler.served;
  check Alcotest.int "shed" 1 st.Scheduler.shed_overload

let test_scheduler_deadline_on_virtual_clock () =
  let s = Scheduler.create () in
  let outcomes = ref [] in
  let submit i ?deadline () =
    Scheduler.submit s ?deadline ~cost:1.0
      ~run:(fun () -> outcomes := (i, "ran") :: !outcomes)
      ~shed:(fun ~reason -> outcomes := (i, reason) :: !outcomes)
      ()
  in
  submit 1 ();
  submit 2 ~deadline:0.5 ();
  submit 3 ~deadline:2.0 ();
  Scheduler.run_all s;
  (* Job 1 advances the clock to 1.0 > 0.5: job 2's deadline expired
     while it queued; job 3's did not. *)
  check
    Alcotest.(list (pair int string))
    "deadline arithmetic"
    [ (1, "ran"); (2, "deadline-exceeded"); (3, "ran") ]
    (List.rev !outcomes);
  check (Alcotest.float 1e-9) "clock advanced by served costs" 2.0
    (Vclock.now (Scheduler.clock s));
  check Alcotest.int "shed_deadline" 1 (Scheduler.stats s).Scheduler.shed_deadline

(* --- server ---------------------------------------------------------------- *)

let table1 =
  String.concat "\n"
    [
      {|<src="S1" dst="Internet" route="ToR1,Core1"/>|};
      {|<src="S1" dst="Internet" route="ToR1,Core2"/>|};
      {|<src="S2" dst="Internet" route="ToR1,Core1"/>|};
      {|<src="S2" dst="Internet" route="ToR1,Core2"/>|};
      {|<hw="S1" type="Disk" dep="S1-disk"/>|};
      {|<hw="S2" type="Disk" dep="S2-disk"/>|};
      {|<pgm="Riak1" hw="S1" dep="libc6"/>|};
      {|<pgm="Riak2" hw="S2" dep="libc6"/>|};
    ]

let ok_exn (r : Frame.response) =
  match r.Frame.result with
  | Ok payload -> payload
  | Error e -> Alcotest.failf "unexpected error %s: %s" e.Frame.code e.Frame.message

let error_code (r : Frame.response) =
  match r.Frame.result with
  | Ok _ -> Alcotest.fail "expected an error response"
  | Error e -> e.Frame.code

let server_of_records records =
  let srv = Server.create () in
  ignore
    (ok_exn
       (Server.handle srv (Client.submit_deps ~id:1 ~source:"db" ~records ())));
  srv

let submitted_server () = server_of_records table1

let audit_req ~id ?options servers = Client.audit ~id ?options ~servers ()

let test_server_audit_matches_batch () =
  let srv = submitted_server () in
  let served =
    ok_exn (Server.handle srv (audit_req ~id:2 [ "S1"; "S2" ]))
  in
  (* The serving path answers with exactly the batch pipeline's report
     JSON: same DepDB, same request defaults, same seed (42). *)
  let direct =
    let db = Depdb.of_string table1 in
    let request =
      Sia_audit.request ~required:1
        ~algorithm:(Sia_audit.Auto_rg { max_family = None })
        ~ranking:Sia_audit.Size_based [ "S1"; "S2" ]
    in
    Sia_report.deployment_to_json
      (Sia_audit.audit ~rng:(Prng.of_int 42) db request)
  in
  check json "byte-identical report" direct served

let test_server_caches_repeats () =
  let srv = submitted_server () in
  let first = ok_exn (Server.handle srv (audit_req ~id:2 [ "S1"; "S2" ])) in
  let second = ok_exn (Server.handle srv (audit_req ~id:3 [ "S1"; "S2" ])) in
  check json "same payload" first second;
  let s = Server.cache_stats srv in
  check Alcotest.int "one computation" 1 s.Cache.misses;
  check Alcotest.int "one hit" 1 s.Cache.hits;
  (* A different spec is a different entry. *)
  let options = { Client.audit_options with required = Some 2 } in
  ignore (ok_exn (Server.handle srv (audit_req ~id:4 ~options [ "S1"; "S2" ])));
  check Alcotest.int "distinct spec misses" 2 (Server.cache_stats srv).Cache.misses

let test_server_delta_invalidates_exactly () =
  let srv = Server.create () in
  let submit ~id ~snapshot ~source records =
    ok_exn (Server.handle srv (Client.submit_deps ~id ~snapshot ~source ~records ()))
  in
  ignore (submit ~id:1 ~snapshot:"a" ~source:"db" table1);
  ignore (submit ~id:2 ~snapshot:"b" ~source:"db" table1);
  let audit ~id snapshot =
    let options = { Client.audit_options with snapshot = Some snapshot } in
    ok_exn (Server.handle srv (audit_req ~id ~options [ "S1"; "S2" ]))
  in
  ignore (audit ~id:3 "a");
  ignore (audit ~id:4 "b");
  (* A delta to snapshot "a" orphans exactly its entry... *)
  let result =
    submit ~id:5 ~snapshot:"a" ~source:"hw2"
      {|<hw="S1" type="NIC" dep="S1-nic"/>|}
  in
  check json "one entry invalidated" (Json.Int 1)
    (Option.get (Json.member "invalidated" result));
  (* ...so "b" still hits while "a" recomputes. *)
  ignore (audit ~id:6 "b");
  ignore (audit ~id:7 "a");
  let s = Server.cache_stats srv in
  check Alcotest.int "b cached across the delta" 1 s.Cache.hits;
  check Alcotest.int "a recomputed" 3 s.Cache.misses;
  (* A no-op delta (same record set) keeps the digest and the cache. *)
  let result = submit ~id:8 ~snapshot:"b" ~source:"db" table1 in
  check json "no-op delta invalidates nothing" (Json.Int 0)
    (Option.get (Json.member "invalidated" result));
  ignore (audit ~id:9 "b");
  check Alcotest.int "still cached" 2 (Server.cache_stats srv).Cache.hits

let test_server_error_responses () =
  let srv = submitted_server () in
  let code req = error_code (Server.handle srv req) in
  check Alcotest.string "unknown method" "unknown-method"
    (code (req ~id:2 "frobnicate"));
  check Alcotest.string "unsupported version" "unsupported-version"
    (code (req ~id:3 ~version:2 "stats"));
  check Alcotest.string "unknown snapshot" "unknown-snapshot"
    (code
       (audit_req ~id:4
          ~options:{ Client.audit_options with snapshot = Some "nope" }
          [ "S1" ]));
  check Alcotest.string "missing servers" "bad-request"
    (code (req ~id:5 "audit"));
  check Alcotest.string "empty servers" "bad-request"
    (code (req ~id:6 "audit" ~params:(Json.Obj [ ("servers", Json.List []) ])));
  check Alcotest.string "unknown server" "bad-request"
    (code (audit_req ~id:7 [ "S1"; "Nope" ]));
  check Alcotest.string "bad algorithm" "bad-request"
    (code
       (Client.request ~id:8 ~meth:"audit"
          [
            ("servers", Json.List [ Json.String "S1" ]);
            ("algorithm", Json.String "quantum");
          ]));
  check Alcotest.string "unparsable records" "bad-request"
    (error_code
       (Server.handle srv
          (Client.submit_deps ~id:9 ~source:"db" ~records:"<garbage" ())))

(* A client that still sends the retired engine and family-budget
   keys gets the bare request's bytes, from the bare request's cache
   entry. *)
let test_server_ignores_retired_keys () =
  let srv = submitted_server () in
  let servers = Json.List [ Json.String "S1"; Json.String "S2" ] in
  let bare = Client.request ~id:2 ~meth:"audit" [ ("servers", servers) ] in
  let old =
    Client.request ~id:2 ~meth:"audit"
      [
        ("servers", servers);
        ("engine", Json.String "enum");
        ("max-family", Json.Int 1);
      ]
  in
  let bytes req = Frame.encode_response (Server.handle srv req) in
  let first = bytes bare in
  check Alcotest.string "identical bytes" first (bytes old);
  let s = Server.cache_stats srv in
  check Alcotest.int "one computation" 1 s.Cache.misses;
  check Alcotest.int "old client hits" 1 s.Cache.hits

(* Zero sampling rounds would find no RG and report a clean
   deployment; the daemon refuses the request instead. *)
let test_server_zero_rounds_is_bad_request () =
  let srv = submitted_server () in
  let options =
    {
      Client.audit_options with
      algorithm = Some Params.Sampling;
      rounds = Some 0;
    }
  in
  check Alcotest.string "audit" "bad-request"
    (error_code (Server.handle srv (audit_req ~id:2 ~options [ "S1"; "S2" ])));
  check Alcotest.string "rg-query" "bad-request"
    (error_code
       (Server.handle srv
          (Client.rg_query ~id:3 ~options ~servers:[ "S1"; "S2" ] ())))

let example_records name = Fixtures.read_file (Fixtures.example_path name)

let strings_of = function
  | Json.List items ->
      List.map (function Json.String s -> s | _ -> Alcotest.fail "string") items
  | _ -> Alcotest.fail "list of strings"

(* rg-query follows the request's algorithm: under sampling it returns
   the RG set the batch sampling audit finds at the same seed and
   rounds, not the exact family. *)
let test_rg_query_sampling_matches_batch () =
  let records = example_records "fattree-k4.xml" in
  let srv = server_of_records records in
  let db = Depdb.of_string records in
  let servers = [ "server0"; "server4" ] in
  List.iteri
    (fun i rounds ->
      let options =
        {
          Client.audit_options with
          algorithm = Some Params.Sampling;
          rounds = Some rounds;
        }
      in
      let served =
        ok_exn
          (Server.handle srv (Client.rg_query ~id:(i + 2) ~options ~servers ()))
      in
      let served =
        match Json.member "risk_groups" served with
        | Some (Json.List rgs) -> List.sort compare (List.map strings_of rgs)
        | _ -> Alcotest.fail "risk_groups"
      in
      let p =
        { Params.default with servers; algorithm = Params.Sampling; rounds }
      in
      let report =
        Sia_audit.audit ~rng:(Prng.of_int p.seed) db (Params.request p)
      in
      let batch =
        List.sort compare
          (List.map (fun r -> r.Sia_rank.rg_names) report.Sia_audit.ranked)
      in
      check
        Alcotest.(list (list string))
        (Printf.sprintf "rounds %d" rounds)
        batch served)
    [ 1; 3; 200 ]

(* Candidate sets are keyed as nested lists: a deployment containing a
   server named ";" is not the two deployments it separates. *)
let test_compare_keys_nested_candidates () =
  let records =
    String.concat "\n"
      [
        {|<src="a" dst="I" route="sw1"/>|};
        {|<src=";" dst="I" route="sw2"/>|};
        {|<src="b" dst="I" route="sw1"/>|};
      ]
  in
  let srv = server_of_records records in
  let compare ~id candidates =
    ok_exn (Server.handle srv (Client.compare_deployments ~id ~candidates ()))
  in
  ignore (compare ~id:2 [ [ "a"; ";"; "b" ] ]);
  let candidates = [ [ "a" ]; [ "b" ] ] in
  let served = compare ~id:3 candidates in
  check Alcotest.int "second request misses" 2
    (Server.cache_stats srv).Cache.misses;
  let batch =
    Sia_report.comparison_to_json
      (Sia_audit.audit_candidates
         ~rng:(Prng.of_int Params.default.seed)
         (Depdb.of_string records) ~candidates
         (Params.request Params.default))
  in
  check json "batch compare" batch served

(* --- serve output equals batch output ------------------------------------- *)

(* A random audit of one example DepDB: every field of the spec is
   either stated on the wire or left out, so the daemon's defaults must
   be {!Params.default}, the CLI's. Deployments have 1-2 servers: a
   3-way cross-pod fat-tree deployment under probability ranking takes
   ~0.3 s (Monte-Carlo Pr(T)). *)
type served_case = {
  example : string;
  servers : string list;
  candidates : string list list;
  options : Client.audit_options;
}

let example_machines =
  [
    ("figure2.xml", [ "S1"; "S2" ]);
    ("fattree-k4.xml", List.init 16 (Printf.sprintf "server%d"));
  ]

let gen_served_case =
  let open QCheck.Gen in
  let* example, machines = oneofl example_machines in
  let deployment =
    let* n = int_range 1 2 in
    map (List.filteri (fun i _ -> i < n)) (shuffle_l machines)
  in
  let* servers = deployment in
  let* candidates = list_size (int_range 1 3) deployment in
  let* required = opt (int_range 1 2) in
  let* algorithm = opt (oneofl (List.map snd Params.algorithms)) in
  let* rounds = opt (int_range 1 50) in
  let* prob = opt (float_range 0.01 0.5) in
  let+ seed = opt (int_bound 10_000) in
  {
    example;
    servers;
    candidates;
    options =
      {
        Client.audit_options with
        required;
        algorithm;
        rounds;
        prob;
        seed;
      };
  }

let arb_served_case =
  QCheck.make gen_served_case ~print:(fun c ->
      Printf.sprintf "%s %s"
        c.example
        (Json.to_string
           (Client.compare_deployments ~id:0 ~options:c.options
              ~candidates:(c.servers :: c.candidates) ())
             .Frame.params))

let params_of_options servers (o : Client.audit_options) =
  let d = Params.default in
  let ( |? ) v default = Option.value v ~default in
  {
    Params.servers;
    required = o.required |? d.required;
    algorithm = o.algorithm |? d.algorithm;
    rounds = o.rounds |? d.rounds;
    prob = o.prob;
    seed = o.seed |? d.seed;
  }

(* One daemon per example, reused across cases, so hits are checked
   as well as misses. *)
let example_servers =
  lazy
    (List.map
       (fun (example, _) ->
         let records = example_records example in
         (example, (server_of_records records, Depdb.of_string records)))
       example_machines)

(* Both sides as bytes, or as the error code the daemon maps the batch
   path's exception to. *)
let served srv req =
  match (Server.handle srv req).Frame.result with
  | Ok payload -> Ok (Json.to_string payload)
  | Error e -> Error e.Frame.code

let batch f =
  match f () with
  | json -> Ok (Json.to_string json)
  | exception Invalid_argument _ -> Error "bad-request"
  | exception Failure _ -> Error "audit-error"

let prop_serve_audit_equals_batch =
  QCheck.Test.make ~name:"served audit equals the batch report" ~count:150
    arb_served_case (fun c ->
      let srv, db = List.assoc c.example (Lazy.force example_servers) in
      let p = params_of_options c.servers c.options in
      served srv (Client.audit ~id:1 ~options:c.options ~servers:c.servers ())
      = batch (fun () ->
            Sia_report.deployment_to_json
              (Sia_audit.audit ~rng:(Prng.of_int p.seed) db
                 (Params.request p))))

let prop_serve_compare_equals_batch =
  QCheck.Test.make ~name:"served compare equals the batch ranking" ~count:100
    arb_served_case (fun c ->
      let srv, db = List.assoc c.example (Lazy.force example_servers) in
      let p = params_of_options [] c.options in
      served srv
        (Client.compare_deployments ~id:1 ~options:c.options
           ~candidates:c.candidates ())
      = batch (fun () ->
            Sia_report.comparison_to_json
              (Sia_audit.audit_candidates ~rng:(Prng.of_int p.seed) db
                 ~candidates:c.candidates (Params.request p))))

(* --- a miss reads only the deployment's records -------------------------- *)

(* Random multi-source snapshots over servers m0-m4: each record goes
   to one or two sources, so a record often sits in two sources (or
   twice in one); routes name devices and other servers; m4 and "ghost"
   own no records. Queries audit, rg-query or compare deployments of
   those servers. Steps then ask queries from the pool (so repeats hit
   the cache) between [submit-deps] deltas that replace one source's
   records (or add a source). *)
type footprint_query =
  | Audit of string list
  | Rg_query of string list
  | Compare of string list list

type footprint_step = Ask of int | Delta of string * Dependency.t list

type footprint_case = {
  sources : (string * Dependency.t list) list;
  queries : (footprint_query * Client.audit_options) list;
  steps : footprint_step list;
}

let footprint_request id (query, options) =
  match query with
  | Audit servers -> Client.audit ~id ~options ~servers ()
  | Rg_query servers -> Client.rg_query ~id ~options ~servers ()
  | Compare candidates -> Client.compare_deployments ~id ~options ~candidates ()

let gen_footprint_case =
  let open QCheck.Gen in
  let owner = map (Printf.sprintf "m%d") (int_bound 3) in
  let server =
    frequency [ (16, owner); (1, return "m4"); (1, return "ghost") ]
  in
  let device = oneof [ map (Printf.sprintf "d%d") (int_bound 5); server ] in
  let package = map (Printf.sprintf "p%d") (int_bound 3) in
  let record =
    oneof
      [
        map2
          (fun src route -> Dependency.network ~src ~dst:"I" ~route)
          owner
          (list_size (int_range 1 3) device);
        map2
          (fun hw dep -> Dependency.hardware ~hw ~hw_type:"Disk" ~dep)
          owner device;
        map2
          (fun (pgm, host) deps -> Dependency.software ~pgm ~host ~deps)
          (pair package owner)
          (list_size (int_bound 2) package);
      ]
  in
  (* Every owner has a disk, so most deployments can be built. *)
  let* disks =
    flatten_l
      (List.init 4 (fun i ->
           map
             (fun dep ->
               Dependency.hardware ~hw:(Printf.sprintf "m%d" i) ~hw_type:"Disk"
                 ~dep)
             device))
  in
  let* extra = list_size (int_bound 10) record in
  let* names = shuffle_l [ "apt"; "lshw"; "nsd" ] in
  let* n = int_range 1 3 in
  let* placed =
    flatten_l
      (List.map
         (fun r ->
           map
             (List.map (fun i -> (i, r)))
             (list_size (int_range 1 2) (int_bound (n - 1))))
         (disks @ extra))
  in
  let placed = List.concat placed in
  let sources =
    List.filteri (fun i _ -> i < n) names
    |> List.mapi (fun i name ->
           ( name,
             List.filter_map
               (fun (j, r) -> if i = j then Some r else None)
               placed ))
  in
  let deployment = list_size (int_range 1 3) server in
  let query =
    oneof
      [
        map (fun s -> Audit s) deployment;
        map (fun s -> Rg_query s) deployment;
        map (fun c -> Compare c) (list_size (int_range 1 3) deployment);
      ]
  in
  let options =
    let* required = opt (int_range 1 2) in
    let* algorithm = opt (oneofl (List.map snd Params.algorithms)) in
    let+ seed = opt (int_bound 10_000) in
    { Client.audit_options with required; algorithm; seed }
  in
  let* queries = list_size (int_range 1 4) (pair query options) in
  let step =
    frequency
      [
        (3, map (fun i -> Ask i) (int_bound (List.length queries - 1)));
        ( 1,
          map2
            (fun source records -> Delta (source, records))
            (oneofl [ "apt"; "lshw"; "nsd" ])
            (list_size (int_bound 6) record) );
      ]
  in
  let+ steps = list_size (int_range 1 8) step in
  { sources; queries; steps }

let arb_footprint_case =
  QCheck.make gen_footprint_case ~print:(fun c ->
      let source (name, records) =
        Printf.sprintf "-- %s\n%s" name (Dependency.to_xml_many records)
      in
      String.concat "\n"
        (List.map source c.sources
        @ List.mapi
            (fun i q ->
              Printf.sprintf "q%d %s" i
                (Json.to_string (Frame.request_to_json (footprint_request 0 q))))
            c.queries
        @ List.map
            (function
              | Ask i -> Printf.sprintf "ask q%d" i
              | Delta (name, records) -> "delta " ^ source (name, records))
            c.steps))

(* The batch path over the snapshot's whole union, for one query. *)
let batch_of_union db (query, options) =
  match query with
  | Audit servers ->
      let p = params_of_options servers options in
      batch (fun () ->
          Sia_report.deployment_to_json
            (Sia_audit.audit ~rng:(Prng.of_int p.seed) db (Params.request p)))
  | Rg_query servers ->
      let p = params_of_options servers options in
      batch (fun () ->
          let { Sia_audit.spec; algorithm; _ } = Params.request p in
          let graph = Builder.build db spec in
          let rgs =
            Sia_audit.risk_groups ~rng:(Prng.of_int p.seed) algorithm graph
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
                            (fun n -> Json.String n)
                            (Indaas_faultgraph.Cutset.names graph rg)))
                     rgs) );
            ])
  | Compare candidates ->
      let p = params_of_options [] options in
      batch (fun () ->
          Sia_report.comparison_to_json
            (Sia_audit.audit_candidates ~rng:(Prng.of_int p.seed) db
               ~candidates (Params.request p)))

(* The cache-key spec of a query, as the daemon digests it. *)
let footprint_spec (query, options) =
  let meth, candidates, p =
    match query with
    | Audit servers -> ("audit", None, params_of_options servers options)
    | Rg_query servers -> ("rg-query", None, params_of_options servers options)
    | Compare c -> ("compare", Some c, params_of_options [] options)
  in
  Json.to_string (Params.spec_json ~meth ?candidates p)

(* Every answer, hit or miss, equals the batch path over the current
   union; and a delta that changes the snapshot digest drops exactly
   the entries answered since the previous change. *)
let prop_footprint_equals_union =
  QCheck.Test.make ~name:"a footprint miss answers as the union would"
    ~count:300 arb_footprint_case (fun c ->
      let srv = Server.create () and store = Snapshot.create () in
      let submit ~id source records =
        let records = Dependency.to_xml_many records in
        ignore
          (Snapshot.update store ~snapshot:"default" ~source
             (Dependency.of_xml_many records));
        ok_exn
          (Server.handle srv (Client.submit_deps ~id ~source ~records ()))
      in
      List.iteri (fun i (source, records) -> ignore (submit ~id:i source records))
        c.sources;
      let union () = (Option.get (Snapshot.get store ~snapshot:"default")).db in
      let digest () = Snapshot.digest store ~snapshot:"default" in
      let machines = [ "m0"; "m1"; "m2"; "m3"; "m4"; "ghost" ] in
      let footprint_matches () =
        let union = union () in
        let foot =
          Option.get (Snapshot.footprint store ~snapshot:"default" ~machines)
        in
        List.for_all
          (fun machine ->
            Depdb.network_paths foot ~src:machine
            = Depdb.network_paths union ~src:machine
            && Depdb.hardware_of foot ~machine
               = Depdb.hardware_of union ~machine
            && Depdb.software_on foot ~machine
               = Depdb.software_on union ~machine)
          machines
      in
      (* Specs answered, hence cached, under the current digest. *)
      let cached = ref [] in
      let entries_match () =
        (Server.cache_stats srv).Cache.entries = List.length !cached
      in
      let ask q =
        let answer = served srv (footprint_request 1 q) in
        let spec = footprint_spec q in
        if Result.is_ok answer && not (List.mem spec !cached) then
          cached := spec :: !cached;
        answer = batch_of_union (union ()) q && entries_match ()
      in
      let step = function
        | Ask i -> ask (List.nth c.queries i)
        | Delta (source, records) ->
            let old = digest () in
            let reply = submit ~id:1 source records in
            let dropped = if digest () = old then 0 else List.length !cached in
            if dropped > 0 then cached := [];
            Json.member "invalidated" reply = Some (Json.Int dropped)
            && entries_match () && footprint_matches ()
      in
      footprint_matches ()
      && List.for_all ask c.queries
      && List.for_all step c.steps)

(* Serving over the loopback: write the whole request stream, serve it
   in reads of at most [chunk] bytes, then collect the response bytes. *)
let serve_bytes ?config ?chunk bytes =
  let a, b = Transport.loopback ?chunk () in
  a.Transport.write bytes;
  a.Transport.close ();
  let srv = Server.create ?config () in
  Server.serve srv b;
  let buf = Bytes.create 4096 in
  let out = Buffer.create 256 in
  let rec pump () =
    let n = a.Transport.read buf 0 (Bytes.length buf) in
    if n > 0 then begin
      Buffer.add_subbytes out buf 0 n;
      pump ()
    end
  in
  pump ();
  Buffer.contents out

let encode_requests reqs =
  String.concat "" (List.map Frame.encode_request reqs)

let standard_session =
  lazy
    (encode_requests
       [
         Client.submit_deps ~id:1 ~source:"db" ~records:table1 ();
         audit_req ~id:2 [ "S1"; "S2" ];
         audit_req ~id:3 [ "S1"; "S2" ];
         Client.stats ~id:4;
         Client.shutdown ~id:5;
       ])

let test_serve_end_to_end () =
  let responses =
    Client.decode_responses (serve_bytes (Lazy.force standard_session))
  in
  check Alcotest.(list int) "arrival order, one response each"
    [ 1; 2; 3; 4; 5 ]
    (List.map (fun (r : Frame.response) -> r.Frame.id) responses);
  List.iter (fun r -> ignore (ok_exn r)) responses;
  let payload i = ok_exn (List.nth responses i) in
  check json "repeat served the cached payload" (payload 1) (payload 2);
  let stats = payload 3 in
  let cache = Option.get (Json.member "cache" stats) in
  check json "hit visible in stats" (Json.Int 1)
    (Option.get (Json.member "hits" cache))

let test_serve_deterministic () =
  let bytes = Lazy.force standard_session in
  check Alcotest.string "responses byte-identical across runs"
    (serve_bytes bytes) (serve_bytes bytes)

let test_serve_truncated_stream () =
  let bytes = Lazy.force standard_session in
  let truncated = String.sub bytes 0 (String.length bytes - 3) in
  let responses = Client.decode_responses (serve_bytes truncated) in
  (* Complete frames are still answered; the torn tail earns a final
     id = -1 bad-frame error. *)
  let last = List.nth responses (List.length responses - 1) in
  check Alcotest.int "sentinel id" (-1) last.Frame.id;
  check Alcotest.string "bad-frame" "bad-frame" (error_code last);
  check Alcotest.int "other requests still served"
    4
    (List.length (List.filter (fun (r : Frame.response) ->
         match r.Frame.result with Ok _ -> true | Error _ -> false) responses))

let test_serve_sheds_over_capacity () =
  let config = { Server.default_config with max_queue = 2 } in
  let bytes =
    encode_requests
      [
        audit_req ~id:1 [ "S1" ];
        audit_req ~id:2 [ "S1"; "S2" ];
        audit_req ~id:3 [ "S2" ];
      ]
  in
  let responses = Client.decode_responses (serve_bytes ~config bytes) in
  let codes =
    List.map
      (fun (r : Frame.response) ->
        match r.Frame.result with
        | Ok _ -> "ok"
        | Error e -> e.Frame.code)
      responses
  in
  (* No snapshot was ever submitted, so admitted requests fail with
     unknown-snapshot — but the third never even runs. *)
  check Alcotest.(list string) "admission control"
    [ "unknown-snapshot"; "unknown-snapshot"; "overloaded" ] codes

(* A deadline the scheduler cannot honour is the request's error,
   answered in arrival order; the requests around it still run. *)
let test_serve_rejects_bad_deadline () =
  let with_deadline ~id deadline =
    let req = audit_req ~id [ "S1"; "S2" ] in
    match req.Frame.params with
    | Json.Obj fields ->
        { req with Frame.params = Json.Obj (("deadline", deadline) :: fields) }
    | _ -> Alcotest.fail "audit params are an object"
  in
  let bytes =
    encode_requests
      [
        Client.submit_deps ~id:1 ~source:"db" ~records:table1 ();
        with_deadline ~id:2 (Json.String "soon");
        with_deadline ~id:3 (Json.Float (-1.));
        audit_req ~id:4 [ "S1"; "S2" ];
        with_deadline ~id:5 (Json.Int 10);
      ]
  in
  let responses = Client.decode_responses (serve_bytes bytes) in
  check Alcotest.(list int) "arrival order" [ 1; 2; 3; 4; 5 ]
    (List.map (fun (r : Frame.response) -> r.Frame.id) responses);
  check Alcotest.(list string) "codes"
    [ "ok"; "bad-request"; "bad-request"; "ok"; "ok" ]
    (List.map
       (fun (r : Frame.response) ->
         match r.Frame.result with Ok _ -> "ok" | Error e -> e.Frame.code)
       responses)

(* A real pipe pair, the server in its own domain: each reply must
   arrive while the client still holds its end open. Client reads wait
   at most 10 s, so a server that answers only at end of input fails
   the test instead of hanging it. *)
let test_serve_streams () =
  let req_r, req_w = Unix.pipe () and resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r
        and oc = Unix.out_channel_of_descr resp_w in
        Server.serve (Server.create ()) (Transport.of_channels ic oc);
        close_in ic;
        close_out oc)
  in
  let client =
    {
      Transport.read =
        (fun buf off len ->
          match Unix.select [ resp_r ] [] [] 10.0 with
          | [], _, _ -> Alcotest.fail "no reply within 10 s of the request"
          | _ -> Unix.read resp_r buf off len);
      write =
        (fun s -> ignore (Unix.write_substring req_w s 0 (String.length s)));
      close = (fun () -> Unix.close req_w);
    }
  in
  let replies =
    Fun.protect
      ~finally:(fun () ->
        client.Transport.close ();
        Domain.join server;
        Unix.close resp_r)
      (fun () ->
        List.map (Client.call client)
          [
            Client.submit_deps ~id:1 ~source:"db"
              ~records:(example_records "figure2.xml") ();
            audit_req ~id:2 [ "S1"; "S2" ];
            Client.shutdown ~id:3;
          ])
  in
  check Alcotest.(list int) "one reply per call, in order" [ 1; 2; 3 ]
    (List.map (fun (r : Frame.response) -> r.Frame.id) replies);
  List.iter (fun r -> ignore (ok_exn r)) replies

(* Three k=8 fat-tree servers in different pods, with routes, lshw
   hardware and a small package closure: a 1-of-3 audit of them has
   thousands of risk groups. *)
let k8_records =
  let tree = Fattree.create ~k:8 in
  let servers = List.map (Fattree.server_name tree) [ 0; 16; 32 ] in
  let lshw = Collectors.lshw (List.map Collectors.standard_profile servers) in
  ( servers,
    Dependency.to_xml_many
      (List.concat_map
         (fun i -> Fattree.network_records tree ~server:i)
         [ 0; 16; 32 ]
      @ lshw.Collectors.collect ()
      @ List.map
          (fun host ->
            Dependency.software ~pgm:"riak" ~host
              ~deps:[ "libc6"; host ^ "-conf" ])
          servers) )

(* A response over the frame limit is answered with an error frame,
   and the frames queued behind it are still served. *)
let test_serve_oversized_response () =
  let servers, records = k8_records in
  let options = { Client.audit_options with required = Some 1 } in
  let one =
    Frame.encode_response
      {
        Frame.id = 2;
        result =
          Ok
            (ok_exn
               (Server.handle (server_of_records records)
                  (Client.audit ~id:2 ~options ~servers ())));
      }
  in
  let repeats = (Frame.max_frame / String.length one) + 1 in
  let responses =
    Client.decode_responses
      (serve_bytes
         (encode_requests
            [
              Client.submit_deps ~id:1 ~source:"db" ~records ();
              Client.compare_deployments ~id:2 ~options
                ~candidates:(List.init repeats (fun _ -> servers))
                ();
              Client.stats ~id:3;
              Client.shutdown ~id:4;
            ]))
  in
  let codes =
    List.map
      (fun (r : Frame.response) ->
        match r.Frame.result with
        | Ok _ -> (r.Frame.id, "ok")
        | Error e -> (r.Frame.id, e.Frame.code))
      responses
  in
  check
    Alcotest.(list (pair int string))
    "the oversized answer is an error, the rest are served"
    [ (1, "ok"); (2, "response-too-large"); (3, "ok"); (4, "ok") ]
    codes

(* --- the serve boundary ------------------------------------------------- *)

(* One session through every method, under the default config so
   nothing is shed. *)
let boundary_session =
  encode_requests
    [
      Client.submit_deps ~id:1 ~source:"db" ~records:table1 ();
      audit_req ~id:2 [ "S1"; "S2" ];
      Client.rg_query ~id:3 ~servers:[ "S1"; "S2" ] ();
      Client.compare_deployments ~id:4 ~candidates:[ [ "S1" ]; [ "S1"; "S2" ] ]
        ();
      Client.stats ~id:5;
      Client.shutdown ~id:6;
    ]

let boundary_responses = lazy (serve_bytes boundary_session)

let prop_serve_chunking_invariant =
  QCheck.Test.make ~name:"served bytes do not depend on read sizes" ~count:100
    QCheck.(int_range 1 8192)
    (fun chunk ->
      serve_bytes ~chunk boundary_session = Lazy.force boundary_responses)

let arb_mutated_session =
  let n = String.length boundary_session in
  QCheck.make
    ~print:(fun (edits, chunk) ->
      Printf.sprintf "chunk %d, edits [%s]" chunk
        (String.concat "; "
           (List.map (fun (i, c) -> Printf.sprintf "%d:%C" i c) edits)))
    QCheck.Gen.(
      pair
        (list_size (int_range 1 4) (pair (int_bound (n - 1)) char))
        (int_range 1 8192))

let prop_serve_survives_mutations =
  QCheck.Test.make ~name:"serve answers corrupted streams with frames"
    ~count:1000 arb_mutated_session (fun (edits, chunk) ->
      let bytes = Bytes.of_string boundary_session in
      List.iter (fun (i, c) -> Bytes.set bytes i c) edits;
      ignore
        (Client.decode_responses
           (serve_bytes ~chunk (Bytes.to_string bytes)));
      true)

let () =
  Alcotest.run "service"
    [
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "concatenated" `Quick test_frame_concatenated;
          Alcotest.test_case "split prefix" `Quick test_frame_split_prefix;
          Alcotest.test_case "protocol errors" `Quick test_frame_protocol_errors;
          Alcotest.test_case "malformed requests" `Quick
            test_frame_malformed_requests;
          qtest prop_chunked_roundtrip;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "versions and deltas" `Quick
            test_snapshot_versions_and_deltas;
          Alcotest.test_case "digest source-invariant" `Quick
            test_snapshot_digest_source_invariant;
          qtest prop_snapshot_matches_rebuild;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits and misses" `Quick test_cache_hits_and_misses;
          Alcotest.test_case "scoped invalidation" `Quick
            test_cache_invalidation_is_scoped;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          qtest prop_cache_matches_model;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "overload shedding" `Quick
            test_scheduler_overload_shedding;
          Alcotest.test_case "virtual deadlines" `Quick
            test_scheduler_deadline_on_virtual_clock;
        ] );
      ( "server",
        [
          Alcotest.test_case "audit matches batch" `Quick
            test_server_audit_matches_batch;
          Alcotest.test_case "caches repeats" `Quick test_server_caches_repeats;
          Alcotest.test_case "delta invalidation" `Quick
            test_server_delta_invalidates_exactly;
          Alcotest.test_case "error responses" `Quick test_server_error_responses;
          Alcotest.test_case "retired keys are ignored" `Quick
            test_server_ignores_retired_keys;
          Alcotest.test_case "zero sampling rounds" `Quick
            test_server_zero_rounds_is_bad_request;
          Alcotest.test_case "rg-query follows the algorithm" `Quick
            test_rg_query_sampling_matches_batch;
          Alcotest.test_case "compare keys nested candidates" `Quick
            test_compare_keys_nested_candidates;
          qtest prop_serve_audit_equals_batch;
          qtest prop_serve_compare_equals_batch;
          qtest prop_footprint_equals_union;
          Alcotest.test_case "serve end to end" `Quick test_serve_end_to_end;
          Alcotest.test_case "serve deterministic" `Quick test_serve_deterministic;
          Alcotest.test_case "truncated stream" `Quick test_serve_truncated_stream;
          Alcotest.test_case "overload over the wire" `Quick
            test_serve_sheds_over_capacity;
          Alcotest.test_case "serve streams over a pipe" `Quick
            test_serve_streams;
          Alcotest.test_case "oversized response" `Quick
            test_serve_oversized_response;
          qtest prop_serve_chunking_invariant;
          qtest prop_serve_survives_mutations;
          Alcotest.test_case "bad deadline is bad-request" `Quick
            test_serve_rejects_bad_deadline;
        ] );
    ]
