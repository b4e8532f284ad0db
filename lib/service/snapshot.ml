module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Json = Indaas_util.Json
module SM = Map.Make (String)
module SS = Set.Make (String)

type info = {
  version : int;
  digest : string;
  records : int;
  sources : (string * int) list;
}

(* Everything a request needs before it misses the cache is computed
   once per accepted submission and kept beside [by_source]. The union
   DepDB is built on demand instead of kept, so the store's heap stays
   at the size of its record lists. [key] is made once per digest, so
   every cache entry of a snapshot state shares the one string. *)
type snap = { info : info; key : string; by_source : Dependency.t list SM.t }
type store = { mutable snaps : snap SM.t }

type view = {
  name : string;
  version : int;
  digest : string;
  db : Depdb.t;
  sources : (string * int) list;
}

let create () = { snaps = SM.empty }

(* The digest and record count come from the sources' record lists
   (concatenated in name order) through the one canonical-digest
   function; no union DepDB is built to accept a submission. The
   source's old and new lists are compared only when the digest held,
   so a delta that changes the record set pays for no comparison. *)
let update store ~snapshot ~source records =
  let prev = SM.find_opt snapshot store.snaps in
  let prev_version, prev_sources =
    match prev with
    | Some s -> (s.info.version, s.by_source)
    | None -> (0, SM.empty)
  in
  let by_source =
    match records with
    | [] -> SM.remove source prev_sources
    | records -> SM.add source records prev_sources
  in
  let digest, count =
    Depdb.canonical_digest (List.concat_map snd (SM.bindings by_source))
  in
  let info =
    {
      version = prev_version + 1;
      digest;
      records = count;
      sources = SM.bindings (SM.map List.length by_source);
    }
  in
  let key, stale =
    match prev with
    | Some p when p.info.digest = digest ->
        let before =
          Option.value ~default:[] (SM.find_opt source prev_sources)
        in
        ( p.key,
          if List.equal Dependency.equal before records then None
          else Some p.key )
    | Some p -> (digest ^ "@" ^ snapshot, Some p.key)
    | None -> (digest ^ "@" ^ snapshot, None)
  in
  store.snaps <- SM.add snapshot { info; key; by_source } store.snaps;
  (info, stale)

let key store ~snapshot =
  Option.map (fun s -> s.key) (SM.find_opt snapshot store.snaps)

(* Sources merge in name order, so the union DepDB (and with it record
   iteration order everywhere downstream) is a pure function of the
   snapshot's contents, not of submission history. The digest is
   order-invariant anyway; this keeps reports deterministic too. *)
let get store ~snapshot =
  Option.map
    (fun { info; by_source; _ } ->
      let db = Depdb.create () in
      SM.iter (fun _ records -> Depdb.add_all db records) by_source;
      {
        name = snapshot;
        version = info.version;
        digest = info.digest;
        db;
        sources = info.sources;
      })
    (SM.find_opt snapshot store.snaps)

(* The union restricted to [machines]' records: the same scan in the
   same order, so each machine's per-kind record lists (and the
   [server/pathN] gate names they induce) are exactly the union's. *)
let footprint store ~snapshot ~machines =
  Option.map
    (fun { by_source; _ } ->
      let wanted = SS.of_list machines in
      let db = Depdb.create () in
      SM.iter
        (fun _ records ->
          List.iter
            (fun r ->
              if SS.mem (Dependency.subject r) wanted then Depdb.add db r)
            records)
        by_source;
      db)
    (SM.find_opt snapshot store.snaps)

let submit store ~snapshot ~source records =
  ignore (update store ~snapshot ~source records : info * string option);
  Option.get (get store ~snapshot)

let names store = List.map fst (SM.bindings store.snaps)

let info_fields ~snapshot (info : info) =
  [
    ("snapshot", Json.String snapshot);
    ("version", Json.Int info.version);
    ("digest", Json.String info.digest);
    ("records", Json.Int info.records);
    ( "sources",
      Json.Obj (List.map (fun (s, n) -> (s, Json.Int n)) info.sources) );
  ]

let to_json store =
  Json.List
    (List.map
       (fun (name, snap) -> Json.Obj (info_fields ~snapshot:name snap.info))
       (SM.bindings store.snaps))
