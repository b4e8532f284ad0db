module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Json = Indaas_util.Json
module SM = Map.Make (String)

(* Everything a request needs before it misses the cache is computed
   once per accepted submission and kept beside [by_source]. The union
   DepDB is rebuilt on demand instead of kept, so the store's heap
   stays at the size of its record lists. *)
type snap = {
  version : int;
  by_source : Dependency.t list SM.t;
  digest : string;  (** of the union *)
  records : int;  (** union size *)
  sources : (string * int) list;
}

type store = { mutable snaps : snap SM.t }

type view = {
  name : string;
  version : int;
  digest : string;
  db : Depdb.t;
  sources : (string * int) list;
}

let create () = { snaps = SM.empty }

(* Sources merge in name order, so the union DepDB (and with it record
   iteration order everywhere downstream) is a pure function of the
   snapshot's contents, not of submission history. The digest is
   order-invariant anyway; this keeps reports deterministic too. *)
let union by_source =
  let db = Depdb.create () in
  SM.iter (fun _ records -> Depdb.add_all db records) by_source;
  db

let view_of ~name (snap : snap) db =
  {
    name;
    version = snap.version;
    digest = snap.digest;
    db;
    sources = snap.sources;
  }

let submit store ~snapshot ~source records =
  let prev_version, prev_sources =
    match SM.find_opt snapshot store.snaps with
    | Some s -> (s.version, s.by_source)
    | None -> (0, SM.empty)
  in
  let by_source =
    match records with
    | [] -> SM.remove source prev_sources
    | records -> SM.add source records prev_sources
  in
  let db = union by_source in
  let snap =
    {
      version = prev_version + 1;
      by_source;
      digest = Depdb.digest db;
      records = Depdb.size db;
      sources = SM.bindings (SM.map List.length by_source);
    }
  in
  store.snaps <- SM.add snapshot snap store.snaps;
  view_of ~name:snapshot snap db

let digest store ~snapshot =
  Option.map (fun (s : snap) -> s.digest) (SM.find_opt snapshot store.snaps)

let get store ~snapshot =
  Option.map
    (fun snap -> view_of ~name:snapshot snap (union snap.by_source))
    (SM.find_opt snapshot store.snaps)

let names store = List.map fst (SM.bindings store.snaps)

let to_json store =
  Json.List
    (List.map
       (fun (name, (snap : snap)) ->
         Json.Obj
           [
             ("snapshot", Json.String name);
             ("version", Json.Int snap.version);
             ("digest", Json.String snap.digest);
             ("records", Json.Int snap.records);
             ( "sources",
               Json.Obj
                 (List.map (fun (s, n) -> (s, Json.Int n)) snap.sources) );
           ])
       (SM.bindings store.snaps))
