module Json = Indaas_util.Json
module Obs = Indaas_obs.Registry

type key = {
  snapshot_digest : string;
  spec_digest : string;
  engine : string;
  budget : int option;
}

module IM = Map.Make (Int)

type entry = { value : Json.t; mutable used : int }

(* [recency] indexes every entry by its [used] tick, so the least
   recently used entry is the minimum binding: touch and eviction are
   O(log n) instead of a scan of the table. *)
type t = {
  capacity : int;
  table : (key, entry) Hashtbl.t;
  mutable recency : key IM.t;
  mutable tick : int;  (** recency counter — deterministic LRU order *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidated : int;
  mutable evicted : int;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be positive";
  {
    capacity;
    table = Hashtbl.create 64;
    recency = IM.empty;
    tick = 0;
    hits = 0;
    misses = 0;
    invalidated = 0;
    evicted = 0;
  }

(* Ticks start at 1, so a fresh entry's [used = 0] is in no binding. *)
let touch t key e =
  t.tick <- t.tick + 1;
  t.recency <- IM.add t.tick key (IM.remove e.used t.recency);
  e.used <- t.tick

let remove t key e =
  Hashtbl.remove t.table key;
  t.recency <- IM.remove e.used t.recency

let find t key =
  match Hashtbl.find_opt t.table key with
  | Some e ->
      t.hits <- t.hits + 1;
      Obs.incr "service.cache.hit";
      touch t key e;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr "service.cache.miss";
      None

let evict_lru t =
  match IM.min_binding_opt t.recency with
  | Some (_, key) ->
      remove t key (Hashtbl.find t.table key);
      t.evicted <- t.evicted + 1;
      Obs.incr "service.cache.evicted"
  | None -> ()

let add t key value =
  (match Hashtbl.find_opt t.table key with
  | Some e -> remove t key e
  | None -> if Hashtbl.length t.table >= t.capacity then evict_lru t);
  let e = { value; used = 0 } in
  touch t key e;
  Hashtbl.replace t.table key e

let invalidate_snapshot t ~digest =
  let doomed =
    Hashtbl.fold
      (fun key e acc ->
        if key.snapshot_digest = digest then (key, e) :: acc else acc)
      t.table []
  in
  List.iter (fun (key, e) -> remove t key e) doomed;
  let n = List.length doomed in
  t.invalidated <- t.invalidated + n;
  if n > 0 then Obs.incr ~by:n "service.cache.invalidated";
  n

type stats = {
  entries : int;
  hits : int;
  misses : int;
  invalidated : int;
  evicted : int;
}

let stats t =
  {
    entries = Hashtbl.length t.table;
    hits = t.hits;
    misses = t.misses;
    invalidated = t.invalidated;
    evicted = t.evicted;
  }

let stats_to_json s =
  Json.Obj
    [
      ("entries", Json.Int s.entries);
      ("hits", Json.Int s.hits);
      ("misses", Json.Int s.misses);
      ("invalidated", Json.Int s.invalidated);
      ("evicted", Json.Int s.evicted);
    ]
