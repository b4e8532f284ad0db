(** The RG/audit result cache.

    Entries are keyed by (snapshot content digest, request spec
    digest) — everything a deterministic audit result is a function
    of. Both digests are canonical, so two
    textually different submissions with equal record sets share
    entries, and a delta submission that changes the record set
    changes the snapshot digest, orphaning the old entries; the server
    then calls {!invalidate_snapshot} with the {e old} digest to
    reclaim exactly the affected snapshot's entries and nothing else.

    Hits and misses are counted locally (for the [stats] method) and
    mirrored into {!Indaas_obs} as [service.cache.hit] /
    [service.cache.miss], so they surface under [--metrics]. *)

module Json := Indaas_util.Json

type key = {
  snapshot_digest : string;
  spec_digest : string;
  engine : string;
  budget : int option;
}
(** [engine] and [budget] are vestiges of the retired engine and
    family-budget request parameters: the server fills them with the
    constants ["auto"] and [None], and the servebench replay builds
    keys with the same values. They stay until that replay is next
    changed; ROADMAP item 3 deletes them. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the entry count (default 1024); inserting past
    it evicts the least recently used entry. Raises
    [Invalid_argument] on a non-positive capacity. *)

val find : t -> key -> Json.t option
(** Counts a hit or a miss, and refreshes recency on hit. *)

val add : t -> key -> Json.t -> unit
(** Inserting an existing key refreshes its value and recency. *)

val invalidate_snapshot : t -> digest:string -> int
(** Drop every entry whose [snapshot_digest] equals [digest]; returns
    how many were dropped (also counted as invalidations). *)

type stats = {
  entries : int;
  hits : int;
  misses : int;
  invalidated : int;  (** entries dropped by {!invalidate_snapshot} *)
  evicted : int;  (** entries dropped by the capacity bound *)
}

val stats : t -> stats
val stats_to_json : stats -> Json.t
