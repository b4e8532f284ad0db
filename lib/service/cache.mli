(** The RG/audit result cache.

    Entries are keyed by (snapshot, request spec digest). The server
    names the snapshot by its content digest and its name, so entries
    are per snapshot: two snapshots with one record set do not share
    them. Both digests are canonical, so a resubmission that keeps a
    snapshot's record set keeps its entries, and a delta that changes
    the record set changes the digest, orphaning the old entries. The
    server then calls {!invalidate_snapshot} with the {e old} key to
    reclaim exactly that snapshot's entries and nothing else. It does
    the same when the digest holds but the submitting source's record
    list changed, order included: an answer's RG and name order follow
    the union's record order, which the digest does not see.

    Hits and misses are counted locally (for the [stats] method) and
    mirrored into {!Indaas_obs} as [service.cache.hit] /
    [service.cache.miss], so they surface under [--metrics]. *)

module Json := Indaas_util.Json

type key = {
  snapshot_digest : string;
      (** from the server, {!Snapshot.key}: the snapshot's content
          digest and its name *)
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
