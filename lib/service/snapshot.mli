(** Versioned in-memory DepDB snapshots with incremental delta
    submissions.

    Providers submit dependency records per {e source} (a data-source
    name); a snapshot is the union of its sources' current records.
    Re-submitting one source replaces only that source's records — a
    provider updates one collector's view without re-uploading the
    world. Every accepted submission bumps the snapshot's version and
    recomputes its content digest ({!Indaas_depdata.Depdb.digest}),
    which is what audit result caching keys on: a delta that does not
    change the record set keeps the digest, so cached results stay
    valid.

    Cost model. The store keeps each source's record list plus, per
    snapshot, the digest, union record count and per-source counts,
    all computed once per accepted submission (one union build and
    one digest). {!digest} and {!to_json} only read those stored
    values. The union DepDB is not kept: {!get} rebuilds it on every
    call, so the server calls it only when an audit misses the result
    cache. A cache hit therefore costs a map lookup, the spec digest,
    a cache lookup and response encoding. *)

module Depdb := Indaas_depdata.Depdb
module Dependency := Indaas_depdata.Dependency

type store

type view = {
  name : string;
  version : int;  (** 1 on first submission, +1 per accepted delta *)
  digest : string;  (** canonical content digest of [db] *)
  db : Depdb.t;
      (** union of all sources, merged in source-name order; rebuilt
          by every {!get} *)
  sources : (string * int) list;
      (** source name -> record count, sorted by name *)
}

val create : unit -> store

val submit :
  store -> snapshot:string -> source:string -> Dependency.t list -> view
(** Replace [source]'s records inside [snapshot] (creating either as
    needed) and return the new view. Submitting an empty list drops
    the source. *)

val digest : store -> snapshot:string -> string option
(** The snapshot's stored content digest: a map lookup, no rebuild.
    [None] for an unknown snapshot. *)

val get : store -> snapshot:string -> view option
(** Rebuilds the union DepDB (but not the digest, which is stored). *)

val names : store -> string list
(** Snapshot names, sorted. *)

val to_json : store -> Indaas_util.Json.t
(** Per-snapshot version/digest/record-count/source summary (for the
    [stats] method), snapshots in name order. Reads stored values
    only. *)
