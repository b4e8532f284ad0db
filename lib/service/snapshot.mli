(** Versioned in-memory DepDB snapshots with incremental delta
    submissions.

    Providers submit dependency records per {e source} (a data-source
    name); a snapshot is the union of its sources' current records.
    Re-submitting one source replaces only that source's records — a
    provider updates one collector's view without re-uploading the
    world. Every accepted submission bumps the snapshot's version and
    recomputes its content digest
    ({!Indaas_depdata.Depdb.canonical_digest} of the sources' records),
    which is what audit result caching keys on. A delta that does not
    change the record set keeps the digest. It keeps cached results
    valid only if it also keeps the submitting source's record list,
    order included: the union's record order fixes the fault graph's
    node ids, and with them the order of the names inside each RG and
    of the RGs of one rank ({!update}).

    Cost model. The store keeps each source's record list plus, per
    snapshot, an {!info}: version, digest, distinct record count and
    per-source counts. {!update} computes it once per accepted
    submission from the sources' record lists: one sort, one
    serialization into a single buffer and one SHA-256 pass, with no
    union DepDB built. {!key} and {!to_json} only read stored
    values. No DepDB is kept. When an audit misses the result cache,
    the server calls {!footprint}: one scan of the stored record lists
    that keeps only the deployment's servers' records (about 44 of
    2816 at k=8), so a miss never builds the union. {!get} still
    builds the whole union on every call. A cache hit costs a map
    lookup, the spec digest, a cache lookup and response encoding. *)

module Depdb := Indaas_depdata.Depdb
module Dependency := Indaas_depdata.Dependency

type store

type info = {
  version : int;  (** 1 on first submission, +1 per accepted delta *)
  digest : string;  (** canonical content digest of the union *)
  records : int;  (** distinct records in the union *)
  sources : (string * int) list;
      (** source name -> record count, sorted by name *)
}
(** What the store keeps per snapshot besides its record lists. *)

type view = {
  name : string;
  version : int;  (** 1 on first submission, +1 per accepted delta *)
  digest : string;  (** canonical content digest of [db] *)
  db : Depdb.t;
      (** union of all sources, merged in source-name order; built by
          every {!get} *)
  sources : (string * int) list;
      (** source name -> record count, sorted by name *)
}

val create : unit -> store

val update :
  store ->
  snapshot:string ->
  source:string ->
  Dependency.t list ->
  info * string option
(** Replace [source]'s records inside [snapshot] (creating either as
    needed) and return the snapshot's new stored values, with the
    snapshot's previous {!key} when the results cached under it no
    longer hold: when the digest changed, and when it did not but
    [source]'s record list changed, order included. [None] on the
    snapshot's first submission and when [source] resubmits its list
    unchanged. Submitting an empty list drops the source. *)

val submit :
  store -> snapshot:string -> source:string -> Dependency.t list -> view
(** {!update} followed by {!get}: the same update, plus a union
    build for the returned view. *)

val key : store -> snapshot:string -> string option
(** The snapshot half of a result-cache key: the stored content
    digest and the snapshot's name, so two snapshots with one record
    set never share an entry. A map lookup, no rebuild; one string per
    digest, made when the digest changes. [None] for an unknown
    snapshot. *)

val get : store -> snapshot:string -> view option
(** Builds the union DepDB (but not the digest, which is stored). *)

val footprint :
  store -> snapshot:string -> machines:string list -> Depdb.t option
(** The DepDB of the snapshot's records whose
    {!Dependency.subject} is in [machines]: added in source-name order
    and then list order, the union's relative order, and deduplicated
    as the union is. [Depdb.network_paths], [hardware_of] and
    [software_on] therefore return exactly what they return on the
    union for every machine in [machines], which is all
    {!Indaas_sia.Builder.build} reads for a deployment of those
    servers. [None] for an unknown snapshot. *)

val names : store -> string list
(** Snapshot names, sorted. *)

val info_fields :
  snapshot:string -> info -> (string * Indaas_util.Json.t) list
(** [snapshot], [version], [digest], [records] and [sources], in that
    order: the body of a [submit-deps] response and of each
    {!to_json} entry. *)

val to_json : store -> Indaas_util.Json.t
(** Per-snapshot version/digest/record-count/source summary (for the
    [stats] method), snapshots in name order. Reads stored values
    only. *)
