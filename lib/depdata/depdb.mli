(** DepDB — the dependency information database each data source
    maintains (paper §3).

    Dependency acquisition modules store adapted records here; the
    auditing agent queries it while building fault graphs (§4.1.1
    Steps 2–6). Purely in-memory, with text import/export in the
    Table 1 wire format. *)

type t

val create : unit -> t

val add : t -> Dependency.t -> unit
(** Idempotent: re-adding an identical record is a no-op. *)

val add_all : t -> Dependency.t list -> unit

val size : t -> int

val records : t -> Dependency.t list
(** All records, in insertion order. *)

val network_paths : t -> src:string -> Dependency.network list
(** All routes recorded for [src] (§4.1.1 Step 5). *)

val hardware_of : t -> machine:string -> Dependency.hardware list
(** All hardware components of [machine] (§4.1.1 Step 4). *)

val software_on : t -> machine:string -> Dependency.software list
(** All software components running on [machine] (§4.1.1 Step 6). *)

val software_named : t -> pgm:string -> Dependency.software list
(** Software records for a program name (across machines). *)

val machines : t -> string list
(** All machines any record is about, sorted, duplicate-free. *)

val component_set : t -> machine:string -> string list
(** Every component identifier [machine] depends on — the
    component-set level of detail (§4.2.3). Sorted, duplicate-free. *)

val to_string : t -> string
(** Table 1 wire format, one record per line. *)

val canonical_digest : Dependency.t list -> string * int
(** The canonical content hash of a record list, and its number of
    distinct records. The hash is lowercase SHA-256 hex over the
    distinct records' wire-format lines ({!Dependency.to_xml}) in
    {!Dependency.compare} order, joined by newlines: one sort, one
    serialization into a single buffer and one SHA-256 pass. It is
    invariant under order and duplicates and changes whenever the
    record set changes. This is the only function that computes it. *)

val digest : t -> string
(** [fst (canonical_digest (records t))]. Snapshot versioning and
    audit result caching key on it. *)

val of_string : string -> t
(** Inverse of {!to_string}; tolerant of separators and prose between
    tags. *)

val merge : t -> t -> t
(** Union of two databases (deduplicated). *)
