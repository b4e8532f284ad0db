(** Exact hash table from int triples to non-negative ints, the memo
    and hash-consing store of {!Bdd}.

    Open addressing over one flat [int array]: each slot holds the
    three key ints and the value, probed linearly, and the table
    doubles before it is half full. The probes are top-level functions
    of their arguments, not closures built per call, so {!find}
    allocates nothing, and neither does {!add} unless the table
    doubles. *)

type t

val create : int -> t
(** An empty table with room for at least this many slots. *)

val find : t -> int -> int -> int -> int
(** [find t a b c] is the value bound to [(a, b, c)], or [-1]. *)

val add : t -> int -> int -> int -> int -> unit
(** [add t a b c v] binds [(a, b, c)] to [v], replacing any earlier
    binding. Raises [Invalid_argument] when [v < 0]. *)

val reserve : t -> int -> unit
(** [reserve t slots] grows [t] in one step to at least [slots]
    slots, keeping its bindings; nothing when it has that many. A
    table reserved at twice the bindings it will get never doubles on
    the way. *)

val clear : t -> unit
(** Removes every binding and keeps the capacity, in time linear in
    the capacity (nothing when already empty). *)

val length : t -> int
(** Bindings held. *)

val words : t -> int
(** Words of the slot array: 4 per slot. *)
