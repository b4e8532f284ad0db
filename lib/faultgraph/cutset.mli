(** Minimal risk groups by exact cut-set analysis (paper §4.1.2,
    “minimal RG algorithm”).

    A risk group (RG) is a set of basic events whose simultaneous
    failure makes the top event occur; it is minimal if no proper
    subset is an RG. The algorithm traverses the fault graph bottom-up
    computing, for each event, its family of minimal cut sets:
    OR-gates take the minimized union of their children's families,
    AND-gates the minimized cross-product, k-of-n gates the minimized
    union over all k-subsets. This is the classic MOCUS-style
    fault-tree procedure; exact, but worst-case exponential (the paper
    notes NP-hardness via Valiant 1979).

    Internally families are packed {!Bitset} words, making the
    absorption hot loop O(words) per subset/union. For graphs dense
    enough to trip the family budget anyway, {!Bdd.minimal_risk_groups}
    computes the same families symbolically. *)

type rg = Graph.node_id array
(** A risk group as a sorted array of basic-event ids. *)

exception Too_many_cut_sets of int
(** Raised when a minimized family size exceeds the configured budget
    — the signal to fall back to {!Bdd.minimal_risk_groups} or
    {!Sampling}. *)

val default_max_family : int
(** The family budget when none is given: 500 000 minimized sets. *)

val minimal_risk_groups :
  ?max_size:int -> ?max_family:int -> Graph.t -> rg list
(** All minimal RGs of the top event, in {!sort_family} order.

    @param max_size discard cut sets larger than this bound during the
    computation (sound for finding all minimal RGs of size up to the
    bound; unbounded by default).
    @param max_family abort with {!Too_many_cut_sets} when any event's
    family {e after absorption} exceeds this many sets (default
    {!default_max_family}). Raw concatenations and cross-products
    that minimize back under the budget do not abort. *)

val compare_rg : rg -> rg -> int
(** Canonical risk-group order: smaller sets first, then
    lexicographically by ids. *)

val sort_family : rg list -> rg list
(** Sorts a family by {!compare_rg} — the canonical order in which
    both RG engines return their results. *)

val names : Graph.t -> rg -> string list
(** Basic-event names of an RG, sorted by id. *)

val is_risk_group : Graph.t -> Graph.node_id list -> bool
(** [is_risk_group g ids] checks by direct evaluation whether failing
    exactly [ids] makes the top event occur. *)

val is_minimal_risk_group : Graph.t -> Graph.node_id list -> bool
(** Checks {!is_risk_group} and that no single removal keeps it one. *)

module RgSet : sig
  (** Collections of risk groups keyed by canonical form. *)

  type t

  val create : unit -> t
  val add : t -> rg -> unit
  val mem : t -> rg -> bool
  val cardinal : t -> int
  val to_list : t -> rg list
end
