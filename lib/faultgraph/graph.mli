(** Fault graphs: directed acyclic AND/OR/k-of-n dependency structures
    (paper §4.1.1).

    A fault graph has {e basic events} (leaves — individual component
    failures, optionally weighted with a failure probability), {e
    intermediate events} (gates over child events) and one {e top
    event} whose occurrence means the audited redundancy deployment
    fails. The same type also covers the paper's two lower levels of
    detail: a component-set graph is a two-level AND-of-ORs graph with
    unweighted leaves, and a fault-set graph is the same with weighted
    leaves. *)

type node_id = int

(** Gate semantics: how child failures propagate. [Kofn k] fires when
    at least [k] children fail; [And] over [n] children is [Kofn n],
    [Or] is [Kofn 1] — kept distinct for reporting fidelity. *)
type gate = And | Or | Kofn of int

type node_kind =
  | Basic of float option  (** leaf; optional failure probability *)
  | Gate of gate

type node = private {
  id : node_id;
  name : string;
  kind : node_kind;
  children : node_id array;  (** empty iff [kind] is [Basic]. *)
}

type t
(** An immutable, validated fault graph. *)

(** {1 Construction} *)

module Builder : sig
  type graph = t
  type t

  val create : unit -> t

  val add_basic : t -> ?prob:float -> string -> node_id
  (** Adds a leaf. Re-adding an existing basic name returns the
      original id (shared components appear once). Raises
      [Invalid_argument] if the name was previously added as a gate,
      or if [prob] is outside \[0, 1\] or contradicts the probability
      the name was first added with. *)

  val add_gate : t -> name:string -> gate -> node_id list -> node_id
  (** Adds an internal event over existing children. Gate names need
      not be unique. Raises [Invalid_argument] on unknown children, an
      empty child list, or a [Kofn k] with [k < 1] or [k] exceeding
      the child count. *)

  val find_basic : t -> string -> node_id option

  val build : t -> top:node_id -> graph
  (** Seals the graph with [top] as the top event. Nodes unreachable
      from [top] are retained but ignored by analyses. Raises
      [Invalid_argument] if [top] is unknown. *)
end

val of_component_sets : (string * string list) list -> t
(** [of_component_sets [(source, components); ...]] builds the
    two-level AND-of-ORs graph of Figure 4(a): the deployment fails
    when every source fails; a source fails when any of its
    components fails. Components with equal names are shared. *)

val of_fault_sets : (string * (string * float) list) list -> t
(** Same structure with failure probabilities — Figure 4(b). *)

(** {1 Accessors} *)

val top : t -> node_id
val node : t -> node_id -> node
val node_count : t -> int
val basic_ids : t -> node_id array
(** All basic events reachable from the top event, in ascending id
    order ({!Bdd} ranks its variables by this order). *)

val basic_names : t -> string list
val name_of : t -> node_id -> string
val prob_of : t -> node_id -> float option
val find_basic : t -> string -> node_id option
val is_basic : t -> node_id -> bool

val topological_order : t -> node_id array
(** Children before parents; covers exactly the nodes reachable from
    the top event. *)

val component_sets : t -> (string * string list) list
(** Downgrade to the component-set level of detail: for each child of
    the top event, the names of the basic events it (transitively)
    depends on. Component lists are sorted and duplicate-free. *)

val evaluate : t -> failed:(node_id -> bool) -> bool
(** [evaluate g ~failed] computes the top event value given an
    assignment of basic-event failures. *)

val evaluate_into : t -> values:bool array -> unit
(** In-place evaluation for hot loops: [values] is indexed by node id;
    basic entries must be pre-set, gate entries are overwritten. Its
    length must be [node_count g]. *)

val pp : Format.formatter -> t -> unit
(** Structural summary (node and leaf counts, top gate). *)
