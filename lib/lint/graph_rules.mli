(** Static checks over fault graphs (paper §4.1.1).

    Checks run over a lightweight {!view} rather than over
    {!Indaas_faultgraph.Graph.t} directly: the sealed graph type
    cannot represent most of the defects these rules look for (its
    builder rejects them at construction time), but a view can — which
    keeps every rule exercisable in tests and lets the linter act as
    defense in depth for graphs deserialized from elsewhere.

    Codes and default severities:
    - [IND-G001] (error) [Kofn k] gate with [k < 1] or [k] exceeding
      the child count.
    - [IND-G002] (error) gate with no children.
    - [IND-G003] (hint) gate with exactly one child (pass-through).
    - [IND-G004] (error) basic-event probability outside \[0, 1\].
    - [IND-G005] (warning) node unreachable from the top event.
    - [IND-G006] (warning) single point of failure: a basic event
      whose lone failure fires the top event — a size-1 risk group
      found without running the cut-set algorithm, by one memoized
      pass that computes, per node, the basic events whose lone
      failure fires it.
    - [IND-G007] (error) fault-graph construction failure; emitted by
      {!Lint.construction_failure}, never by a view rule. *)

type vnode = {
  id : int;
  name : string;
  kind : Indaas_faultgraph.Graph.node_kind;
  children : int list;
}

type view = { nodes : vnode list; top : int }

val of_graph : Indaas_faultgraph.Graph.t -> view
(** The exact node table and top event of a sealed graph. *)

val rules : view Rule.t list

val single_points_of_failure : view -> string list
(** Names of the basic events flagged by [IND-G006], sorted and
    duplicate-free — the SPOF pre-check on its own. *)
