(** Component importance measures from classic fault-tree analysis
    (Vesely et al., the Fault Tree Handbook the paper adapts).

    The paper ranks {e risk groups} by relative importance (§4.1.3);
    these complementary measures rank {e individual components}, which
    is what an operator fixes:

    - {b Birnbaum} importance: [Pr(T | c failed) − Pr(T | c working)]
      — how much the component's state moves the top event. Computed
      exactly on the BDD.
    - {b Fussell–Vesely} importance: [Pr(∪ RGs containing c) / Pr(T)]
      — the share of system failure risk flowing through the
      component. Exact: the union of the minimal RGs containing the
      component is compiled into the graph's BDD ({!Bdd.of_family}),
      so there is no 2^m inclusion–exclusion term.

    Each call compiles the graph's BDD once and reads [Pr(T)], the
    Birnbaum conditionals and the Fussell–Vesely numerators from it.

    All functions require every reachable basic event to carry a
    failure probability
    ({!Probability.Missing_probability} otherwise). *)

type component_importance = {
  component : Graph.node_id;
  component_name : string;
  birnbaum : float;
  fussell_vesely : float;
}

val birnbaum : Graph.t -> component:Graph.node_id -> float
(** Exact, via BDD conditioning. *)

val fussell_vesely :
  Graph.t -> rgs:Cutset.rg list -> component:Graph.node_id -> float
(** [rgs] must be the complete minimal RG list. [0.] when
    [Pr(T) = 0]. *)

val rank_components : Graph.t -> rgs:Cutset.rg list -> component_importance list
(** All reachable basic events, sorted by Birnbaum importance
    descending (ties by name). *)

val render : component_importance list -> string
(** Report table. *)
