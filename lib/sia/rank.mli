(** Risk-group ranking and independence scores (paper §4.1.3–§4.1.4). *)

module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset

type ranked = {
  rg : Cutset.rg;
      (** basic-event ids; {!Cutset.names} gives their names, where a
          caller prints or keys on them *)
  size : int;
  probability : float option;  (** Pr(all events in the RG occur) *)
  importance : float option;  (** I_C = Pr(C)/Pr(T), when weighted *)
}

(** {1 Name order}

    Ties are broken in name order: two RGs compare as the lists
    [Cutset.names g rg] do under [compare], element by element in
    each RG's own (id) order, a proper prefix first. The ranking does
    not build those lists. It sorts the graph's basic events by name
    once (names are unique in a graph) and compares the RGs' ids by
    their places in that sort. Both rankings are stable. *)

val size_based : Graph.t -> Cutset.rg list -> ranked list
(** Ascending by size (smallest — most alarming — first); ties in
    name order. [probability]/[importance] are [None]. *)

val probability_based :
  top_probability:float -> Graph.t -> Cutset.rg list -> ranked list
(** Descending by relative importance [I_C = Pr(C)/top_probability],
    where [top_probability] is the deployment's exact [Pr(T)]
    ({!Indaas_faultgraph.Bdd.graph_probability}); ties in name order.
    When it is [0.] (a zero or underflowing component probability),
    every [Pr(C)] is [0.] too and every importance is [0.]. Requires
    every RG event to carry a
    probability ({!Indaas_faultgraph.Probability.Missing_probability}
    otherwise). *)

val independence_score_size : ?top_n:int -> ranked list -> float
(** [indep(R) = Σ size(c_i)] over the first [top_n] ranked RGs
    (default: all). Higher = more independent. *)

val independence_score_importance : ?top_n:int -> ranked list -> float
(** [indep(R) = Σ I_{c_i}] over the first [top_n] ranked RGs. Lower =
    more independent (the mass is concentrated in unlikely RGs).
    Raises [Invalid_argument] if importances are missing. *)

val unexpected : expected_size:int -> ranked list -> ranked list
(** The RGs strictly smaller than the deployment's intended RG size —
    the unexpected RGs of §1. *)
