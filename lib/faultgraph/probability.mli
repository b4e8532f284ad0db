(** Failure-probability computations over fault graphs (paper
    §4.1.3).

    Basic events are assumed to fail independently with their attached
    probabilities. The audit and importance paths take every [Pr(T)]
    exactly from the BDD ({!Bdd.graph_probability}); this module holds
    the per-RG probability, the relative importance built on [Pr(T)],
    and two reference computations of [Pr(T)] that no audit runs:
    inclusion–exclusion over the minimal risk groups (exact, 2^m
    terms — the test oracle) and Monte-Carlo simulation (an estimate).
    Both are the baselines of the ablation benchmark. *)

exception Missing_probability of string
(** A basic event reachable from the top has no attached probability. *)

val prob_exn : Graph.t -> Graph.node_id -> float
(** The basic event's attached failure probability. Raises
    {!Missing_probability} when it has none. *)

val rg_probability : Graph.t -> Cutset.rg -> float
(** Probability that all events of one RG occur simultaneously. *)

val top_probability_exact :
  ?max_terms:int -> Graph.t -> rgs:Cutset.rg list -> float
(** Inclusion–exclusion over [rgs] (which should be the complete set
    of minimal RGs): the reference oracle. Raises [Invalid_argument]
    when [2^|rgs|] exceeds [max_terms] (default 2^22). *)

val top_probability_mc :
  ?rounds:int -> Indaas_util.Prng.t -> Graph.t -> float
(** Monte-Carlo estimate of [Pr(T)] (default 200_000 rounds): the
    ablation baseline. *)

val relative_importance :
  top_probability:float -> rg_probability:float -> float
(** [I_C = Pr(C) / Pr(T)] as defined in §4.1.3. *)
