(** The Structural Independence Auditing protocol (paper §4.1):
    build the dependency graph, determine risk groups, rank them, and
    produce a report — for one deployment or across all candidate
    deployments. *)

module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Sampling = Indaas_faultgraph.Sampling

(** RG-determination method (§4.1.2): the exact minimal family, or
    failure sampling. *)
type rg_algorithm =
  | Auto_rg of { max_family : int option }
      (** the exact minimal family. The engine is picked from the
          deployment's server count, the number of the top gate's
          children. With 3 or more (e.g. a 1-of-3, 2-of-3 or 2-of-4
          deployment), whatever the threshold, it runs
          {!Bdd.minimal_risk_groups} directly; with fewer it runs
          {!Cutset.minimal_risk_groups}, falling back to the BDD
          engine when that enumeration's family budget [max_family]
          trips ([None]: {!Cutset.default_max_family}).
          Both engines return the identical family in identical order,
          so the choice never shows in the result; tests trip the
          fallback with a small [max_family]. *)
  | Failure_sampling of Sampling.config  (** linear-time, incomplete *)

val auto_rg : rg_algorithm
(** [Auto_rg] with the default family budget: the CLI's and the
    daemon's exact method. *)

val failure_sampling : rounds:int -> rg_algorithm
(** Sampling with the paper's fair coins and witness shrinking. Raises
    [Invalid_argument] when [rounds < 1]: a run of no rounds finds no
    RG, and its report would read as a clean deployment. *)

val risk_groups :
  ?rng:Indaas_util.Prng.t -> rg_algorithm -> Graph.t -> Cutset.rg list
(** The top event's risk groups (§4.1.2): the minimal family in
    {!Cutset.sort_family} order from [Auto_rg], the distinct RGs found
    by sampling. [rng] drives sampling (default as in
    {!audit}). *)

(** Ranking discipline (§4.1.3). *)
type ranking = Size_based | Probability_based

type request = {
  spec : Builder.spec;
  algorithm : rg_algorithm;
  ranking : ranking;
}

val request :
  ?required:int ->
  ?component_probability:(string -> float option) ->
  ?algorithm:rg_algorithm ->
  ?ranking:ranking ->
  string list ->
  request
(** Defaults: {!auto_rg} (the CLI's and the daemon's engine,
    {!Params.default}), size-based ranking. Every RG counts towards
    the independence score. *)

type deployment_report = {
  servers : string list;
  graph : Graph.t;
  ranked : Rank.ranked list;
  unexpected : Rank.ranked list;
      (** minimal RGs smaller than the intended size — empty for a
          truly independent deployment *)
  independence_score : float;
  failure_probability : float option;
      (** exact [Pr(T)] from the BDD when probability ranking was
          used — whatever the RG algorithm, so sampling does not lower
          it. When [Auto_rg] runs the BDD engine, the family and
          [Pr(T)] come from one compile of the graph; otherwise from
          {!Bdd.graph_probability}. *)
  expected_rg_size : int;
  diagnostics : Indaas_lint.Diagnostic.t list;
      (** static-analysis findings over the deployment's fault graph
          (error and warning severities; hints are dropped) — the
          linter's structural pre-checks attached to every report *)
}

val audit :
  ?rng:Indaas_util.Prng.t -> Indaas_depdata.Depdb.t -> request -> deployment_report
(** Audit one deployment. [rng] drives failure sampling only
    (defaults to a fixed seed for reproducibility); every probability
    in the report is exact. *)

val compare_reports : deployment_report -> deployment_report -> int
(** Deployment preference order for the final report: fewest
    unexpected RGs first, then lower failure probability (when
    available), then higher independence score, then server names. *)

val audit_candidates :
  ?rng:Indaas_util.Prng.t ->
  Indaas_depdata.Depdb.t ->
  candidates:string list list ->
  request ->
  deployment_report list
(** Audits every candidate server set (the request's own server list
    is ignored) and returns the reports best-first. This is how the
    client picks “the most independent redundancy deployment”
    (§4.1.4). *)

val choose_best :
  ?rng:Indaas_util.Prng.t ->
  Indaas_depdata.Depdb.t ->
  candidates:string list list ->
  request ->
  deployment_report
(** First element of {!audit_candidates}. Raises [Invalid_argument]
    on an empty candidate list. *)
