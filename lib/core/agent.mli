(** The auditing agent — the mediator of the paper's workflow (§2).

    Given the client's {!Spec.t} and a set of {!data_source}s, the
    agent executes Steps 2–6: it requests dependency data from each
    source (each source runs its acquisition modules), filters it to
    the dependency kinds the client asked about, and runs either
    structural (SIA) or private (PIA) independence auditing, returning
    the final report.

    Every collection runs each module under the retry engine:
    exponential backoff with full jitter on a virtual clock, guarded
    by a per-source circuit breaker, optionally under a fault
    injector. A module that stays down loses its records but not the
    audit, and the {!type:audit_run}'s degradation record accounts
    for every loss. A fault-free collection whose modules all answer
    at their first call spends no retries and is complete. *)

module Depdb = Indaas_depdata.Depdb
module Collectors = Indaas_depdata.Collectors
module Fault = Indaas_resilience.Fault
module Retry = Indaas_resilience.Retry
module Degradation = Indaas_resilience.Degradation

type data_source = {
  source_name : string;
  modules : Collectors.t list;  (** its dependency acquisition modules *)
}

val data_source : name:string -> Collectors.t list -> data_source

type outcome =
  | Sia_outcome of Indaas_sia.Audit.deployment_report list
      (** candidate deployments, best first *)
  | Pia_outcome of Indaas_pia.Audit.report

type audit_run = {
  spec : Spec.t;
  outcome : outcome;
  database : Depdb.t;
      (** the records gathered, filtered to the requested kinds (empty
          for PIA — the agent never sees them) *)
  degradation : Degradation.t;
      (** how complete the collection was; completeness 1 when every
          module answered within its retry budget and nothing was
          dropped *)
}

val collect :
  ?faults:Fault.injector ->
  ?retry:Retry.policy ->
  ?rng:Indaas_util.Prng.t ->
  data_source list ->
  Depdb.t * Degradation.t
(** Steps 2–3: runs every module of every listed source, in order,
    under the retry engine ([retry] defaults to {!Retry.default}) and
    a per-source circuit breaker, wrapping each collector through the
    fault injector when [faults] is given (retry backoff then shares
    the injector's virtual clock). Returns the merged (unfiltered)
    database plus the degradation record; never raises for transient
    module failures ({!Fault.Injected}, [Failure]). [rng] drives the
    retry jitter. *)

val with_degradation :
  Degradation.t ->
  Indaas_sia.Audit.deployment_report ->
  Indaas_sia.Audit.deployment_report
(** Prepends the [IND-R001] diagnostic to the report's diagnostics
    when the collection was degraded; the report unchanged
    otherwise. *)

val run :
  ?rng:Indaas_util.Prng.t ->
  ?rg_algorithm:Indaas_sia.Audit.rg_algorithm ->
  ?pia_protocol:Indaas_pia.Audit.protocol ->
  ?faults:Fault.injector ->
  ?retry:Retry.policy ->
  Spec.t ->
  data_source list ->
  audit_run
(** The full workflow. For SIA metrics each candidate deployment is
    audited over the merged database; for [Jaccard_similarity] each
    source's records stay local — only normalized component sets
    enter the (default P-SOP) private protocol.

    Raises [Invalid_argument] if a specified data source is missing or
    if two sources carry the same name.

    Collection runs through {!collect}, so a module that fails
    transiently is retried, and one that stays down degrades the run
    instead of crashing it: SIA candidates that include a source with
    no records are skipped, and every deployment report of a degraded
    run carries the [IND-R001] diagnostic. PIA providers that never
    answer are excluded (raising [Failure] only if fewer than
    [redundancy] remain), and the private protocol retries each round
    under the same policy, reporting still-failed rounds in the PIA
    report. [faults] injects faults into collection and the P-SOP
    transport; [retry] overrides {!Retry.default}. *)

val render : audit_run -> string
(** The report sent back to the client (Step 6), prefixed with the
    degradation banner when the collection was incomplete. *)

val best_deployment : audit_run -> string list
(** The servers/providers of the top-ranked deployment. *)
