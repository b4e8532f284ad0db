(** Periodic re-auditing and drift detection.

    The paper's client "might also request periodic audits on a
    deployed configuration to identify correlated failure risks that
    configuration changes or evolution might introduce" (§2). This
    module compares successive SIA reports of the same deployment and
    surfaces exactly those regressions: risk groups that appeared,
    disappeared, shrank (got more dangerous) — plus score and
    failure-probability movement. *)

module Audit = Indaas_sia.Audit
module Rank = Indaas_sia.Rank

type change =
  | Unexpected_appeared of Rank.ranked
      (** a new RG below the intended size — the alarm case *)
  | Unexpected_resolved of string list
      (** an unexpected RG from the previous audit is gone *)
  | Risk_group_appeared of Rank.ranked  (** new, but of expected size *)
  | Risk_group_resolved of string list
  | Failure_probability_changed of { before : float; after : float }
      (** only reported when the relative change exceeds 1%. *)

type diff = {
  servers : string list;
  graph : Indaas_faultgraph.Graph.t;
      (** the later audit's fault graph, which names the RGs of the
          [_appeared] changes ({!Indaas_faultgraph.Cutset.names}) *)
  changes : change list;
  regressed : bool;
      (** some [Unexpected_appeared], or failure probability rose *)
}

val diff_reports :
  before:Audit.deployment_report -> after:Audit.deployment_report -> diff
(** Compares two audits of the same deployment (RGs are matched by
    their component-name sets). Raises [Invalid_argument] when the
    server lists differ. *)

val audit_series :
  ?rng:Indaas_util.Prng.t ->
  Indaas_depdata.Depdb.t list ->
  Audit.request ->
  Audit.deployment_report list * diff list
(** [audit_series snapshots request] audits the deployment under each
    successive dependency-database snapshot and returns the reports
    plus the consecutive diffs (length one less than the input).
    Raises [Invalid_argument] on fewer than one snapshot. *)

val render_diff : diff -> string
(** Human-readable change report; ["no changes"] when empty. *)

val first_regression : diff list -> int option
(** Index (into the diff list) of the first regressed diff. *)
