(** Rendering of SIA auditing reports — what the auditing agent
    returns to the client in Step 6 of paper §2.

    The JSON tree of a report shares its leaves: one [String] per
    basic event, and for RGs without probabilities one
    [size]/[probability]/[importance] tail per RG size. The daemon
    caches these trees; sharing keeps them small and changes no byte
    of their encoding. *)

val render_deployment : ?max_rgs:int -> Audit.deployment_report -> string
(** Human-readable report for one deployment: the ranked RG list
    (truncated to [max_rgs], default 20), unexpected RGs, independence
    score and failure probability. *)

val render_comparison : ?max_rows:int -> Audit.deployment_report list -> string
(** Ranking table across candidate deployments, best first — the
    paper's final auditing report. *)

val summary_line : Audit.deployment_report -> string
(** One-line digest: servers, #RGs, #unexpected, score. *)

val deployment_to_json : Audit.deployment_report -> Indaas_util.Json.t
(** Machine-readable form of one deployment report (risk groups with
    sizes/probabilities/importances, unexpected flags, scores). *)

val comparison_to_json : Audit.deployment_report list -> Indaas_util.Json.t
