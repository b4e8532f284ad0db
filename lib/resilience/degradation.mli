(** Degradation records — the honest accounting attached to every
    audit run.

    The paper's risk-group analysis (§3) only sees the dependencies
    the sources reported: missing records can hide shared risk, so an
    audit over incomplete data can only {e overestimate} independence.
    A degradation record says exactly how incomplete the data was —
    which sources failed, how many records were lost, and an overall
    completeness ratio in [0, 1] that is [1.] exactly when nothing was
    lost. *)

type status =
  | Ok
  | Degraded of string  (** partial loss, with a reason *)
  | Failed of string  (** nothing collected, with the final error *)

type source_report = {
  source : string;
  status : status;
  attempts : int;  (** collector calls, including retries *)
  modules_total : int;
  modules_failed : int;  (** modules whose retry budget was exhausted *)
  records : int;  (** records actually contributed *)
  records_lost : int;  (** known losses (e.g. injected drops) *)
}

type t = {
  sources : source_report list;
  completeness : float;
      (** mean per-source completeness; a fully failed source scores
          0, a lossy one [records / (records + records_lost)] scaled
          by its surviving module fraction *)
  retries : int;  (** total retries spent across all sources *)
}

val source_completeness : source_report -> float

val make : retries:int -> source_report list -> t
(** Computes the completeness ratio. Guaranteed in [0, 1], and equal
    to [1.] iff every source has [modules_failed = 0] and
    [records_lost = 0]. *)

val degraded : t -> bool
(** [completeness < 1.] or any source not [Ok]. *)

val failed_sources : t -> string list
val records_lost : t -> int
val attempts : t -> int

val render : t -> string
(** A prominent multi-line banner for text reports; short and calm
    when nothing was lost. *)

val to_json : t -> Indaas_util.Json.t
