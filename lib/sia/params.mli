(** The audit specification a client hands the auditing agent (paper
    §4.1). [indaas sia], [indaas compare], [indaas client] and the
    daemon's audit methods all describe an audit with this record and
    its defaults, and put it on the wire through one field table:
    each field's wire name, encoder and decoder, from which
    {!to_json}, {!of_json} and {!spec_json} are all derived. *)

type algorithm = Minimal | Sampling

type t = {
  servers : string list;
  required : int;  (** replicas that must stay alive *)
  algorithm : algorithm;
  rounds : int;  (** sampling rounds *)
  prob : float option;
      (** uniform component failure probability; selects
          probability-based ranking *)
  seed : int;  (** audit PRNG seed *)
}

val default : t
(** No servers, required 1, algorithm minimal, 10 000 rounds, no
    probability, seed 42. *)

val algorithms : (string * algorithm) list
(** Wire and command-line names: [minimal], [sampling]. *)

(** {1 Wire form} *)

type field = Required | Algorithm | Rounds | Prob | Seed
(** The fields that travel under their own names: [required],
    [algorithm] (a name from {!algorithms}), [rounds], [prob] (a
    number, or [null] for none) and [seed]. [servers] travels
    beside them, in the method's own shape. *)

val fields : field list
(** Every field, in wire order. *)

val to_json : stated:field list -> t -> (string * Indaas_util.Json.t) list
(** The [stated] fields of a request, in wire order. A field left out
    takes the receiver's default, so a bare request and an
    explicitly-default one describe the same audit. *)

val of_json : default:t -> Indaas_util.Json.t -> t
(** The request a params object describes: each field present in it
    is decoded, every other one (and [servers]) is [default]'s; other
    keys are ignored. Raises [Invalid_argument] naming the first
    malformed field, e.g. [parameter "required" must be an integer]
    or [unknown algorithm "quantum" (minimal or sampling)]. *)

val spec_json :
  meth:string -> ?candidates:string list list -> t -> Indaas_util.Json.t
(** Canonical JSON of method [meth]'s request, every field stated:
    servers (or [compare]'s [candidates], nested), then the fields in
    wire order. The daemon's cache key hashes it. *)

val request : t -> Audit.request
(** The request {!Audit.audit} runs: {!Audit.auto_rg} under [Minimal].
    Raises [Invalid_argument] under [Sampling] with [rounds < 1]. *)
