(** The audit specification a client hands the auditing agent (paper
    §4.1). [indaas sia], [indaas compare], [indaas client] and the
    daemon's audit methods all describe an audit with this record,
    its defaults and its name table. *)

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

val name : (string * 'a) list -> 'a -> string
(** A value's name in one of the tables. *)

val spec_json :
  meth:string -> ?candidates:string list list -> t -> Indaas_util.Json.t
(** Canonical JSON of method [meth]'s request: servers (or
    [compare]'s [candidates], nested), required, algorithm, rounds,
    prob and seed. *)

val request : t -> Audit.request
(** The request {!Audit.audit} runs: {!Audit.auto_rg} under [Minimal].
    Raises [Invalid_argument] under [Sampling] with [rounds < 1]. *)
