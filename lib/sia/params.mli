(** The audit specification a client hands the auditing agent (paper
    §4.1). [indaas sia], [indaas compare], [indaas client] and the
    daemon's audit methods all describe an audit with this record,
    its defaults and its name tables. *)

type engine = Enum | Bdd | Auto
type algorithm = Minimal | Sampling

type t = {
  servers : string list;
  required : int;  (** replicas that must stay alive *)
  engine : engine;  (** exact minimal-RG engine; unused under sampling *)
  max_family : int option;
      (** enumeration budget; [None] is
          {!Indaas_faultgraph.Cutset.default_max_family} *)
  algorithm : algorithm;
  rounds : int;  (** sampling rounds *)
  prob : float option;
      (** uniform component failure probability; selects
          probability-based ranking *)
  seed : int;  (** audit PRNG seed *)
}

val default : t
(** No servers, required 1, engine auto, the default budget, algorithm
    minimal, 10 000 rounds, no probability, seed 42. *)

val engines : (string * engine) list
(** Wire and command-line names: [enum], [bdd], [auto]. *)

val algorithms : (string * algorithm) list
(** Wire and command-line names: [minimal], [sampling]. *)

val name : (string * 'a) list -> 'a -> string
(** A value's name in one of the tables. *)

val engine_label : t -> string
(** ["sampling"] under sampling, else the exact engine's name. *)

val spec_json :
  meth:string -> ?candidates:string list list -> t -> Indaas_util.Json.t
(** Canonical JSON of method [meth]'s request apart from the engine
    and budget: servers (or [compare]'s [candidates], nested),
    required, algorithm, rounds, prob and seed. *)

val request : t -> Audit.request
(** The request {!Audit.audit} runs. *)
