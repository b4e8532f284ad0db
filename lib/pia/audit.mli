(** The Private Independence Auditing protocol end-to-end (paper
    §4.2): normalize component sets, run a private set intersection
    cardinality protocol per candidate redundancy deployment, rank
    deployments by Jaccard similarity, and render the report the
    auditing agent sends the client (§4.2.5). *)

(** Which private protocol quantifies the overlap. *)
type protocol =
  | Psop of { params : Indaas_crypto.Commutative.params option }
      (** the paper's choice *)
  | Psop_minhash of {
      params : Indaas_crypto.Commutative.params option;
      m : int;
    }  (** for large component sets (§4.2.4) *)
  | Ks of { key_bits : int }
      (** homomorphic baseline; intersection only, so Jaccard uses the
          (public) set sizes for the union via inclusion–exclusion of
          cardinalities — exact for two parties, and the protocol
          additionally reveals pairwise counts for more *)
  | Bloom of { bits : int; hashes : int; flip : float }
      (** Bloom-filter estimation (see {!Bloompsi}): hashing-only
          cost, estimated cardinalities, leaks noised membership
          bits *)
  | Cleartext  (** non-private reference (a trusted auditor) *)

type provider = { name : string; components : Componentset.t }

val provider : name:string -> string list -> provider

type deployment_result = {
  providers : string list;
  jaccard : float;
  intersection : int option;  (** not exposed by the MinHash variant *)
  union : int option;
  correlated : bool;  (** [jaccard >= 0.75] *)
}

type round_failure = {
  group : string list;  (** the deployment that could not be measured *)
  error : string;  (** the last error after retries *)
  attempts : int;
}

type report = {
  way : int;  (** deployments of this many providers *)
  results : deployment_result list;  (** ranked, most independent first *)
  failures : round_failure list;
      (** protocol rounds that kept failing after retries — empty for
          a healthy run; a non-empty list marks the audit degraded *)
}

val audit :
  ?protocol:protocol ->
  ?rng:Indaas_util.Prng.t ->
  ?faults:Indaas_resilience.Fault.injector ->
  ?retry:Indaas_resilience.Retry.policy ->
  way:int ->
  provider list ->
  report
(** Evaluates every [way]-subset of the providers (Table 2 evaluates
    [way = 2] and [way = 3] over four clouds). Defaults: [Cleartext]
    — pass [Psop] for the private protocol — and a fixed seed.

    Every protocol round runs under the retry engine with [retry]
    (default {!Indaas_resilience.Retry.default}), on the injector's
    virtual clock when [faults] is given. The injector's
    ["transport"] faults intercept the P-SOP ring. A round that fails
    transiently ({!Indaas_resilience.Fault.Injected} or [Failure]) is
    retried, and one whose budget is exhausted — e.g. a provider that
    keeps dropping out mid-P-SOP — lands in [failures] instead of
    crashing the run. A fault-free round raises nothing transient, so
    it runs exactly once.

    Raises [Invalid_argument] if [way < 2], [way] exceeds the
    provider count, or two providers share a name (the message names
    the duplicate). *)

val render : report -> string
(** Paper-style Table 2: rank, deployment, Jaccard. Degraded audits
    get a prominent trailer listing the unmeasured deployments. *)

val best : report -> deployment_result
(** The most independent deployment. *)

(** {1 n-of-m deployments}

    For an n-of-m redundancy deployment the paper's agent "needs to
    obtain the Jaccard similarity across all the n cloud providers and
    the similarity across all the m cloud providers" (§4.2.5): the
    service survives while any [n] providers are alive, so the
    overlap of the {e full} group bounds total wipe-out risk, and the
    worst [n]-subset shows the weakest quorum the service may end up
    depending on. *)

type nofm_result = {
  group : string list;  (** the m providers of this deployment *)
  full_jaccard : float;  (** across all m *)
  worst_quorum : string list;  (** the n-subset with the highest J *)
  worst_quorum_jaccard : float;
}

val audit_nofm :
  ?protocol:protocol ->
  ?rng:Indaas_util.Prng.t ->
  n:int ->
  m:int ->
  provider list ->
  nofm_result list
(** Evaluates every [m]-subset of the providers; within each, every
    [n]-subset. Ranked by [worst_quorum_jaccard] then [full_jaccard]
    (most independent first). Raises [Invalid_argument] unless
    [2 <= n <= m <= #providers], or on a duplicate provider name. *)

val render_nofm : n:int -> nofm_result list -> string

val to_json : report -> Indaas_util.Json.t
(** Machine-readable ranking. *)
