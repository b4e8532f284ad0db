(** The paper's three case studies (§6.2), packaged as reusable
    scenarios shared by the examples, tests and benchmark harness. *)

module Sia_audit = Indaas_sia.Audit

(** {1 §6.2.1 — common network dependency} *)

type network_case = {
  reports : Sia_audit.deployment_report list;  (** all 190 pairs, best first *)
  total_deployments : int;  (** 190 *)
  clean_deployments : int;  (** pairs without unexpected RGs *)
  random_success_probability : float;  (** clean / total *)
  best_pair : string list;  (** replica servers of the winner *)
  best_pair_racks : int list;  (** e.g. [5; 29] *)
  lowest_failure_probability : float option;
      (** Pr(fail) of the winner under uniform device probability 0.1 *)
  probability_confirms_best : bool;
      (** the size-ranking winner is also an argmin of Pr(fail) *)
}

val run_network_case :
  ?algorithm:Sia_audit.rg_algorithm -> ?rng:Indaas_util.Prng.t -> unit ->
  network_case
(** Default algorithm: {!Sia_audit.auto_rg}, the exact minimal RGs.
    The paper ran failure sampling with 10^6 rounds; pass
    [~algorithm:(Sia_audit.failure_sampling ~rounds:...)] to match
    ([rng] drives it). *)

(** {1 §6.2.2 — common hardware dependency} *)

type hardware_case = {
  initial_hosts : (string * string) list;  (** VM -> server after OpenStack placement *)
  co_located : bool;  (** the two Riak VMs landed on one server *)
  initial_report : Sia_audit.deployment_report;
      (** audit of the {e VM-level} deployment (VM7, VM8) *)
  top4 : string list list;  (** first four ranked RGs, by names *)
  recommended_servers : string list;  (** from the server-level audit *)
  final_report : Sia_audit.deployment_report;
      (** after migrating per the recommendation *)
  fixed : bool;  (** no unexpected RGs remain *)
}

val run_hardware_case : ?rng:Indaas_util.Prng.t -> unit -> hardware_case
(** [rng] drives the OpenStack-like placement. The default seed
    reproduces the paper's incident (both Riak VMs on Server2); other
    seeds still co-locate with probability 1/4 — the audit logic
    handles both outcomes. *)

(** {1 §6.2.3 — common software dependency (PIA)} *)

type software_case = {
  two_way : Indaas_pia.Audit.report;  (** Table 2, upper half *)
  three_way : Indaas_pia.Audit.report;  (** Table 2, lower half *)
  best_two_way : string list;  (** Cloud2 & Cloud4 *)
}

val run_software_case :
  ?protocol:Indaas_pia.Audit.protocol -> ?rng:Indaas_util.Prng.t -> unit ->
  software_case
(** Default protocol: P-SOP with fresh 256-bit parameters (the
    private path, as in the paper). *)

(** {1 Shared building blocks} *)

val network_case_database : unit -> Indaas_depdata.Depdb.t
(** The §6.2.1 data center's network records for all candidate racks. *)

val hardware_case_sources : Indaas_iaas.Cloud.t -> Agent.data_source list
(** Data sources exposing the lab cloud's records (VM hosting +
    switch topology). *)

val software_case_providers : unit -> Indaas_pia.Audit.provider list
(** The four clouds with their key-value stores' package closures. *)
