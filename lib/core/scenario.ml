module Depdb = Indaas_depdata.Depdb
module Collectors = Indaas_depdata.Collectors
module Catalog = Indaas_depdata.Catalog
module Dependency = Indaas_depdata.Dependency
module Datacenter = Indaas_topology.Datacenter
module Cloud = Indaas_iaas.Cloud
module Sia_audit = Indaas_sia.Audit
module Builder = Indaas_sia.Builder
module Rank = Indaas_sia.Rank
module Cutset = Indaas_faultgraph.Cutset
module Pia_audit = Indaas_pia.Audit
module Prng = Indaas_util.Prng

(* ------------------------------------------------------------------ *)
(* §6.2.1 — common network dependency                                  *)

type network_case = {
  reports : Sia_audit.deployment_report list;
  total_deployments : int;
  clean_deployments : int;
  random_success_probability : float;
  best_pair : string list;
  best_pair_racks : int list;
  lowest_failure_probability : float option;
  probability_confirms_best : bool;
}

let network_case_database () =
  let dc = Datacenter.create () in
  let db = Depdb.create () in
  Depdb.add_all db (Datacenter.all_network_records dc);
  db

let rack_of_server_name name =
  (* "serverR5" -> 5 *)
  match String.index_opt name 'R' with
  | Some i -> int_of_string (String.sub name (i + 1) (String.length name - i - 1))
  | None -> invalid_arg ("Scenario.rack_of_server_name: " ^ name)

let run_network_case ?(algorithm = Sia_audit.auto_rg)
    ?(rng = Prng.of_int 0x6201) () =
  let dc = Datacenter.create () in
  let db = network_case_database () in
  let servers =
    List.map Datacenter.server_of_rack (Datacenter.candidate_racks dc)
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> [ x; y ]) rest @ pairs rest
  in
  let candidates = pairs servers in
  let request =
    Sia_audit.request
      ~component_probability:
        (Builder.uniform_probability Datacenter.device_failure_probability)
      ~algorithm ~ranking:Sia_audit.Probability_based []
  in
  let reports = Sia_audit.audit_candidates ~rng db ~candidates request in
  let clean =
    List.filter (fun r -> r.Sia_audit.unexpected = []) reports
  in
  let best = List.hd reports in
  let min_probability =
    List.fold_left
      (fun acc r ->
        match r.Sia_audit.failure_probability with
        | Some p -> min acc p
        | None -> acc)
      infinity reports
  in
  {
    reports;
    total_deployments = List.length reports;
    clean_deployments = List.length clean;
    random_success_probability =
      float_of_int (List.length clean) /. float_of_int (List.length reports);
    best_pair = best.Sia_audit.servers;
    best_pair_racks = List.map rack_of_server_name best.Sia_audit.servers;
    lowest_failure_probability = best.Sia_audit.failure_probability;
    probability_confirms_best =
      (match best.Sia_audit.failure_probability with
      | Some p -> p <= min_probability +. 1e-12
      | None -> false);
  }

(* ------------------------------------------------------------------ *)
(* §6.2.2 — common hardware dependency                                 *)

type hardware_case = {
  initial_hosts : (string * string) list;
  co_located : bool;
  initial_report : Sia_audit.deployment_report;
  top4 : string list list;
  recommended_servers : string list;
  final_report : Sia_audit.deployment_report;
  fixed : bool;
}

(* The lab topology of Figure 6(b): four servers behind two ToR
   switches, which uplink redundantly through two core switches. *)
let lab_topology_records () =
  let tor_of s = if s = "Server1" || s = "Server2" then "Switch1" else "Switch2" in
  List.concat_map
    (fun s ->
      [
        Dependency.network ~src:s ~dst:"Internet" ~route:[ tor_of s; "Core1" ];
        Dependency.network ~src:s ~dst:"Internet" ~route:[ tor_of s; "Core2" ];
      ])
    Cloud.lab_servers

(* A VM inherits its host's network position and depends on the host
   itself as hardware. *)
let vm_records cloud vm =
  match Cloud.host_of cloud vm with
  | None -> invalid_arg ("Scenario.vm_records: unknown VM " ^ vm)
  | Some host ->
      let tor = if host = "Server1" || host = "Server2" then "Switch1" else "Switch2" in
      [
        (* The VM instance itself can fail (crash, corruption) — the
           intended RG {VM7, VM8} of the case study's ranked list. *)
        Dependency.hardware ~hw:vm ~hw_type:"VMInstance" ~dep:vm;
        Dependency.hardware ~hw:vm ~hw_type:"HostServer" ~dep:host;
        Dependency.network ~src:vm ~dst:"Internet" ~route:[ tor; "Core1" ];
        Dependency.network ~src:vm ~dst:"Internet" ~route:[ tor; "Core2" ];
      ]

let hardware_case_sources cloud =
  [
    Agent.data_source ~name:"lab-cloud"
      [
        Collectors.static ~name:"topology" (lab_topology_records ());
        Collectors.static ~name:"vm-hosting"
          (List.concat_map (vm_records cloud) (Cloud.vm_names cloud));
      ];
  ]

let audit_vm_deployment cloud vms =
  let db = Depdb.create () in
  Depdb.add_all db (List.concat_map (vm_records cloud) vms);
  Sia_audit.audit db (Sia_audit.request vms)

(* The default seed is one under which the concurrent placement race
   actually co-locates the two replicas, reproducing the incident. *)
let run_hardware_case ?(rng = Prng.of_int 1) () =
  let cloud = Cloud.create ~servers:Cloud.lab_servers rng in
  (* Background VMs occupy resources first, as in a shared lab cloud;
     then the two redundancy-motivated Riak VMs are booted. *)
  for i = 1 to 6 do
    ignore (Cloud.boot_vm cloud ~name:(Printf.sprintf "VM%d" i) ~group:"misc")
  done;
  (* The two Riak replicas are requested together; their scheduling
     races against the same load snapshot (the OpenStack behaviour
     that produced the paper's incident). *)
  let placements =
    Cloud.boot_vms_concurrently cloud [ ("VM7", "riak"); ("VM8", "riak") ]
  in
  let h7 = List.assoc "VM7" placements in
  let h8 = List.assoc "VM8" placements in
  let initial_report = audit_vm_deployment cloud [ "VM7"; "VM8" ] in
  let top4 =
    List.filteri (fun i _ -> i < 4) initial_report.Sia_audit.ranked
    |> List.map (fun r -> Cutset.names initial_report.Sia_audit.graph r.Rank.rg)
  in
  (* Server-level audit to pick an independent pair of hosts, as the
     case study does before re-deploying. *)
  let server_db = Depdb.create () in
  Depdb.add_all server_db (lab_topology_records ());
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> [ x; y ]) rest @ pairs rest
  in
  (* Server1 runs the cloud controller in the lab, so operators
     prefer placing replicas elsewhere: it is considered last among
     otherwise-equivalent candidates. *)
  let preference = [ "Server2"; "Server3"; "Server4"; "Server1" ] in
  let best_servers =
    Sia_audit.choose_best server_db ~candidates:(pairs preference)
      (Sia_audit.request [])
  in
  let recommended = best_servers.Sia_audit.servers in
  (match recommended with
  | [ a; b ] ->
      Cloud.migrate cloud ~vm:"VM7" ~to_server:a;
      Cloud.migrate cloud ~vm:"VM8" ~to_server:b
  | _ -> assert false);
  let final_report = audit_vm_deployment cloud [ "VM7"; "VM8" ] in
  {
    initial_hosts = [ ("VM7", h7); ("VM8", h8) ];
    co_located = h7 = h8;
    initial_report;
    top4;
    recommended_servers = recommended;
    final_report;
    fixed = final_report.Sia_audit.unexpected = [];
  }

(* ------------------------------------------------------------------ *)
(* §6.2.3 — common software dependency (PIA)                           *)

type software_case = {
  two_way : Pia_audit.report;
  three_way : Pia_audit.report;
  best_two_way : string list;
}

let software_case_providers () =
  List.mapi
    (fun i app ->
      Pia_audit.provider
        ~name:(Printf.sprintf "Cloud%d" (i + 1))
        (Catalog.packages app))
    Catalog.all_applications

let run_software_case ?protocol ?(rng = Prng.of_int 0x6203) () =
  let providers = software_case_providers () in
  let protocol =
    match protocol with
    | Some p -> p
    | None ->
        Pia_audit.Psop
          {
            params =
              Some (Indaas_crypto.Commutative.params_pohlig_hellman ~bits:256 rng);
          }
  in
  let two_way = Pia_audit.audit ~protocol ~rng ~way:2 providers in
  let three_way = Pia_audit.audit ~protocol ~rng ~way:3 providers in
  {
    two_way;
    three_way;
    best_two_way = (Pia_audit.best two_way).Pia_audit.providers;
  }
