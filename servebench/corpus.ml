(* The benchmark's inputs: a fat-tree DepDB split into the paper's three
   dependency-acquisition sources, and the seeded request stream of each
   workload. The server only ever sees frames built from these. *)

module Fattree = Indaas_topology.Fattree
module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Collectors = Indaas_depdata.Collectors
module Prng = Indaas_util.Prng
module Json = Indaas_util.Json
module Frame = Indaas_service.Frame
module SM = Map.Make (String)

type workload = Hot_audits | Cold_audits | Delta_churn

let workloads =
  [ ("hot-audits", Hot_audits); ("cold-audits", Cold_audits);
    ("delta-churn", Delta_churn) ]

(* --- DepDB ------------------------------------------------------------- *)

type corpus = {
  servers : string array;
  sources : Dependency.t list SM.t;  (** source name -> records *)
}

(* Submission order of the initial ingest: the order the paper lists
   its DAMs. The union is built in source-name order regardless. *)
let ingest_order = [ "nsdminer"; "lshw"; "apt" ]

(* Software closures stay small on purpose: full catalog closures grow a
   2-way report about fivefold and JSON printing then dominates every
   other layer. A package shared per pod and one of two libc builds give
   audits real common dependencies. *)
let apt_record tree i =
  let host = Fattree.server_name tree i in
  Dependency.software ~pgm:"riak" ~host
    ~deps:
      [
        Printf.sprintf "libc6-build%d" (Fattree.pod_of_server tree i mod 2);
        Printf.sprintf "openssl-pod%d" (Fattree.pod_of_server tree i);
        host ^ "-riak-conf";
      ]

let corpus ~k =
  let tree = Fattree.create ~k in
  let n = Fattree.server_count tree in
  let names = Fattree.server_names tree in
  let nsdminer =
    List.concat_map (fun i -> Fattree.network_records tree ~server:i)
      (List.init n Fun.id)
  in
  (* One PDU per pair of racks, shared under a single identifier. *)
  let pdus =
    List.init (Fattree.edge_count tree / 2) (fun p ->
        Collectors.shared_hardware
          ~machines:
            (List.map (Fattree.server_name tree)
               (Fattree.servers_of_rack tree (2 * p)
               @ Fattree.servers_of_rack tree ((2 * p) + 1)))
          ~hw_type:"PDU" ~dep:(Printf.sprintf "PDU-%d" p))
  in
  let lshw =
    List.concat_map
      (fun (c : Collectors.t) -> c.Collectors.collect ())
      (Collectors.lshw (List.map Collectors.standard_profile names) :: pdus)
  in
  let apt = List.init n (apt_record tree) in
  {
    servers = Array.of_list names;
    sources =
      SM.of_seq (List.to_seq [ ("nsdminer", nsdminer); ("lshw", lshw); ("apt", apt) ]);
  }

let record_count sources = SM.fold (fun _ r acc -> acc + List.length r) sources 0

(* The batch path's DepDB: sources added in source-name order, exactly as
   the snapshot store unions them. *)
let depdb_of sources =
  let db = Depdb.create () in
  SM.iter (fun _ records -> Depdb.add_all db records) sources;
  db

(* --- requests ---------------------------------------------------------- *)

type request =
  | Submit of { source : string; records : Dependency.t list }
  | Audit of { servers : string list; required : int }

let meth = function Submit _ -> "submit-deps" | Audit _ -> "audit"

(* Requests carry only what every future protocol revision keeps: the
   servers, the k-of-n shape, and the records of a submission. *)
let encode ~id req =
  let params =
    match req with
    | Submit { source; records } ->
        [ ("source", Json.String source);
          ("records", Json.String (Dependency.to_xml_many records)) ]
    | Audit { servers; required } ->
        ("servers", Json.List (List.map (fun s -> Json.String s) servers))
        :: (if required > 1 then [ ("required", Json.Int required) ] else [])
  in
  Frame.encode_request
    { Frame.id; version = Frame.version; meth = meth req; params = Json.Obj params }

type phase = Setup | Prime | Measure

let phase_name = function Setup -> "setup" | Prime -> "prime" | Measure -> "measure"

(* A workload is its priming requests plus an endless, seeded request
   generator. [sources] tracks the generator's view of the provider data,
   which deltas rewrite; it is what references are computed from. *)
type stream = {
  prime : request list;
  next : unit -> request;
  sources : Dependency.t list SM.t ref;
}

let distinct_servers rng c n =
  Prng.sample_without_replacement rng n (Array.init (Array.length c.servers) Fun.id)
  |> Array.to_list |> List.sort compare
  |> List.map (fun i -> c.servers.(i))

let hot_set rng c size =
  let seen = Hashtbl.create size in
  let rec go acc =
    if List.length acc = size then List.rev acc
    else
      let pair = distinct_servers rng c 2 in
      if Hashtbl.mem seen pair then go acc
      else (
        Hashtbl.add seen pair ();
        go (Audit { servers = pair; required = 1 } :: acc))
  in
  go []

(* [hot-audits]: a hot set far inside the result cache's 1024 entries,
   primed once, then uniform repeats — every timed audit is a hit. *)
let hot c rng =
  let set = Array.of_list (hot_set rng c 16) in
  {
    prime = Array.to_list set;
    next = (fun () -> Prng.pick rng set);
    sources = ref c.sources;
  }

(* [cold-audits]: never the same deployment twice. Every block of eight
   requests holds, in seeded order, six 2-way audits, one 1-of-3 and one
   2-of-3, so the mix does not vary with the seed or the run length. *)
let cold c rng =
  let asked = Hashtbl.create 1024 in
  let shapes = Queue.create () in
  let rec draw (n, required) =
    let servers = distinct_servers rng c n in
    if Hashtbl.mem asked (servers, required) then draw (n, required)
    else (
      Hashtbl.add asked (servers, required) ();
      Audit { servers; required })
  in
  let next () =
    if Queue.is_empty shapes then (
      let block = Array.append [| (3, 1); (3, 2) |] (Array.make 6 (2, 1)) in
      Prng.shuffle rng block;
      Array.iter (fun s -> Queue.push s shapes) block);
    draw (Queue.pop shapes)
  in
  { prime = []; next; sources = ref c.sources }

(* --- delta-churn ------------------------------------------------------- *)

let burst_len = 8
let burst_reasks = 3

(* A disk swap re-sends lshw with one server's disk replaced. *)
let swap_disk ~cycle server records =
  List.map
    (fun (r : Dependency.t) ->
      match r with
      | Dependency.Hardware h when h.Dependency.hw = server && h.Dependency.hw_type = "Disk"
        ->
          Dependency.hardware ~hw:server ~hw_type:"Disk"
            ~dep:(Printf.sprintf "%s-SED900-r%d" server cycle)
      | r -> r)
    records

(* A dropped route re-sends nsdminer without one of the server's routes;
   a server keeps at least one route, so every audit stays buildable. *)
let drop_route rng server records =
  let mine =
    List.filter
      (function Dependency.Network n -> n.Dependency.src = server | _ -> false)
      records
  in
  if List.length mine < 2 then records
  else
    let victim = List.nth mine (Prng.int rng (List.length mine)) in
    List.filter (fun r -> not (Dependency.equal r victim)) records

(* [delta-churn]: each cycle is one whole-source delta on a server of the
   hot set, alternating lshw disk swaps and nsdminer route drops, then a
   burst of [burst_len] audits over the hot set of which [burst_reasks]
   re-ask a deployment already answered since the delta. *)
let churn c rng =
  let set = Array.of_list (hot_set rng c 8) in
  let hot_servers =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (function Audit a -> a.servers | Submit _ -> [])
            (Array.to_list set)))
  in
  let sources = ref c.sources in
  let pending = Queue.create () in
  let cycle = ref 0 in
  let refill () =
    let server = Prng.pick rng hot_servers in
    let source = if !cycle mod 2 = 0 then "lshw" else "nsdminer" in
    let old = SM.find source !sources in
    let records =
      if source = "lshw" then swap_disk ~cycle:!cycle server old
      else drop_route rng server old
    in
    sources := SM.add source records !sources;
    incr cycle;
    Queue.push (Submit { source; records }) pending;
    let fresh =
      Prng.sample_without_replacement rng (burst_len - burst_reasks) set
    in
    let kinds =
      Array.init (burst_len - 1) (fun i -> i < burst_reasks)
    in
    Prng.shuffle rng kinds;
    let asked = ref [ fresh.(0) ] and next_fresh = ref 1 in
    Queue.push fresh.(0) pending;
    Array.iter
      (fun reask ->
        let req =
          if reask then Prng.pick rng (Array.of_list !asked)
          else (
            let r = fresh.(!next_fresh) in
            incr next_fresh;
            asked := r :: !asked;
            r)
        in
        Queue.push req pending)
      kinds
  in
  let next () =
    if Queue.is_empty pending then refill ();
    Queue.pop pending
  in
  { prime = []; next; sources }

let stream c w ~seed =
  let rng = Prng.of_int seed in
  match w with Hot_audits -> hot c rng | Cold_audits -> cold c rng | Delta_churn -> churn c rng
