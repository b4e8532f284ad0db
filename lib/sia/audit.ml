module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Sampling = Indaas_faultgraph.Sampling
module Probability = Indaas_faultgraph.Probability
module Prng = Indaas_util.Prng
module Obs = Indaas_obs.Registry

type rg_algorithm =
  | Auto_rg of { max_family : int option }
  | Failure_sampling of Sampling.config

let auto_rg = Auto_rg { max_family = None }

(* Zero rounds would find no RG and read as a clean deployment. *)
let failure_sampling ~rounds =
  if rounds < 1 then invalid_arg "Audit.failure_sampling: rounds must be >= 1";
  Failure_sampling { Sampling.default_config with Sampling.rounds }

type ranking = Size_based | Probability_based

type request = {
  spec : Builder.spec;
  algorithm : rg_algorithm;
  ranking : ranking;
}

let request ?required ?component_probability ?(algorithm = auto_rg)
    ?(ranking = Size_based) servers =
  {
    spec = Builder.spec ?required ?component_probability servers;
    algorithm;
    ranking;
  }

type deployment_report = {
  servers : string list;
  graph : Graph.t;
  ranked : Rank.ranked list;
  unexpected : Rank.ranked list;
  independence_score : float;
  failure_probability : float option;
  expected_rg_size : int;
  diagnostics : Indaas_lint.Diagnostic.t list;
}

let algorithm_label = function
  | Auto_rg _ -> "auto_rg"
  | Failure_sampling _ -> "failure_sampling"

let default_rng () = Prng.of_int 0xD1CE

(* Deployments of three or more servers (a top gate of three or more
   children, whatever its threshold) go to the symbolic engine: there
   its shared structure beats enumeration's products of child
   families (BENCH_kernels.json). *)
let symbolic graph =
  Array.length (Graph.node graph (Graph.top graph)).Graph.children >= 3

let risk_groups ?(rng = default_rng ()) algorithm graph =
  match algorithm with
  | Auto_rg _ when symbolic graph -> Bdd.minimal_risk_groups graph
  | Auto_rg { max_family } -> (
      (* One- and two-server deployments keep enumeration with
         absorption; when its family budget trips, the symbolic engine
         computes the identical family without ever materializing
         intermediate ones. *)
      try Cutset.minimal_risk_groups ?max_family graph
      with Cutset.Too_many_cut_sets _ -> Bdd.minimal_risk_groups graph)
  | Failure_sampling config ->
      (Sampling.run ~config rng graph).Sampling.risk_groups

let audit ?(rng = default_rng ()) db request =
  let graph = Builder.build db request.spec in
  let rgs, top_probability =
    Obs.with_span "minimize"
      ~attrs:[ ("algorithm", algorithm_label request.algorithm) ]
    @@ fun () ->
    let rgs, top_probability =
      match (request.algorithm, request.ranking) with
      | Auto_rg _, Probability_based when symbolic graph ->
          (* The symbolic path's one compile serves both the family and
             Pr(T), under the span {!Bdd.minimal_risk_groups} records. *)
          Obs.with_span "rg.bdd" @@ fun () ->
          let m, top = Bdd.of_graph graph in
          ( Bdd.risk_groups m top,
            Some (Bdd.probability m top ~prob_of:(Probability.prob_exn graph))
          )
      | _ -> (risk_groups ~rng request.algorithm graph, None)
    in
    Obs.span_attr "risk_groups" (string_of_int (List.length rgs));
    (rgs, top_probability)
  in
  let ranked, score, failure_probability =
    Obs.with_span "rank" @@ fun () ->
    if Obs.on () then
      List.iter
        (fun rg ->
          Obs.observe
            ~bounds:[| 1.; 2.; 3.; 5.; 8.; 13.; 21. |]
            "rg.size"
            (float_of_int (Array.length rg)))
        rgs;
    match request.ranking with
    | Size_based ->
        let ranked = Rank.size_based graph rgs in
        (ranked, Rank.independence_score_size ranked, None)
    | Probability_based ->
        let top_probability =
          match top_probability with
          | Some p -> p
          | None -> Bdd.graph_probability graph
        in
        let ranked = Rank.probability_based ~top_probability graph rgs in
        (ranked, Rank.independence_score_importance ranked, Some top_probability)
  in
  let expected_rg_size = Builder.expected_rg_size request.spec in
  (* Structural pre-checks ride along with every report (hints are
     noise at this level: built graphs legitimately contain
     single-child pass-through gates). *)
  let diagnostics =
    Indaas_lint.Lint.run [ Indaas_lint.Lint.Fault_graph graph ]
    |> List.filter (fun d ->
           d.Indaas_lint.Diagnostic.severity <> Indaas_lint.Diagnostic.Hint)
  in
  {
    servers = request.spec.Builder.servers;
    graph;
    ranked;
    unexpected = Rank.unexpected ~expected_size:expected_rg_size ranked;
    independence_score = score;
    failure_probability;
    expected_rg_size;
    diagnostics;
  }

let compare_reports a b =
  match compare (List.length a.unexpected) (List.length b.unexpected) with
  | 0 -> (
      match (a.failure_probability, b.failure_probability) with
      | Some pa, Some pb when pa <> pb -> compare pa pb
      | _ ->
          (* Size-based score: higher is more independent. Full ties
             keep candidate order (stable sort below). *)
          compare b.independence_score a.independence_score)
  | c -> c

let audit_candidates ?rng db ~candidates request =
  List.map
    (fun servers ->
      audit ?rng db { request with spec = { request.spec with Builder.servers } })
    candidates
  |> List.stable_sort compare_reports

let choose_best ?rng db ~candidates request =
  match audit_candidates ?rng db ~candidates request with
  | best :: _ -> best
  | [] -> invalid_arg "Audit.choose_best: no candidates"
