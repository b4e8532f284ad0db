module Json = Indaas_util.Json

type engine = Enum | Bdd | Auto
type algorithm = Minimal | Sampling

type t = {
  servers : string list;
  required : int;
  engine : engine;
  max_family : int option;
  algorithm : algorithm;
  rounds : int;
  prob : float option;
  seed : int;
}

let default =
  {
    servers = [];
    required = 1;
    engine = Auto;
    max_family = None;
    algorithm = Minimal;
    rounds = 10_000;
    prob = None;
    seed = 42;
  }

let engines = [ ("enum", Enum); ("bdd", Bdd); ("auto", Auto) ]
let algorithms = [ ("minimal", Minimal); ("sampling", Sampling) ]
let name table v = fst (List.find (fun (_, v') -> v' = v) table)

let engine_label p =
  match p.algorithm with
  | Sampling -> name algorithms Sampling
  | Minimal -> name engines p.engine

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let spec_json ~meth ?candidates p =
  Json.Obj
    [
      ("method", Json.String meth);
      (match candidates with
      | None -> ("servers", strings p.servers)
      | Some c -> ("candidates", Json.List (List.map strings c)));
      ("required", Json.Int p.required);
      ("algorithm", Json.String (name algorithms p.algorithm));
      ("rounds", Json.Int p.rounds);
      ("prob", match p.prob with Some f -> Json.Float f | None -> Json.Null);
      ("seed", Json.Int p.seed);
    ]

let request p =
  let algorithm =
    match (p.algorithm, p.engine) with
    | Sampling, _ -> Audit.failure_sampling ~rounds:p.rounds
    | Minimal, Enum -> Audit.Minimal_rg { max_family = p.max_family }
    | Minimal, Bdd -> Audit.minimal_rg_bdd
    | Minimal, Auto -> Audit.Auto_rg { max_family = p.max_family }
  in
  let ranking =
    match p.prob with
    | Some _ -> Audit.Probability_based
    | None -> Audit.Size_based
  in
  Audit.request ~required:p.required
    ?component_probability:(Option.map Builder.uniform_probability p.prob)
    ~algorithm ~ranking p.servers
