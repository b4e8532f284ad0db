module Json = Indaas_util.Json

type algorithm = Minimal | Sampling

type t = {
  servers : string list;
  required : int;
  algorithm : algorithm;
  rounds : int;
  prob : float option;
  seed : int;
}

let default =
  {
    servers = [];
    required = 1;
    algorithm = Minimal;
    rounds = 10_000;
    prob = None;
    seed = 42;
  }

let algorithms = [ ("minimal", Minimal); ("sampling", Sampling) ]
let name table v = fst (List.find (fun (_, v') -> v' = v) table)

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
    match p.algorithm with
    | Minimal -> Audit.auto_rg
    | Sampling -> Audit.failure_sampling ~rounds:p.rounds
  in
  let ranking =
    match p.prob with
    | Some _ -> Audit.Probability_based
    | None -> Audit.Size_based
  in
  Audit.request ~required:p.required
    ?component_probability:(Option.map Builder.uniform_probability p.prob)
    ~algorithm ~ranking p.servers
