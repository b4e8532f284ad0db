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

type field = Required | Algorithm | Rounds | Prob | Seed

let must name what =
  invalid_arg (Printf.sprintf "parameter %S must be %s" name what)

let int name = function Json.Int i -> i | _ -> must name "an integer"

let algorithm_name a = fst (List.find (fun (_, a') -> a' = a) algorithms)

let algorithm_of_json = function
  | Json.String s -> (
      match List.assoc_opt s algorithms with
      | Some a -> a
      | None ->
          invalid_arg
            (Printf.sprintf "unknown algorithm %S (%s)" s
               (String.concat " or " (List.map fst algorithms))))
  | _ -> must "algorithm" "a string"

let prob_of_json = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | Json.Null -> None
  | _ -> must "prob" "a number"

(* The one wire description of the audit fields, in wire order: each
   field's name, its encoder, and its decoder, which sets the field in
   a record and raises [Invalid_argument] on a malformed value. *)
let table =
  [
    (Required, "required", (fun p -> Json.Int p.required),
     fun j p -> { p with required = int "required" j });
    (Algorithm, "algorithm",
     (fun p -> Json.String (algorithm_name p.algorithm)),
     fun j p -> { p with algorithm = algorithm_of_json j });
    (Rounds, "rounds", (fun p -> Json.Int p.rounds),
     fun j p -> { p with rounds = int "rounds" j });
    (Prob, "prob",
     (fun p -> match p.prob with Some f -> Json.Float f | None -> Json.Null),
     fun j p -> { p with prob = prob_of_json j });
    (Seed, "seed", (fun p -> Json.Int p.seed),
     fun j p -> { p with seed = int "seed" j });
  ]

let fields = List.map (fun (field, _, _, _) -> field) table

let to_json ~stated p =
  List.filter_map
    (fun (field, name, encode, _) ->
      if List.mem field stated then Some (name, encode p) else None)
    table

let of_json ~default json =
  List.fold_left
    (fun p (_, name, _, decode) ->
      match Json.member name json with Some j -> decode j p | None -> p)
    default table

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let spec_json ~meth ?candidates p =
  Json.Obj
    (("method", Json.String meth)
    :: (match candidates with
       | None -> ("servers", strings p.servers)
       | Some c -> ("candidates", Json.List (List.map strings c)))
    :: List.map (fun (_, name, encode, _) -> (name, encode p)) table)

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
