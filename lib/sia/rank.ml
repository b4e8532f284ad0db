module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Probability = Indaas_faultgraph.Probability

type ranked = {
  rg : Cutset.rg;
  rg_names : string list;
  size : int;
  probability : float option;
  importance : float option;
}

let make g rg =
  {
    rg;
    rg_names = Cutset.names g rg;
    size = Array.length rg;
    probability = None;
    importance = None;
  }

let size_based g rgs =
  List.map (make g) rgs
  |> List.sort (fun a b ->
         match compare a.size b.size with
         | 0 -> compare a.rg_names b.rg_names
         | c -> c)

let probability_based ~top_probability g rgs =
  List.map
    (fun rg ->
      let p = Probability.rg_probability g rg in
      (* Pr(T) = 0 (a zero or underflowing component probability)
         bounds every Pr(C) at 0 too: each RG's importance is 0. *)
      let importance =
        if top_probability > 0. then
          Probability.relative_importance ~top_probability ~rg_probability:p
        else 0.
      in
      { (make g rg) with probability = Some p; importance = Some importance })
    rgs
  |> List.sort (fun a b ->
         match (a.importance, b.importance) with
         | Some ia, Some ib -> (
             match compare ib ia with 0 -> compare a.rg_names b.rg_names | c -> c)
         | _ -> compare a.rg_names b.rg_names)

let take n l = List.filteri (fun i _ -> i < n) l

let independence_score_size ?top_n ranked =
  let selected =
    match top_n with Some n -> take n ranked | None -> ranked
  in
  List.fold_left (fun acc r -> acc +. float_of_int r.size) 0. selected

let independence_score_importance ?top_n ranked =
  let selected =
    match top_n with Some n -> take n ranked | None -> ranked
  in
  List.fold_left
    (fun acc r ->
      match r.importance with
      | Some i -> acc +. i
      | None ->
          invalid_arg "Rank.independence_score_importance: missing importance")
    0. selected

let unexpected ~expected_size ranked =
  List.filter (fun r -> r.size < expected_size) ranked
