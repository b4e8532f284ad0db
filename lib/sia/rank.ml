module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Probability = Indaas_faultgraph.Probability

type ranked = {
  rg : Cutset.rg;
  size : int;
  probability : float option;
  importance : float option;
}

let make rg =
  { rg; size = Array.length rg; probability = None; importance = None }

(* Each basic event's place in name order, indexed by node id. Basic
   names are unique in a graph, so this is a permutation of the basic
   events, and comparing places compares names. *)
let name_places g =
  let basics = Array.copy (Graph.basic_ids g) in
  Array.sort
    (fun a b -> String.compare (Graph.name_of g a) (Graph.name_of g b))
    basics;
  let place = Array.make (Graph.node_count g) 0 in
  Array.iteri (fun i id -> place.(id) <- i) basics;
  place

(* The lexicographic order of the RGs' name lists, read element by
   element in each RG's own order, a proper prefix first. Top-level,
   so a comparison allocates no closure. *)
let rec compare_names_from place a b i =
  if i = Array.length a then if i = Array.length b then 0 else -1
  else if i = Array.length b then 1
  else
    match Int.compare place.(a.(i)) place.(b.(i)) with
    | 0 -> compare_names_from place a b (i + 1)
    | c -> c

let size_based g rgs =
  let place = name_places g in
  List.stable_sort
    (fun a b ->
      match Int.compare (Array.length a) (Array.length b) with
      | 0 -> compare_names_from place a b 0
      | c -> c)
    rgs
  |> List.map make

let probability_based ~top_probability g rgs =
  let place = name_places g in
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
      { (make rg) with probability = Some p; importance = Some importance })
    rgs
  |> List.stable_sort (fun a b ->
         match Option.compare Float.compare b.importance a.importance with
         | 0 -> compare_names_from place a.rg b.rg 0
         | c -> c)

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
