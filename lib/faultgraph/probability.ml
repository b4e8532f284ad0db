module Prng = Indaas_util.Prng

exception Missing_probability of string

let prob_exn g id =
  match Graph.prob_of g id with
  | Some p -> p
  | None -> raise (Missing_probability (Graph.name_of g id))

let rg_probability g rg =
  Array.fold_left (fun acc id -> acc *. prob_exn g id) 1. rg

(* Pr(union of RG events) by inclusion-exclusion. The probability of
   an intersection of RGs is the product over the union of their
   basic events (independence). *)
let top_probability_exact ?(max_terms = 1 lsl 22) g ~rgs =
  let rgs = Array.of_list rgs in
  let m = Array.length rgs in
  if m = 0 then 0.
  else begin
    if m >= 62 || 1 lsl m > max_terms then
      invalid_arg "Probability.top_probability_exact: too many risk groups";
    let acc = ref 0. in
    for mask = 1 to (1 lsl m) - 1 do
      (* Union of the selected RGs. *)
      let union = Hashtbl.create 16 in
      let bits = ref 0 in
      for i = 0 to m - 1 do
        if mask land (1 lsl i) <> 0 then begin
          incr bits;
          Array.iter (fun id -> Hashtbl.replace union id ()) rgs.(i)
        end
      done;
      let p = Hashtbl.fold (fun id () acc -> acc *. prob_exn g id) union 1. in
      if !bits land 1 = 1 then acc := !acc +. p else acc := !acc -. p
    done;
    !acc
  end

let top_probability_mc ?(rounds = 200_000) rng g =
  if rounds <= 0 then invalid_arg "Probability.top_probability_mc: rounds";
  let basics = Graph.basic_ids g in
  let values = Array.make (Graph.node_count g) false in
  let hits = ref 0 in
  for _ = 1 to rounds do
    Array.iter
      (fun id -> values.(id) <- Prng.bernoulli rng (prob_exn g id))
      basics;
    Graph.evaluate_into g ~values;
    if values.(Graph.top g) then incr hits
  done;
  float_of_int !hits /. float_of_int rounds

let relative_importance ~top_probability ~rg_probability =
  if top_probability <= 0. then invalid_arg "Probability.relative_importance: Pr(T) = 0";
  rg_probability /. top_probability
