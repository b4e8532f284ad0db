type component_importance = {
  component : Graph.node_id;
  component_name : string;
  birnbaum : float;
  fussell_vesely : float;
}

(* One compiled BDD answers Pr(T), both Birnbaum conditionals and
   every Fussell-Vesely numerator: the union of a component's RGs is
   compiled into the same manager. *)
type compiled = { g : Graph.t; m : Bdd.manager; top : Bdd.node }

let compile g =
  let m, top = Bdd.of_graph g in
  { g; m; top }

let probability b node =
  Bdd.probability b.m node ~prob_of:(Probability.prob_exn b.g)

let conditioned b ~component ~value =
  Bdd.probability b.m b.top ~prob_of:(fun id ->
      if id = component then (if value then 1. else 0.)
      else Probability.prob_exn b.g id)

let birnbaum_of b component =
  conditioned b ~component ~value:true -. conditioned b ~component ~value:false

let fussell_vesely_of b ~top ~rgs component =
  if top <= 0. then 0.
  else
    let containing = List.filter (Array.exists (( = ) component)) rgs in
    probability b (Bdd.of_family b.m containing) /. top

let birnbaum g ~component = birnbaum_of (compile g) component

let fussell_vesely g ~rgs ~component =
  let b = compile g in
  fussell_vesely_of b ~top:(probability b b.top) ~rgs component

let rank_components g ~rgs =
  let b = compile g in
  let top = probability b b.top in
  Array.to_list (Graph.basic_ids g)
  |> List.map (fun component ->
         {
           component;
           component_name = Graph.name_of g component;
           birnbaum = birnbaum_of b component;
           fussell_vesely = fussell_vesely_of b ~top ~rgs component;
         })
  |> List.sort (fun a b ->
         match compare b.birnbaum a.birnbaum with
         | 0 -> compare a.component_name b.component_name
         | c -> c)

let render importances =
  let t =
    Indaas_util.Table.create
      ~aligns:
        [ Indaas_util.Table.Right; Indaas_util.Table.Left;
          Indaas_util.Table.Right; Indaas_util.Table.Right ]
      [ "rank"; "component"; "Birnbaum"; "Fussell-Vesely" ]
  in
  List.iteri
    (fun i c ->
      Indaas_util.Table.add_row t
        [
          string_of_int (i + 1);
          c.component_name;
          Printf.sprintf "%.6g" c.birnbaum;
          Printf.sprintf "%.6g" c.fussell_vesely;
        ])
    importances;
  Indaas_util.Table.render t
