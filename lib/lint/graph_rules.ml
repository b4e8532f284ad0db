module Graph = Indaas_faultgraph.Graph
module D = Diagnostic

type vnode = {
  id : int;
  name : string;
  kind : Graph.node_kind;
  children : int list;
}

type view = { nodes : vnode list; top : int }

let of_graph g =
  let nodes =
    List.init (Graph.node_count g) (fun id ->
        let n = Graph.node g id in
        {
          id = n.Graph.id;
          name = n.Graph.name;
          kind = n.Graph.kind;
          children = Array.to_list n.Graph.children;
        })
  in
  { nodes; top = Graph.top g }

let node_tbl view =
  let tbl = Hashtbl.create (List.length view.nodes) in
  List.iter (fun n -> Hashtbl.replace tbl n.id n) view.nodes;
  tbl

let loc n = D.Node { id = n.id; name = n.name }

(* --- IND-G001 / IND-G002 / IND-G003: degenerate gates ------------------ *)

let kofn_range =
  Rule.make ~code:"IND-G001" ~severity:D.Error
    ~title:"k-of-n gate with k out of range"
    (fun view ->
      List.filter_map
        (fun n ->
          match n.kind with
          | Graph.Gate (Graph.Kofn k)
            when k < 1 || k > List.length n.children ->
              Some
                (D.make ~code:"IND-G001" ~severity:D.Error ~location:(loc n)
                   (Printf.sprintf "gate %S requires %d of %d children; it %s"
                      n.name k (List.length n.children)
                      (if k < 1 then "fires unconditionally (k < 1)"
                       else "can never fire (k exceeds the child count)")))
          | _ -> None)
        view.nodes)

let empty_gate =
  Rule.make ~code:"IND-G002" ~severity:D.Error ~title:"gate with no children"
    (fun view ->
      List.filter_map
        (fun n ->
          match n.kind with
          | Graph.Gate _ when n.children = [] ->
              Some
                (D.make ~code:"IND-G002" ~severity:D.Error ~location:(loc n)
                   (Printf.sprintf
                      "gate %S has no children; it can never propagate a failure"
                      n.name))
          | _ -> None)
        view.nodes)

let single_child_gate =
  Rule.make ~code:"IND-G003" ~severity:D.Hint
    ~title:"gate with exactly one child (pass-through)"
    (fun view ->
      List.filter_map
        (fun n ->
          match n.kind with
          | Graph.Gate _ when List.length n.children = 1 ->
              Some
                (D.make ~code:"IND-G003" ~severity:D.Hint ~location:(loc n)
                   (Printf.sprintf
                      "gate %S has a single child and adds no structure" n.name))
          | _ -> None)
        view.nodes)

(* --- IND-G004: probabilities outside [0, 1] ---------------------------- *)

let probability_range =
  Rule.make ~code:"IND-G004" ~severity:D.Error
    ~title:"basic-event probability outside [0, 1]"
    (fun view ->
      List.filter_map
        (fun n ->
          match n.kind with
          | Graph.Basic (Some p) when not (p >= 0. && p <= 1.) ->
              Some
                (D.make ~code:"IND-G004" ~severity:D.Error ~location:(loc n)
                   (Printf.sprintf
                      "basic event %S has failure probability %g, outside [0, 1]"
                      n.name p))
          | _ -> None)
        view.nodes)

(* --- IND-G005: unreachable nodes ---------------------------------------- *)

let reachable_set view =
  let tbl = node_tbl view in
  let seen = Hashtbl.create (List.length view.nodes) in
  let rec mark id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match Hashtbl.find_opt tbl id with
      | Some n -> List.iter mark n.children
      | None -> ()
    end
  in
  mark view.top;
  seen

let unreachable =
  Rule.make ~code:"IND-G005" ~severity:D.Warning
    ~title:"node unreachable from the top event"
    (fun view ->
      let seen = reachable_set view in
      List.filter_map
        (fun n ->
          if Hashtbl.mem seen n.id then None
          else
            Some
              (D.make ~code:"IND-G005" ~severity:D.Warning ~location:(loc n)
                 (Printf.sprintf
                    "node %S is not reachable from the top event; every \
                     analysis ignores it"
                    n.name)))
        view.nodes)

(* --- IND-G006: single points of failure ---------------------------------- *)

module IS = Set.Make (Int)

(* One memoized DFS computes, per node, the set of reachable basic
   events whose lone failure fires it: a basic event fires itself, OR
   takes the union of its children's sets, AND their intersection,
   k-of-n the basic events in at least k children's sets (every one
   when k < 1), and an empty gate nothing (IND-G002 reports it;
   IND-G001 reports out-of-range k). A node already on the DFS stack
   contributes nothing, so cyclic views terminate. The traversal
   visits every child in order and never short-circuits, so each node
   is first reached, and memoized, with the same stack whichever basic
   event failed: the sets are exactly what evaluating the graph once
   per basic event would give. *)
let single_points_of_failure view =
  let tbl = node_tbl view in
  let seen = reachable_set view in
  let basics =
    List.filter
      (fun n ->
        match n.kind with
        | Graph.Basic _ -> Hashtbl.mem seen n.id
        | Graph.Gate _ -> false)
      view.nodes
  in
  let all = IS.of_list (List.map (fun n -> n.id) basics) in
  let memo = Hashtbl.create 64 in
  let rec fires visiting id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
        if List.mem id visiting then IS.empty
        else
          let v =
            match Hashtbl.find_opt tbl id with
            | None -> IS.empty
            | Some n -> (
                match n.kind with
                | Graph.Basic _ -> IS.singleton id
                | Graph.Gate _ when n.children = [] -> IS.empty
                | Graph.Gate gate -> (
                    let sets = List.map (fires (id :: visiting)) n.children in
                    match gate with
                    | Graph.Or -> List.fold_left IS.union IS.empty sets
                    | Graph.And ->
                        List.fold_left IS.inter (List.hd sets) (List.tl sets)
                    | Graph.Kofn k ->
                        IS.filter
                          (fun b ->
                            List.length (List.filter (IS.mem b) sets) >= k)
                          all))
          in
          Hashtbl.replace memo id v;
          v
  in
  let top = fires [] view.top in
  List.filter_map
    (fun n -> if IS.mem n.id top then Some n.name else None)
    basics
  |> List.sort_uniq compare

let spof =
  Rule.make ~code:"IND-G006" ~severity:D.Warning
    ~title:"single point of failure (size-1 risk group)"
    (fun view ->
      let names = single_points_of_failure view in
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun n ->
          match n.kind with
          | Graph.Basic _ -> Hashtbl.replace tbl n.name n
          | Graph.Gate _ -> ())
        view.nodes;
      List.map
        (fun name ->
          let location =
            match Hashtbl.find_opt tbl name with
            | Some n -> loc n
            | None -> D.Machine name
          in
          D.make ~code:"IND-G006" ~severity:D.Warning ~location
            (Printf.sprintf
               "component %S alone fails the whole deployment (size-1 risk \
                group)"
               name))
        names)

let rules =
  [ kofn_range; empty_gate; single_child_gate; probability_range; unreachable;
    spof ]
