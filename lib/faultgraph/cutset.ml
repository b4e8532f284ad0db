module Obs = Indaas_obs.Registry

type rg = Graph.node_id array

exception Too_many_cut_sets of int

(* Hot-loop accounting: plain module-level refs so the absorption
   kernel never pays the observability facade per probe; the deltas
   are published as counters once per [minimal_risk_groups] call when
   recording is on. *)
let subset_probes = ref 0
let absorbed_sets = ref 0

(* --- canonical family order ---------------------------------------- *)

let compare_rg (a : rg) (b : rg) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i >= la then 0
      else
        let c = compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  end

let sort_family family = List.sort compare_rg family

(* --- packed-bitset absorption kernel ------------------------------- *)

(* Families are carried through the bottom-up traversal as packed
   bitsets over the graph's node-id universe (see {!Bitset}): the
   absorption hot loop then costs O(words) per subset test instead of
   a sorted-array merge walk. Sorted arrays only materialize at the
   API boundary. *)

module BsTbl = Hashtbl.Make (struct
  type t = Bitset.t

  let equal = Bitset.equal
  let hash = Bitset.hash
end)

(* Keep only the minimal sets of a family. Candidates are visited
   smallest-first; accepted sets are bucketed by their minimum element
   so a candidate only probes buckets of elements it contains (any
   subset's minimum is one of the candidate's own elements). *)
let minimize (family : Bitset.t list) : Bitset.t list =
  let sized = List.map (fun s -> (Bitset.cardinal s, s)) family in
  let sorted = List.sort (fun (la, _) (lb, _) -> compare la lb) sized in
  let seen = BsTbl.create (List.length family) in
  let by_min : (int, Bitset.t list) Hashtbl.t = Hashtbl.create 64 in
  let has_subset s =
    let found = ref false in
    (try
       Bitset.iter
         (fun x ->
           match Hashtbl.find_opt by_min x with
           | None -> ()
           | Some sets ->
               if
                 List.exists
                   (fun t ->
                     incr subset_probes;
                     Bitset.subset t s)
                   sets
               then begin
                 found := true;
                 raise Exit
               end)
         s
     with Exit -> ());
    !found
  in
  let accepted = ref [] in
  List.iter
    (fun (_, s) ->
      if BsTbl.mem seen s || has_subset s then incr absorbed_sets
      else begin
        BsTbl.replace seen s ();
        (match Bitset.min_elt_opt s with
        | None -> ()
        | Some min_elt ->
            let bucket =
              match Hashtbl.find_opt by_min min_elt with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace by_min min_elt (s :: bucket));
        accepted := s :: !accepted
      end)
    sorted;
  List.rev !accepted

(* --- family combination -------------------------------------------- *)

let check_budget ~max_family n =
  if n > max_family then raise (Too_many_cut_sets n)

(* The budget measures *minimized* family sizes: a gate whose absorbed
   family fits must not abort just because the raw concatenation or
   cross-product transiently overshot. *)

let or_combine ~max_family families =
  let merged = minimize (List.concat families) in
  check_budget ~max_family (List.length merged);
  merged

let and_combine ~max_size ~max_family families =
  let product f1 f2 =
    (* Raw pairwise unions are absorbed in chunks so intermediate
       memory stays O(max_family) while the budget still applies to
       post-minimization growth only. *)
    let flush_at = max 1024 max_family in
    let acc = ref [] and buf = ref [] and buf_n = ref 0 in
    let flush () =
      if !buf_n > 0 then begin
        let merged = minimize (List.rev_append !buf !acc) in
        check_budget ~max_family (List.length merged);
        acc := merged;
        buf := [];
        buf_n := 0
      end
    in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let u = Bitset.union a b in
            if Bitset.cardinal u <= max_size then begin
              buf := u :: !buf;
              incr buf_n;
              if !buf_n >= flush_at then flush ()
            end)
          f2)
      f1;
    flush ();
    !acc
  in
  match families with
  | [] -> invalid_arg "Cutset.and_combine: empty"
  | first :: rest -> List.fold_left product first rest

(* Enumerate k-subsets of a list, calling [f] on each. *)
let iter_ksubsets k xs f =
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let chosen = Array.make k 0 in
  let rec go start depth =
    if depth = k then f (Array.to_list (Array.map (fun i -> arr.(i)) chosen))
    else
      for i = start to n - (k - depth) do
        chosen.(depth) <- i;
        go (i + 1) (depth + 1)
      done
  in
  if k >= 0 && k <= n then go 0 0

let default_max_family = 500_000

let minimal_risk_groups ?(max_size = max_int) ?(max_family = default_max_family)
    g =
  Obs.with_span "rg.enum" @@ fun () ->
  let probes0 = !subset_probes and absorbed0 = !absorbed_sets in
  let width = Graph.node_count g in
  let memo : Bitset.t list option array = Array.make width None in
  Array.iter
    (fun id ->
      let n = Graph.node g id in
      let family =
        match n.Graph.kind with
        | Graph.Basic _ -> [ Bitset.of_sorted_array ~width [| id |] ]
        | Graph.Gate gate ->
            let child_families =
              Array.to_list
                (Array.map
                   (fun c ->
                     match memo.(c) with
                     | Some f -> f
                     | None -> assert false (* topological order *))
                   n.Graph.children)
            in
            (match gate with
            | Graph.Or -> or_combine ~max_family child_families
            | Graph.And -> and_combine ~max_size ~max_family child_families
            | Graph.Kofn k ->
                let acc = ref [] in
                iter_ksubsets k child_families (fun subset ->
                    let f = and_combine ~max_size ~max_family subset in
                    acc := f :: !acc);
                or_combine ~max_family !acc)
      in
      memo.(id) <- Some family)
    (Graph.topological_order g);
  match memo.(Graph.top g) with
  | Some f ->
      let family = sort_family (List.map Bitset.to_sorted_array f) in
      if Obs.on () then begin
        Obs.incr ~by:(!subset_probes - probes0) "cutset.subset_probes";
        Obs.incr ~by:(!absorbed_sets - absorbed0) "cutset.absorbed_sets";
        let n = List.length family in
        Obs.span_attr "family_size" (string_of_int n);
        Obs.observe ~bounds:[| 1.; 2.; 5.; 10.; 50.; 100.; 1000.; 10000. |]
          "rg.family_size" (float_of_int n)
      end;
      family
  | None -> assert false

let names g rg = Array.to_list (Array.map (fun id -> Graph.name_of g id) rg)

let is_risk_group g ids =
  let module IS = Set.Make (Int) in
  let set = IS.of_list ids in
  Graph.evaluate g ~failed:(fun id -> IS.mem id set)

let is_minimal_risk_group g ids =
  is_risk_group g ids
  && List.for_all
       (fun removed ->
         not (is_risk_group g (List.filter (fun x -> x <> removed) ids)))
       ids

module RgTbl = Hashtbl.Make (struct
  type t = rg

  let equal (a : rg) (b : rg) = a = b
  let hash (a : rg) = Hashtbl.hash a
end)

module RgSet = struct
  type t = unit RgTbl.t

  let create () = RgTbl.create 256
  let add t rg = RgTbl.replace t rg ()
  let mem t rg = RgTbl.mem t rg
  let cardinal t = RgTbl.length t
  let to_list t = RgTbl.fold (fun k () acc -> k :: acc) t []
end
