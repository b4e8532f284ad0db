(* Reduced ordered BDD with hash-consing. Node ids are indexes into
   growable arrays; 0 and 1 are the terminals. Variables are ranks in
   the basic-event order (ascending rank toward the leaves). *)

module Obs = Indaas_obs.Registry

type node = int

type manager = {
  mutable var : int array; (* rank per node *)
  mutable low : int array;
  mutable high : int array;
  mutable next : int;
  unique : (int * int * int, int) Hashtbl.t; (* (var, low, high) -> node *)
  apply_cache : (int * int * int, int) Hashtbl.t; (* (op, a, b) -> node *)
  rank_to_basic : Graph.node_id array;
  rank_of : (Graph.node_id, int) Hashtbl.t; (* basic event -> rank *)
  (* Minimal-solutions (Rauzy) pass: cut-set families live in a
     zero-suppressed sub-store of the same manager. ZDD node 0 is the
     empty family, node 1 the family {∅}; a decision node (x, lo, hi)
     encodes lo ∪ {S ∪ {x} | S ∈ hi}. *)
  mutable zvar : int array;
  mutable zlow : int array;
  mutable zhigh : int array;
  mutable znext : int;
  zunique : (int * int * int, int) Hashtbl.t;
  zop_cache : (int * int * int, int) Hashtbl.t; (* (op, a, b) -> zdd *)
  minsol_cache : (int, int) Hashtbl.t; (* bdd node -> zdd node *)
}

let terminal_false = 0
let terminal_true = 1

let create rank_of rank_to_basic =
  let initial = 1024 in
  let m =
    {
      var = Array.make initial max_int;
      low = Array.make initial (-1);
      high = Array.make initial (-1);
      next = 2;
      unique = Hashtbl.create 1024;
      apply_cache = Hashtbl.create 4096;
      rank_to_basic;
      rank_of;
      zvar = Array.make initial max_int;
      zlow = Array.make initial (-1);
      zhigh = Array.make initial (-1);
      znext = 2;
      zunique = Hashtbl.create 1024;
      zop_cache = Hashtbl.create 4096;
      minsol_cache = Hashtbl.create 1024;
    }
  in
  (* terminals carry an infinite rank so ordering checks are uniform *)
  m.var.(terminal_false) <- max_int;
  m.var.(terminal_true) <- max_int;
  m.zvar.(terminal_false) <- max_int;
  m.zvar.(terminal_true) <- max_int;
  m

let grow m =
  let n = Array.length m.var in
  let bigger default arr =
    let a = Array.make (2 * n) default in
    Array.blit arr 0 a 0 n;
    a
  in
  m.var <- bigger max_int m.var;
  m.low <- bigger (-1) m.low;
  m.high <- bigger (-1) m.high

let mk m var low high =
  if low = high then low
  else
    let key = (var, low, high) in
    match Hashtbl.find_opt m.unique key with
    | Some node -> node
    | None ->
        if m.next >= Array.length m.var then grow m;
        let node = m.next in
        m.next <- node + 1;
        m.var.(node) <- var;
        m.low.(node) <- low;
        m.high.(node) <- high;
        Hashtbl.replace m.unique key node;
        node

type op = Op_and | Op_or

let op_code = function Op_and -> 0 | Op_or -> 1

let terminal_case op a b =
  match op with
  | Op_and ->
      if a = terminal_false || b = terminal_false then Some terminal_false
      else if a = terminal_true then Some b
      else if b = terminal_true then Some a
      else if a = b then Some a
      else None
  | Op_or ->
      if a = terminal_true || b = terminal_true then Some terminal_true
      else if a = terminal_false then Some b
      else if b = terminal_false then Some a
      else if a = b then Some a
      else None

let rec apply m op a b =
  match terminal_case op a b with
  | Some r -> r
  | None ->
      (* commutative ops: canonicalize the cache key *)
      let a, b = if a <= b then (a, b) else (b, a) in
      let key = (op_code op, a, b) in
      (match Hashtbl.find_opt m.apply_cache key with
      | Some r -> r
      | None ->
          let va = m.var.(a) and vb = m.var.(b) in
          let top = min va vb in
          let a_low = if va = top then m.low.(a) else a in
          let a_high = if va = top then m.high.(a) else a in
          let b_low = if vb = top then m.low.(b) else b in
          let b_high = if vb = top then m.high.(b) else b in
          let low = apply m op a_low b_low in
          let high = apply m op a_high b_high in
          let r = mk m top low high in
          Hashtbl.replace m.apply_cache key r;
          r)

let apply_list m op = function
  | [] -> invalid_arg "Bdd.apply_list: empty"
  | first :: rest -> List.fold_left (fun acc x -> apply m op acc x) first rest

let negate m a =
  (* !a computed structurally (no complement edges); memoized through
     the apply cache with a pseudo-op. *)
  let rec neg a =
    if a = terminal_false then terminal_true
    else if a = terminal_true then terminal_false
    else
      let key = (2, a, a) in
      match Hashtbl.find_opt m.apply_cache key with
      | Some r -> r
      | None ->
          let r = mk m m.var.(a) (neg m.low.(a)) (neg m.high.(a)) in
          Hashtbl.replace m.apply_cache key r;
          r
  in
  neg a

(* at-least-k-of over a list of BDDs, with memoization over (k, index)
   — the standard threshold recursion. *)
let kofn m k nodes =
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let memo = Hashtbl.create 64 in
  let rec go k i =
    if k <= 0 then terminal_true
    else if n - i < k then terminal_false
    else
      match Hashtbl.find_opt memo (k, i) with
      | Some r -> r
      | None ->
          let with_i = go (k - 1) (i + 1) in
          let without_i = go k (i + 1) in
          (* arr.(i) ? with_i : without_i  ==  (x AND with) OR (!x AND without):
             use Shannon-style combination via apply *)
          let x = arr.(i) in
          let r =
            apply m Op_or
              (apply m Op_and x with_i)
              (apply m Op_and (negate m x) without_i)
          in
          Hashtbl.replace memo (k, i) r;
          r
  in
  go k 0

let of_graph g =
  let basics = Graph.basic_ids g in
  let rank_of = Hashtbl.create (Array.length basics) in
  Array.iteri (fun rank id -> Hashtbl.replace rank_of id rank) basics;
  let m = create rank_of (Array.copy basics) in
  let memo : node option array = Array.make (Graph.node_count g) None in
  Array.iter
    (fun id ->
      let n = Graph.node g id in
      let bdd =
        match n.Graph.kind with
        | Graph.Basic _ ->
            let rank = Hashtbl.find rank_of id in
            mk m rank terminal_false terminal_true
        | Graph.Gate gate ->
            let children =
              Array.to_list
                (Array.map
                   (fun c ->
                     match memo.(c) with Some b -> b | None -> assert false)
                   n.Graph.children)
            in
            (match gate with
            | Graph.Or -> apply_list m Op_or children
            | Graph.And -> apply_list m Op_and children
            | Graph.Kofn k -> kofn m k children)
      in
      memo.(id) <- Some bdd)
    (Graph.topological_order g);
  let top = match memo.(Graph.top g) with Some b -> b | None -> assert false in
  (m, top)

let size m = m.next - 2

let node_count m node =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if n > terminal_true && not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      go m.low.(n);
      go m.high.(n)
    end
  in
  go node;
  Hashtbl.length seen

let evaluate m node ~failed =
  let rec go n =
    if n = terminal_false then false
    else if n = terminal_true then true
    else if failed m.rank_to_basic.(m.var.(n)) then go m.high.(n)
    else go m.low.(n)
  in
  go node

let probability m node ~prob_of =
  let memo = Hashtbl.create 256 in
  let rec go n =
    if n = terminal_false then 0.
    else if n = terminal_true then 1.
    else
      match Hashtbl.find_opt memo n with
      | Some p -> p
      | None ->
          let p_fail = prob_of m.rank_to_basic.(m.var.(n)) in
          let p = (p_fail *. go m.high.(n)) +. ((1. -. p_fail) *. go m.low.(n)) in
          Hashtbl.replace memo n p;
          p
  in
  go node

let graph_probability g =
  let m, top = of_graph g in
  probability m top ~prob_of:(Probability.prob_exn g)

let sat_count m node ~vars =
  if vars < 0 then invalid_arg "Bdd.sat_count: negative vars";
  (* Count over the full variable space: each skipped level doubles. *)
  let memo = Hashtbl.create 256 in
  let rec go n level =
    (* level = next variable rank to account for *)
    if n = terminal_false then 0.
    else if n = terminal_true then 2. ** float_of_int (vars - level)
    else
      let v = m.var.(n) in
      let skipped = 2. ** float_of_int (v - level) in
      let inner =
        match Hashtbl.find_opt memo n with
        | Some c -> c
        | None ->
            let c = go m.low.(n) (v + 1) +. go m.high.(n) (v + 1) in
            Hashtbl.replace memo n c;
            c
      in
      skipped *. inner
  in
  go node 0

let is_terminal _ node =
  if node = terminal_false then Some false
  else if node = terminal_true then Some true
  else None

(* --- minimal risk groups (Rauzy's minimal-solutions pass) ----------- *)

(* The cut-set families below are zero-suppressed: a node whose
   high-branch family is empty is its low branch, and skipped
   variables mean "absent from every member", so there is no
   don't-care collapse to corrupt set membership. *)

let zgrow m =
  let n = Array.length m.zvar in
  let bigger default arr =
    let a = Array.make (2 * n) default in
    Array.blit arr 0 a 0 n;
    a
  in
  m.zvar <- bigger max_int m.zvar;
  m.zlow <- bigger (-1) m.zlow;
  m.zhigh <- bigger (-1) m.zhigh

let zmk m var low high =
  if high = terminal_false then low
  else
    let key = (var, low, high) in
    match Hashtbl.find_opt m.zunique key with
    | Some node -> node
    | None ->
        if m.znext >= Array.length m.zvar then zgrow m;
        let node = m.znext in
        m.znext <- node + 1;
        m.zvar.(node) <- var;
        m.zlow.(node) <- low;
        m.zhigh.(node) <- high;
        Hashtbl.replace m.zunique key node;
        node

(* Family union (plain set union of members). *)
let rec zunion m a b =
  if a = b then a
  else if a = terminal_false then b
  else if b = terminal_false then a
  else begin
    let a, b = if a <= b then (a, b) else (b, a) in
    let key = (0, a, b) in
    match Hashtbl.find_opt m.zop_cache key with
    | Some r -> r
    | None ->
        let va = m.zvar.(a) and vb = m.zvar.(b) in
        let r =
          if va = vb then
            (* both decision nodes on the same variable (terminals have
               rank max_int and were handled above except a = 1, which
               has no equal-rank partner left) *)
            zmk m va
              (zunion m m.zlow.(a) m.zlow.(b))
              (zunion m m.zhigh.(a) m.zhigh.(b))
          else if va < vb then zmk m va (zunion m m.zlow.(a) b) m.zhigh.(a)
          else zmk m vb (zunion m a m.zlow.(b)) m.zhigh.(b)
        in
        Hashtbl.replace m.zop_cache key r;
        r
  end

(* [zwithout m a b]: the members of [a] that are supersets of no
   member of [b] — Rauzy's "without" (a.k.a. subsume-difference). *)
let rec zwithout m a b =
  if a = terminal_false then terminal_false
  else if b = terminal_false then a
  else if b = terminal_true then terminal_false (* every set ⊇ ∅ *)
  else if a = b then terminal_false
  else if a = terminal_true then
    (* ∅ is a superset of a member iff ∅ itself is one: chase b's
       all-absent chain. *)
    zwithout m a m.zlow.(b)
  else begin
    let key = (1, a, b) in
    match Hashtbl.find_opt m.zop_cache key with
    | Some r -> r
    | None ->
        let va = m.zvar.(a) and vb = m.zvar.(b) in
        let r =
          if va = vb then
            (* members without x are subsumed only by b-members without
               x; members with x by either kind (x dropped). *)
            zmk m va
              (zwithout m m.zlow.(a) m.zlow.(b))
              (zwithout m m.zhigh.(a) (zunion m m.zlow.(b) m.zhigh.(b)))
          else if va < vb then
            (* no b-member contains x = va *)
            zmk m va (zwithout m m.zlow.(a) b) (zwithout m m.zhigh.(a) b)
          else
            (* b-members containing vb cannot subsume: a lacks vb *)
            zwithout m a m.zlow.(b)
        in
        Hashtbl.replace m.zop_cache key r;
        r
  end

(* Minimal solutions of a monotone BDD (Rauzy 1993): with f = ite(x,
   f1, f0) and f0 ⇒ f1, the minimal cut sets are MinCuts(f0) plus
   {x} ∪ C for every C ∈ MinCuts(f1) subsuming no member of
   MinCuts(f0). *)
let rec minsol m n =
  if n = terminal_false then terminal_false
  else if n = terminal_true then terminal_true
  else
    match Hashtbl.find_opt m.minsol_cache n with
    | Some z -> z
    | None ->
        let z0 = minsol m m.low.(n) in
        let z1 = minsol m m.high.(n) in
        let z = zmk m m.var.(n) z0 (zwithout m z1 z0) in
        Hashtbl.replace m.minsol_cache n z;
        z

let family_size m z =
  let memo = Hashtbl.create 256 in
  let rec go z =
    if z = terminal_false then 0
    else if z = terminal_true then 1
    else
      match Hashtbl.find_opt memo z with
      | Some c -> c
      | None ->
          let c = go m.zlow.(z) + go m.zhigh.(z) in
          Hashtbl.replace memo z c;
          c
  in
  go z

(* The family is first held as a ZDD (each RG a chain built
   bottom-up, so every [zmk] is already in order), then turned into its
   union function node by node: (x, lo, hi) denotes lo OR (x AND hi),
   that is ite(x, lo OR hi, lo). OR-ing the RGs' cubes one by one
   instead passes through intermediate unions far larger than the
   result. *)
let of_family m family =
  let rank id =
    match Hashtbl.find_opt m.rank_of id with
    | Some r -> r
    | None -> invalid_arg "Bdd.of_family: not a basic event of the graph"
  in
  let chain rg =
    List.fold_right
      (fun r acc -> zmk m r terminal_false acc)
      (List.sort_uniq compare (List.map rank (Array.to_list rg)))
      terminal_true
  in
  let z =
    List.fold_left (fun acc rg -> zunion m acc (chain rg)) terminal_false family
  in
  let memo = Hashtbl.create 64 in
  let rec bdd z =
    if z <= terminal_true then z
    else
      match Hashtbl.find_opt memo z with
      | Some n -> n
      | None ->
          let lo = bdd m.zlow.(z) in
          let n = mk m m.zvar.(z) lo (apply m Op_or lo (bdd m.zhigh.(z))) in
          Hashtbl.replace memo z n;
          n
  in
  bdd z

let minimal_rg_count g =
  let m, top = of_graph g in
  family_size m (minsol m top)

let minimal_risk_groups ?(max_size = max_int) g =
  Obs.with_span "rg.bdd" @@ fun () ->
  let m, top = of_graph g in
  let z = minsol m top in
  if Obs.on () then begin
    Obs.incr ~by:(size m) "bdd.nodes";
    Obs.incr ~by:(m.znext - 2) "bdd.zdd_nodes";
    Obs.span_attr "bdd_nodes" (string_of_int (size m));
    Obs.span_attr "family_size" (string_of_int (family_size m z))
  end;
  (* Read-out in canonical order, no sort: ranks ascend toward the
     leaves and [rank_to_basic] ascends with them, so each path is a
     sorted id array and, within one size, sets containing a node's
     variable precede those that skip it — the lexicographic order.
     The walk visits the low branch first and conses, so each size
     bucket ends up high-branch first; concatenating the buckets by
     size gives {!Cutset.sort_family}'s order. *)
  let depth_limit = max 0 (min max_size (Array.length m.rank_to_basic)) in
  let buckets = Array.make (depth_limit + 1) [] in
  let path = Array.make depth_limit 0 in
  let rec walk z depth =
    if z = terminal_true then
      buckets.(depth) <-
        Array.init depth (fun i -> m.rank_to_basic.(path.(i))) :: buckets.(depth)
    else if z <> terminal_false then begin
      walk m.zlow.(z) depth;
      if depth < depth_limit then begin
        path.(depth) <- m.zvar.(z);
        walk m.zhigh.(z) (depth + 1)
      end
    end
  in
  walk z 0;
  let family = List.concat (Array.to_list buckets) in
  if Obs.on () then
    Obs.observe ~bounds:[| 1.; 2.; 5.; 10.; 50.; 100.; 1000.; 10000. |]
      "rg.family_size"
      (float_of_int (List.length family));
  family
