(* Reduced ordered BDD with hash-consing. Node ids are indexes into
   growable arrays; 0 and 1 are the terminals. Variables are ranks in
   the basic-event order (ascending rank toward the leaves). Every
   hash-consing and memo table is a [Flat_table] or an array indexed
   by node id, so no lookup boxes a key. *)

module Obs = Indaas_obs.Registry

type node = int

type manager = {
  mutable var : int array; (* rank per node *)
  mutable low : int array;
  mutable high : int array;
  mutable minsol_cache : int array; (* bdd node -> zdd node, -1 unknown *)
  mutable next : int;
  unique : Flat_table.t; (* (var, low, high) -> node *)
  apply_cache : Flat_table.t; (* (op, a, b) -> node *)
  mutable rank_to_basic : Graph.node_id array;
  mutable rank_of : int array; (* graph node id -> rank, -1 for gates *)
  (* Minimal-solutions (Rauzy) pass: cut-set families live in a
     zero-suppressed sub-store of the same manager. ZDD node 0 is the
     empty family, node 1 the family {∅}; a decision node (x, lo, hi)
     encodes lo ∪ {S ∪ {x} | S ∈ hi}. *)
  mutable zvar : int array;
  mutable zlow : int array;
  mutable zhigh : int array;
  mutable znext : int;
  zunique : Flat_table.t;
  zop_cache : Flat_table.t; (* (op, a, b) -> zdd *)
}

let terminal_false = 0
let terminal_true = 1

(* Terminals sit at rank max_int (the arrays' fill value, never
   overwritten: nodes are allocated from 2), so ordering checks are
   uniform. The first arrays and tables are sized from the graph:
   room for [nodes_per_graph_node] decision nodes per graph node, each
   table at twice that many slots, so it doubles when the node arrays
   do. *)
let nodes_per_graph_node = 8

let create g =
  let wanted = nodes_per_graph_node * Graph.node_count g in
  let rec pow2 n = if n >= wanted then n else pow2 (2 * n) in
  let nodes = pow2 256 in
  let slots = 2 * nodes in
  {
    var = Array.make nodes max_int;
    low = Array.make nodes (-1);
    high = Array.make nodes (-1);
    minsol_cache = Array.make nodes (-1);
    next = 2;
    unique = Flat_table.create slots;
    apply_cache = Flat_table.create slots;
    rank_to_basic = [||];
    rank_of = [||];
    zvar = Array.make nodes max_int;
    zlow = Array.make nodes (-1);
    zhigh = Array.make nodes (-1);
    znext = 2;
    zunique = Flat_table.create slots;
    zop_cache = Flat_table.create slots;
  }

(* Back to an empty store, keeping every array's capacity. Node
   arrays past [next] are never read before [mk] writes them; the
   minsol memo is the one node-indexed array read by lookup. *)
let reset m =
  Array.fill m.minsol_cache 0 m.next (-1);
  m.next <- 2;
  m.znext <- 2;
  Flat_table.clear m.unique;
  Flat_table.clear m.apply_cache;
  Flat_table.clear m.zunique;
  Flat_table.clear m.zop_cache

let footprint m =
  let words =
    (4 * Array.length m.var)
    + (3 * Array.length m.zvar)
    + Array.length m.rank_to_basic + Array.length m.rank_of
    + Flat_table.words m.unique + Flat_table.words m.apply_cache
    + Flat_table.words m.zunique + Flat_table.words m.zop_cache
  in
  words * (Sys.word_size / 8)

let bigger default arr =
  let n = Array.length arr in
  let a = Array.make (2 * n) default in
  Array.blit arr 0 a 0 n;
  a

let grow m =
  m.var <- bigger max_int m.var;
  m.low <- bigger (-1) m.low;
  m.high <- bigger (-1) m.high;
  m.minsol_cache <- bigger (-1) m.minsol_cache

let mk m var low high =
  if low = high then low
  else
    let found = Flat_table.find m.unique var low high in
    if found >= 0 then found
    else begin
      if m.next >= Array.length m.var then grow m;
      let node = m.next in
      m.next <- node + 1;
      m.var.(node) <- var;
      m.low.(node) <- low;
      m.high.(node) <- high;
      Flat_table.add m.unique var low high node;
      node
    end

type op = Op_and | Op_or

let op_code = function Op_and -> 0 | Op_or -> 1

(* The result when one operand decides it, else -1. *)
let terminal_case op a b =
  match op with
  | Op_and ->
      if a = terminal_false || b = terminal_false then terminal_false
      else if a = terminal_true then b
      else if b = terminal_true then a
      else if a = b then a
      else -1
  | Op_or ->
      if a = terminal_true || b = terminal_true then terminal_true
      else if a = terminal_false then b
      else if b = terminal_false then a
      else if a = b then a
      else -1

let rec apply m op a b =
  let r = terminal_case op a b in
  if r >= 0 then r
  else
    (* commutative ops: canonicalize the cache key *)
    let a = Int.min a b and b = Int.max a b in
    let cached = Flat_table.find m.apply_cache (op_code op) a b in
    if cached >= 0 then cached
    else
      let va = m.var.(a) and vb = m.var.(b) in
      let top = Int.min va vb in
      let a_low = if va = top then m.low.(a) else a in
      let a_high = if va = top then m.high.(a) else a in
      let b_low = if vb = top then m.low.(b) else b in
      let b_high = if vb = top then m.high.(b) else b in
      let low = apply m op a_low b_low in
      let high = apply m op a_high b_high in
      let r = mk m top low high in
      Flat_table.add m.apply_cache (op_code op) a b r;
      r

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
      let cached = Flat_table.find m.apply_cache 2 a a in
      if cached >= 0 then cached
      else
        let r = mk m m.var.(a) (neg m.low.(a)) (neg m.high.(a)) in
        Flat_table.add m.apply_cache 2 a a r;
        r
  in
  neg a

(* at-least-k-of over a list of BDDs, with memoization over (k, index)
   — the standard threshold recursion. *)
let kofn m k nodes =
  let arr = Array.of_list nodes in
  let n = Array.length arr in
  let memo = Array.make ((Int.max k 0 + 1) * (n + 1)) (-1) in
  let rec go k i =
    if k <= 0 then terminal_true
    else if n - i < k then terminal_false
    else
      let slot = (k * (n + 1)) + i in
      if memo.(slot) >= 0 then memo.(slot)
      else
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
        memo.(slot) <- r;
        r
  in
  go k 0

(* Compiles the top event into [m], which must be empty, and returns
   its node. *)
let compile m g =
  let basics = Graph.basic_ids g in
  let rank_of = Array.make (Graph.node_count g) (-1) in
  Array.iteri (fun rank id -> rank_of.(id) <- rank) basics;
  m.rank_of <- rank_of;
  m.rank_to_basic <- Array.copy basics;
  let memo = Array.make (Graph.node_count g) (-1) in
  Array.iter
    (fun id ->
      let n = Graph.node g id in
      memo.(id) <-
        (match n.Graph.kind with
        | Graph.Basic _ -> mk m rank_of.(id) terminal_false terminal_true
        | Graph.Gate gate -> (
            let children =
              Array.to_list
                (Array.map
                   (fun c ->
                     assert (memo.(c) >= 0);
                     memo.(c))
                   n.Graph.children)
            in
            match gate with
            | Graph.Or -> apply_list m Op_or children
            | Graph.And -> apply_list m Op_and children
            | Graph.Kofn k -> kofn m k children)))
    (Graph.topological_order g);
  memo.(Graph.top g)

let of_graph g =
  let m = create g in
  let top = compile m g in
  (m, top)

(* --- the per-domain spare manager -------------------------------------- *)

let retention_cap_bytes = 16 * 1024 * 1024

let spare : manager option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* Runs [f] on [g] compiled into this domain's spare manager, which
   [f] must not let escape. Taking the spare out of its slot marks it
   busy, so a nested call allocates a fresh manager; a call that
   raises never puts its manager back. The spare is reset when taken,
   and kept afterwards only while its arrays fit the retention cap. *)
let with_spare g f =
  let slot = Domain.DLS.get spare in
  let m =
    match !slot with
    | Some m ->
        slot := None;
        reset m;
        m
    | None -> create g
  in
  let result = f m (compile m g) in
  if footprint m <= retention_cap_bytes then slot := Some m;
  result

let size m = m.next - 2

let node_count m node =
  let seen = Bytes.make m.next '\000' in
  let rec go n count =
    if n <= terminal_true || Bytes.get seen n <> '\000' then count
    else begin
      Bytes.set seen n '\001';
      go m.high.(n) (go m.low.(n) (count + 1))
    end
  in
  go node 0

let probability m node ~prob_of =
  (* Indexed by node id; no probability is negative, so -1 marks a
     node not yet evaluated. *)
  let memo = Float.Array.make m.next (-1.) in
  let rec go n =
    if n = terminal_false then 0.
    else if n = terminal_true then 1.
    else
      let cached = Float.Array.get memo n in
      if cached >= 0. then cached
      else
        let p_fail = prob_of m.rank_to_basic.(m.var.(n)) in
        let p = (p_fail *. go m.high.(n)) +. ((1. -. p_fail) *. go m.low.(n)) in
        Float.Array.set memo n p;
        p
  in
  go node

let graph_probability g =
  with_spare g (fun m top -> probability m top ~prob_of:(Probability.prob_exn g))

(* --- minimal risk groups (Rauzy's minimal-solutions pass) ----------- *)

(* The cut-set families below are zero-suppressed: a node whose
   high-branch family is empty is its low branch, and skipped
   variables mean "absent from every member", so there is no
   don't-care collapse to corrupt set membership. *)

let zgrow m =
  m.zvar <- bigger max_int m.zvar;
  m.zlow <- bigger (-1) m.zlow;
  m.zhigh <- bigger (-1) m.zhigh

let zmk m var low high =
  if high = terminal_false then low
  else
    let found = Flat_table.find m.zunique var low high in
    if found >= 0 then found
    else begin
      if m.znext >= Array.length m.zvar then zgrow m;
      let node = m.znext in
      m.znext <- node + 1;
      m.zvar.(node) <- var;
      m.zlow.(node) <- low;
      m.zhigh.(node) <- high;
      Flat_table.add m.zunique var low high node;
      node
    end

(* Family union (plain set union of members). *)
let rec zunion m a b =
  if a = b then a
  else if a = terminal_false then b
  else if b = terminal_false then a
  else begin
    let a = Int.min a b and b = Int.max a b in
    let cached = Flat_table.find m.zop_cache 0 a b in
    if cached >= 0 then cached
    else
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
      Flat_table.add m.zop_cache 0 a b r;
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
    let cached = Flat_table.find m.zop_cache 1 a b in
    if cached >= 0 then cached
    else
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
      Flat_table.add m.zop_cache 1 a b r;
      r
  end

(* Minimal solutions of a monotone BDD (Rauzy 1993): with f = ite(x,
   f1, f0) and f0 ⇒ f1, the minimal cut sets are MinCuts(f0) plus
   {x} ∪ C for every C ∈ MinCuts(f1) subsuming no member of
   MinCuts(f0). *)
let rec minsol m n =
  if n = terminal_false then terminal_false
  else if n = terminal_true then terminal_true
  else if m.minsol_cache.(n) >= 0 then m.minsol_cache.(n)
  else
    let z0 = minsol m m.low.(n) in
    let z1 = minsol m m.high.(n) in
    let z = zmk m m.var.(n) z0 (zwithout m z1 z0) in
    m.minsol_cache.(n) <- z;
    z

let family_size m z =
  let memo = Array.make m.znext (-1) in
  let rec go z =
    if z = terminal_false then 0
    else if z = terminal_true then 1
    else if memo.(z) >= 0 then memo.(z)
    else
      let c = go m.zlow.(z) + go m.zhigh.(z) in
      memo.(z) <- c;
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
    if id >= 0 && id < Array.length m.rank_of && m.rank_of.(id) >= 0 then
      m.rank_of.(id)
    else invalid_arg "Bdd.of_family: not a basic event of the graph"
  in
  let chain rg =
    List.fold_right
      (fun r acc -> zmk m r terminal_false acc)
      (List.sort_uniq Int.compare (List.map rank (Array.to_list rg)))
      terminal_true
  in
  let z =
    List.fold_left (fun acc rg -> zunion m acc (chain rg)) terminal_false family
  in
  let memo = Array.make m.znext (-1) in
  let rec bdd z =
    if z <= terminal_true then z
    else if memo.(z) >= 0 then memo.(z)
    else
      let lo = bdd m.zlow.(z) in
      let n = mk m m.zvar.(z) lo (apply m Op_or lo (bdd m.zhigh.(z))) in
      memo.(z) <- n;
      n
  in
  bdd z

let risk_groups ?(max_size = max_int) m top =
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

let minimal_risk_groups ?max_size g =
  Obs.with_span "rg.bdd" @@ fun () -> with_spare g (risk_groups ?max_size)
