(* Bechamel micro-benchmarks of the computational kernels every
   experiment is built from: bignum modexp (the unit of P-SOP/KS
   cost), hashing, fault-graph evaluation (the unit of sampling cost),
   minimal-cut-set computation, and one P-SOP element operation.

   Also the RG-engine comparison: the bitset-kernel enumeration engine
   vs the BDD minimal-solutions engine on sparse and dense graphs and
   on fat-tree deployments of every redundancy shape the serving
   benchmark audits, with the engine [auto] picks for each, persisted
   to BENCH_kernels.json as the repo's perf baseline. *)

open Bechamel
open Toolkit
module Nat = Indaas_bignum.Nat
module Prime = Indaas_bignum.Prime
module Digest = Indaas_crypto.Digest
module Commutative = Indaas_crypto.Commutative
module Paillier = Indaas_crypto.Paillier
module Oracle = Indaas_crypto.Oracle
module Graph = Indaas_faultgraph.Graph
module Cutset = Indaas_faultgraph.Cutset
module Bdd = Indaas_faultgraph.Bdd
module Fattree = Indaas_topology.Fattree
module Depdb = Indaas_depdata.Depdb
module Dependency = Indaas_depdata.Dependency
module Collectors = Indaas_depdata.Collectors
module Builder = Indaas_sia.Builder
module Audit = Indaas_sia.Audit
module Prng = Indaas_util.Prng
module Json = Indaas_util.Json
module Timing = Indaas_util.Timing

let rng = Prng.of_int 0xBE7C

(* Pre-built inputs, shared across iterations. *)
let modulus_256 = Prime.generate rng ~bits:256
let base_256 = Nat.random_below rng modulus_256
let exp_256 = Nat.random_below rng modulus_256
let modulus_1024 = Prime.oakley_group2
let exp_1024 = Nat.random_below rng modulus_1024

let comm_params = Commutative.params_pohlig_hellman ~bits:256 rng
let comm_key = Commutative.generate_key rng comm_params
let group_element = Oracle.hash_to_group "bench" ~modulus:(Commutative.modulus comm_params)

let paillier = Paillier.generate ~bits:128 rng
let paillier_ct = Paillier.encrypt rng paillier.Paillier.public (Nat.of_int 41)

let one_kb = String.init 1024 (fun i -> Char.chr (i land 0xFF))

let fat_graph =
  let t = Fattree.create ~k:16 in
  let db = Depdb.create () in
  List.iter
    (fun s -> Depdb.add_all db (Fattree.network_records t ~server:s))
    [ 0; Fattree.server_count t - 1 ];
  Builder.build db
    (Builder.spec [ Fattree.server_name t 0; Fattree.server_name t (Fattree.server_count t - 1) ])

let eval_values = Array.make (Graph.node_count fat_graph) false
let eval_rng = Prng.of_int 5

let small_graph =
  Graph.of_component_sets
    [
      ("E1", List.init 12 (Printf.sprintf "a%d"));
      ("E2", List.init 12 (Printf.sprintf "b%d"));
    ]

let tests =
  [
    Test.make ~name:"nat.mod_pow (256-bit)" (Staged.stage (fun () ->
        ignore (Nat.mod_pow ~base:base_256 ~exp:exp_256 ~modulus:modulus_256)));
    Test.make ~name:"nat.mod_pow (1024-bit)" (Staged.stage (fun () ->
        ignore (Nat.mod_pow ~base:Nat.two ~exp:exp_1024 ~modulus:modulus_1024)));
    Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () ->
        ignore (Digest.sha256 one_kb)));
    Test.make ~name:"md5 (1 KiB)" (Staged.stage (fun () ->
        ignore (Digest.md5 one_kb)));
    Test.make ~name:"psop element op (hash+encrypt, 256-bit)"
      (Staged.stage (fun () ->
           ignore (Commutative.encrypt comm_params comm_key group_element)));
    Test.make ~name:"paillier.scalar_mul (128-bit)" (Staged.stage (fun () ->
        ignore
          (Paillier.scalar_mul paillier.Paillier.public (Nat.of_int 123456) paillier_ct)));
    Test.make ~name:"sampling round (k=16 fault graph)" (Staged.stage (fun () ->
        Array.iter
          (fun id -> eval_values.(id) <- Prng.bool eval_rng)
          (Graph.basic_ids fat_graph);
        Graph.evaluate_into fat_graph ~values:eval_values));
    Test.make ~name:"minimal cut sets (2x12 component sets)"
      (Staged.stage (fun () -> ignore (Cutset.minimal_risk_groups small_graph)));
    Test.make ~name:"BDD minsol (2x12 component sets)"
      (Staged.stage (fun () -> ignore (Bdd.minimal_risk_groups small_graph)));
  ]

(* --- RG engine comparison -------------------------------------------- *)

type engine_outcome =
  | Completed of { rgs : int; seconds : float }
  | Budget_exceeded of { family : int; seconds : float }

type engine_case = {
  case_name : string;
  graph : Graph.t;
  budget : int option; (* max_family for the enumeration engine *)
}

(* [shared] components appear in every source: absorption keeps the
   minimized family small, which is the enumeration engine's happy
   path. Disjoint sources multiply instead — the family is the full
   c^s cross-product and only the BDD engine's shared structure
   survives. *)
let component_set_case name ~sources ~comps ~shared ~budget =
  let source i =
    ( Printf.sprintf "E%d" i,
      List.init shared (Printf.sprintf "shared%d")
      @ List.init comps (fun j -> Printf.sprintf "s%d_c%d" i j) )
  in
  {
    case_name = name;
    graph = Graph.of_component_sets (List.init sources source);
    budget;
  }

let kofn_case name ~k ~sources ~comps ~budget =
  let b = Graph.Builder.create () in
  let gate i =
    let ids =
      List.init comps (fun j ->
          Graph.Builder.add_basic b (Printf.sprintf "s%d_c%d" i j))
    in
    Graph.Builder.add_gate b ~name:(Printf.sprintf "E%d" i) Graph.Or ids
  in
  let gates = List.init sources gate in
  let top = Graph.Builder.add_gate b ~name:"top" (Graph.Kofn k) gates in
  { case_name = name; graph = Graph.Builder.build b ~top; budget }

let engine_cases ~smoke =
  if smoke then
    [
      component_set_case "sparse shared (3x4 + 1 shared)" ~sources:3 ~comps:4
        ~shared:1 ~budget:None;
      component_set_case "dense product (2x8, budget 20)" ~sources:2 ~comps:8
        ~shared:0 ~budget:(Some 20);
      kofn_case "2-of-3 x 4 (budget 10)" ~k:2 ~sources:3 ~comps:4
        ~budget:(Some 10);
    ]
  else
    let comps = Bench_common.scale ~quick:40 ~standard:100 ~full:300 in
    let budget = Bench_common.scale ~quick:500 ~standard:2_000 ~full:20_000 in
    let tri = Bench_common.scale ~quick:10 ~standard:15 ~full:25 in
    let kofn_comps = Bench_common.scale ~quick:8 ~standard:12 ~full:20 in
    [
      component_set_case "2-way sparse (2x20 + 1 shared)" ~sources:2 ~comps:20
        ~shared:1 ~budget:None;
      component_set_case
        (Printf.sprintf "3-way dense (3x%d + 1 shared)" tri)
        ~sources:3 ~comps:tri ~shared:1 ~budget:None;
      component_set_case
        (Printf.sprintf "dense product (2x%d, budget %d)" comps budget)
        ~sources:2 ~comps ~shared:0 ~budget:(Some budget);
      kofn_case
        (Printf.sprintf "3-of-8 x %d (budget %d)" kofn_comps budget)
        ~k:3 ~sources:8 ~comps:kofn_comps ~budget:(Some budget);
    ]

let run_enum { graph; budget; _ } =
  let f () =
    match budget with
    | None -> Cutset.minimal_risk_groups graph
    | Some max_family -> Cutset.minimal_risk_groups ~max_family graph
  in
  match Timing.time (fun () -> try Ok (f ()) with e -> Error e) with
  | Ok rgs, seconds -> (Completed { rgs = List.length rgs; seconds }, Some rgs)
  | Error (Cutset.Too_many_cut_sets n), seconds ->
      (Budget_exceeded { family = n; seconds }, None)
  | Error e, _ -> raise e

let run_bdd { graph; _ } =
  let rgs, seconds = Timing.time (fun () -> Bdd.minimal_risk_groups graph) in
  (Completed { rgs = List.length rgs; seconds }, Some rgs)

let outcome_cell = function
  | Completed { rgs; seconds } ->
      Printf.sprintf "%d RGs in %s" rgs (Bench_common.seconds seconds)
  | Budget_exceeded { family; seconds } ->
      Printf.sprintf "budget trip (%d) in %s" family
        (Bench_common.seconds seconds)

let outcome_json budget = function
  | Completed { rgs; seconds } ->
      Json.Obj
        [
          ("status", Json.String "ok");
          ("rgs", Json.Int rgs);
          ("seconds", Json.Float seconds);
        ]
  | Budget_exceeded { family; seconds } ->
      Json.Obj
        [
          ("status", Json.String "budget_exceeded");
          ("family", Json.Int family);
          ( "budget",
            match budget with Some b -> Json.Int b | None -> Json.Null );
          ("seconds", Json.Float seconds);
        ]

let compare_engines ~smoke =
  Bench_common.subheading "RG engines: enumeration (bitset kernel) vs BDD minsol";
  let table =
    Indaas_util.Table.create
      ~aligns:Indaas_util.Table.[ Left; Right; Right; Left ]
      [ "case"; "enum"; "bdd"; "families" ]
  in
  let cases = engine_cases ~smoke in
  let rows =
    List.map
      (fun case ->
        (* Both engine runs happen under one observability scope, so
           the emitted baseline carries their span breakdown
           (rg.enum / rg.bdd, with node and family counts) next to
           the wall-clock numbers. *)
        let (enum_outcome, enum_rgs, bdd_outcome, bdd_rgs), spans =
          Bench_common.with_spans (fun () ->
              let enum_outcome, enum_rgs = run_enum case in
              let bdd_outcome, bdd_rgs = run_bdd case in
              (enum_outcome, enum_rgs, bdd_outcome, bdd_rgs))
        in
        let families_equal =
          match (enum_rgs, bdd_rgs) with
          | Some a, Some b -> Some (a = b)
          | _ -> None
        in
        let verdict =
          match families_equal with
          | Some true -> "identical"
          | Some false -> "DIVERGED"
          | None -> "bdd only"
        in
        Indaas_util.Table.add_row table
          [
            case.case_name;
            outcome_cell enum_outcome;
            outcome_cell bdd_outcome;
            verdict;
          ];
        (case, enum_outcome, bdd_outcome, families_equal, spans))
      cases
  in
  Indaas_util.Table.print table;
  (match
     List.find_opt
       (fun (_, enum_outcome, bdd_outcome, _, _) ->
         match (enum_outcome, bdd_outcome) with
         | Budget_exceeded _, Completed _ -> true
         | _ -> false)
       rows
   with
  | Some (case, _, _, _, _) ->
      Bench_common.note
        "BDD engine completed %S where enumeration exceeded its budget"
        case.case_name
  | None -> Bench_common.note "no case tripped the enumeration budget");
  List.iter
    (fun (case, _, _, families_equal, _) ->
      if families_equal = Some false then
        failwith
          (Printf.sprintf "bench_kernels: engines diverged on %S" case.case_name))
    rows;
  rows

(* --- fat-tree tier: the deployments audits see --------------------------- *)

type fattree_case = {
  ft_name : string;
  spec : Builder.spec;
  ft_graph : Graph.t;
}

(* The records an audit of [servers] reads from a fat-tree DepDB
   collected the way the serving benchmark's corpus is: fat-tree
   routes, lshw standard profiles plus one PDU per pair of racks, and
   one small software record per server. Only the deployment's own
   servers get records — the footprint a cache-missing audit builds
   from. *)
let fattree_footprint tree servers =
  let name = Fattree.server_name tree in
  let pdu i =
    Collectors.shared_hardware ~machines:[ name i ] ~hw_type:"PDU"
      ~dep:(Printf.sprintf "PDU-%d" (Fattree.rack_of_server tree i / 2))
  in
  let software i =
    let pod = Fattree.pod_of_server tree i in
    Dependency.software ~pgm:"riak" ~host:(name i)
      ~deps:
        [
          Printf.sprintf "libc6-build%d" (pod mod 2);
          Printf.sprintf "openssl-pod%d" pod;
          name i ^ "-riak-conf";
        ]
  in
  Collectors.run
    ((Collectors.static ~name:"nsdminer"
        (List.concat_map (fun i -> Fattree.network_records tree ~server:i) servers)
     :: Collectors.lshw
          (List.map (fun i -> Collectors.standard_profile (name i)) servers)
     :: List.map pdu servers)
    @ [ Collectors.static ~name:"apt" (List.map software servers) ])

(* [n] distinct servers drawn with a seed fixed by the case's shape, so
   each case is the same deployment whatever else the tier runs. *)
let fattree_case ~k ~n ~required =
  let tree = Fattree.create ~k in
  let rng = Prng.of_int ((1000 * k) + (10 * n) + required) in
  let servers =
    Array.to_list
      (Prng.sample_without_replacement rng n
         (Array.init (Fattree.server_count tree) Fun.id))
  in
  let spec =
    Builder.spec ~required (List.map (Fattree.server_name tree) servers)
  in
  {
    ft_name = Printf.sprintf "k=%d %d-of-%d" k required n;
    spec;
    ft_graph = Builder.build (fattree_footprint tree servers) spec;
  }

let fattree_cases ~smoke =
  let k = if smoke then 4 else 8 in
  let shapes = [ (2, 1); (3, 2); (3, 1); (4, 2) ] in
  List.map (fun (n, required) -> fattree_case ~k ~n ~required) shapes
  @ if smoke then [] else [ fattree_case ~k:16 ~n:2 ~required:1 ]

(* One engine on one graph over [reps] timed calls: the fastest of the
   first five, the median and interquartile range of all, and the words
   each call allocated in the minor heap and put into the major heap
   (promoted plus allocated there directly). Best-of-5 alone hides GC
   cost: an engine can win it and still lose a whole audit once its
   allocations are paid for. The minor figure is the [Gc.minor_words]
   delta over all calls; the major one the [Gc.quick_stat] major-words
   delta, after a minor collection at each end so promotions are
   counted. Both compare only within one run: the major figure moves
   with the GC pacing and live data earlier cases leave behind. *)
type engine_timing = {
  best5 : float;
  median : float;
  iqr : float;
  minor_words : float;
  major_words : float;
}

let reps = 11

let time_engine f =
  let times = Array.make reps 0. in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  let minor_before = Gc.minor_words () in
  let result = ref None in
  for i = 0 to reps - 1 do
    let r, s = Timing.time f in
    result := Some r;
    times.(i) <- s
  done;
  let minor = Gc.minor_words () -. minor_before in
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  let pct = Indaas_util.Stats.percentile times in
  ( Option.get !result,
    {
      best5 = Array.fold_left Float.min infinity (Array.sub times 0 5);
      median = Indaas_util.Stats.median times;
      iqr = pct 75. -. pct 25.;
      minor_words = minor /. float_of_int reps;
      major_words = words /. float_of_int reps;
    } )

(* Which engine(s) [auto] ran, read off the spans it records: "enum",
   "bdd", or "enum+bdd" after a budget fallback. *)
let auto_engines graph =
  let _, spans =
    Bench_common.with_spans (fun () -> Audit.risk_groups Audit.auto_rg graph)
  in
  List.filter_map
    (fun span ->
      match span.Indaas_obs.Span.name with
      | "rg.enum" -> Some "enum"
      | "rg.bdd" -> Some "bdd"
      | _ -> None)
    spans
  |> String.concat "+"

let words_note =
  "words are per call and compare only within one run: GC pacing and \
   the live data of earlier cases move them between runs"

type fattree_row = {
  case : fattree_case;
  threshold : int;
  rgs : int;
  enum : engine_timing;
  bdd : engine_timing;
  auto : string;
}

let compare_fattree ~smoke =
  Bench_common.subheading
    "RG engines on fat-tree deployments (network + lshw + PDU + apt)";
  let table =
    Indaas_util.Table.create
      ~aligns:
        Indaas_util.Table.
          [
            Left; Right; Right; Right; Right; Right; Right; Right; Right;
            Right; Right; Left;
          ]
      [
        "case"; "threshold"; "RGs"; "enum best5"; "enum p50 (IQR)";
        "enum minor w"; "enum major w"; "bdd best5"; "bdd p50 (IQR)";
        "bdd minor w"; "bdd major w"; "auto";
      ]
  in
  let cells t =
    [
      Bench_common.seconds t.best5;
      Printf.sprintf "%s (%s)" (Bench_common.seconds t.median)
        (Bench_common.seconds t.iqr);
      Printf.sprintf "%.0f" t.minor_words;
      Printf.sprintf "%.0f" t.major_words;
    ]
  in
  let rows =
    List.map
      (fun case ->
        let graph = case.ft_graph in
        let enum_rgs, enum =
          time_engine (fun () -> Cutset.minimal_risk_groups graph)
        in
        let bdd_rgs, bdd =
          time_engine (fun () -> Bdd.minimal_risk_groups graph)
        in
        if enum_rgs <> bdd_rgs then
          failwith
            (Printf.sprintf "bench_kernels: engines diverged on %S" case.ft_name);
        let row =
          {
            case;
            threshold = Builder.expected_rg_size case.spec;
            rgs = List.length enum_rgs;
            enum;
            bdd;
            auto = auto_engines graph;
          }
        in
        Indaas_util.Table.add_row table
          ((case.ft_name :: string_of_int row.threshold
           :: string_of_int row.rgs :: cells enum)
          @ cells bdd @ [ row.auto ]);
        row)
      (fattree_cases ~smoke)
  in
  Indaas_util.Table.print table;
  Bench_common.note "%s" words_note;
  List.iter
    (fun row ->
      let faster = if row.bdd.best5 < row.enum.best5 then "bdd" else "enum" in
      if row.auto <> faster then
        Bench_common.note "%s: auto ran %s, %s was faster" row.case.ft_name
          row.auto faster)
    rows;
  rows

let fattree_json row =
  Json.Obj
    [
      ("name", Json.String row.case.ft_name);
      ( "servers",
        Json.List
          (List.map (fun s -> Json.String s) row.case.spec.Builder.servers) );
      ("required", Json.Int row.case.spec.Builder.required);
      ("threshold", Json.Int row.threshold);
      ("basics", Json.Int (Array.length (Graph.basic_ids row.case.ft_graph)));
      ("rgs", Json.Int row.rgs);
      ("enum_seconds", Json.Float row.enum.best5);
      ("bdd_seconds", Json.Float row.bdd.best5);
      ("enum_median_seconds", Json.Float row.enum.median);
      ("enum_iqr_seconds", Json.Float row.enum.iqr);
      ("enum_minor_words", Json.Float row.enum.minor_words);
      ("enum_major_words", Json.Float row.enum.major_words);
      ("bdd_median_seconds", Json.Float row.bdd.median);
      ("bdd_iqr_seconds", Json.Float row.bdd.iqr);
      ("bdd_minor_words", Json.Float row.bdd.minor_words);
      ("bdd_major_words", Json.Float row.bdd.major_words);
      ("auto", Json.String row.auto);
    ]

let baseline_file = "BENCH_kernels.json"

let emit_json ~smoke rows fattree_rows =
  let mode_name =
    if smoke then "smoke"
    else
      match !Bench_common.mode with
      | Bench_common.Quick -> "quick"
      | Bench_common.Standard -> "standard"
      | Bench_common.Full -> "full"
  in
  let json =
    Json.Obj
      [
        ("benchmark", Json.String "kernels");
        ("mode", Json.String mode_name);
        ( "cases",
          Json.List
            (List.map
               (fun (case, enum_outcome, bdd_outcome, families_equal, spans) ->
                 Json.Obj
                   [
                     ("name", Json.String case.case_name);
                     ("nodes", Json.Int (Graph.node_count case.graph));
                     ( "basics",
                       Json.Int (Array.length (Graph.basic_ids case.graph)) );
                     ( "budget",
                       match case.budget with
                       | Some b -> Json.Int b
                       | None -> Json.Null );
                     ("enum", outcome_json case.budget enum_outcome);
                     ("bdd", outcome_json None bdd_outcome);
                     ( "families_equal",
                       match families_equal with
                       | Some b -> Json.Bool b
                       | None -> Json.Null );
                     ( "spans",
                       Json.List (List.map Indaas_obs.Span.to_json spans) );
                   ])
               rows) );
        ("fattree_words", Json.String words_note);
        ("fattree", Json.List (List.map fattree_json fattree_rows));
      ]
  in
  Bench_common.write_json ~path:baseline_file json

(* The smoke run's allocation guard: on every (k=4) fat-tree case the
   BDD engine must allocate no more words per call than enumeration
   does, in the minor heap and in the major one. Per-call manager
   tables that outgrow the minor heap show up in the major column;
   per-lookup allocations (a closure per table probe) only in the
   minor one. *)
let check_bdd_words fattree_rows =
  List.iter
    (fun row ->
      let over heap bdd enum =
        if bdd > enum then
          failwith
            (Printf.sprintf
               "bench_kernels: %s: BDD allocated %.0f %s words per call, \
                enumeration %.0f"
               row.case.ft_name bdd heap enum)
      in
      over "minor" row.bdd.minor_words row.enum.minor_words;
      over "major" row.bdd.major_words row.enum.major_words)
    fattree_rows

let run_smoke () =
  Bench_common.heading "Kernel smoke: RG engine comparison";
  let rows = compare_engines ~smoke:true in
  let fattree_rows = compare_fattree ~smoke:true in
  emit_json ~smoke:true rows fattree_rows;
  check_bdd_words fattree_rows

let run () =
  Bench_common.heading "Kernel micro-benchmarks (bechamel)";
  let rows = compare_engines ~smoke:false in
  emit_json ~smoke:false rows (compare_fattree ~smoke:false);
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.8) () in
  let analysis =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let result = Analyze.all analysis Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> Bench_common.seconds (est *. 1e-9)
            | Some _ | None -> "n/a"
          in
          Printf.printf "   %-45s %s/op\n" name estimate)
        result)
    tests
