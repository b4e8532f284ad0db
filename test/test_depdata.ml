module Dependency = Indaas_depdata.Dependency
module Depdb = Indaas_depdata.Depdb
module Catalog = Indaas_depdata.Catalog
module Collectors = Indaas_depdata.Collectors

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let dep = Alcotest.testable Dependency.pp Dependency.equal

(* --- Dependency records and the Table 1 wire format ------------------ *)

let test_to_xml_table1 () =
  (* Byte-for-byte the examples of the paper's Table 1 / Figure 3. *)
  check Alcotest.string "network"
    {|<src="S1" dst="Internet" route="ToR1,Core1"/>|}
    (Dependency.to_xml
       (Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ]));
  check Alcotest.string "hardware"
    {|<hw="S1" type="CPU" dep="S1-Intel(R)X5550@2.6GHz"/>|}
    (Dependency.to_xml
       (Dependency.hardware ~hw:"S1" ~hw_type:"CPU" ~dep:"S1-Intel(R)X5550@2.6GHz"));
  check Alcotest.string "software"
    {|<pgm="Riak1" hw="S1" dep="libc6,libsvn1"/>|}
    (Dependency.to_xml
       (Dependency.software ~pgm:"Riak1" ~host:"S1" ~deps:[ "libc6"; "libsvn1" ]))

let test_of_xml_roundtrip () =
  let records =
    [
      Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
      Dependency.hardware ~hw:"S2" ~hw_type:"Disk" ~dep:"S2-SED900";
      Dependency.software ~pgm:"QueryEngine2" ~host:"S2" ~deps:[ "libc6"; "libgccl" ];
    ]
  in
  List.iter
    (fun r -> check dep "roundtrip" r (Dependency.of_xml (Dependency.to_xml r)))
    records

let test_of_xml_plain_tag () =
  (* Figure 3 uses '>' (no slash) for software records. *)
  check dep "no self-close"
    (Dependency.software ~pgm:"Riak1" ~host:"S1" ~deps:[ "libc6"; "libsvn1" ])
    (Dependency.of_xml {|<pgm="Riak1" hw="S1" dep="libc6,libsvn1">|})

let test_of_xml_whitespace_tolerant () =
  check dep "extra spaces"
    (Dependency.hardware ~hw:"H" ~hw_type:"T" ~dep:"x")
    (Dependency.of_xml {|<hw="H"   type="T"  dep="x" />|})

let test_of_xml_errors () =
  let fails s =
    check Alcotest.bool s true
      (try
         ignore (Dependency.of_xml s);
         false
       with Failure _ -> true)
  in
  fails "not a tag";
  fails "<src=\"A\" dst=\"B\"/>";
  (* missing route *)
  fails "<unknown=\"A\"/>";
  fails "<src=\"unterminated>";
  fails "<>"

let test_of_xml_many () =
  (* A Figure 3-style document with separators and prose. *)
  let doc =
    {|Network dependencies of S1 and S2:
<src="S1" dst="Internet" route="ToR1,Core1"/>
<src="S2" dst="Internet" route="ToR1,Core2"/>
------------------------------------
<hw="S1" type="CPU" dep="S1-X5550"/>
<pgm="Riak1" hw="S1" dep="libc6,libsvn1">|}
  in
  let records = Dependency.of_xml_many doc in
  check Alcotest.int "four records" 4 (List.length records)

let test_empty_route () =
  let r = Dependency.network ~src:"A" ~dst:"B" ~route:[] in
  check dep "empty route roundtrips" r (Dependency.of_xml (Dependency.to_xml r))

let test_subject_components () =
  check Alcotest.string "network subject" "S1"
    (Dependency.subject
       (Dependency.network ~src:"S1" ~dst:"D" ~route:[ "a" ]));
  check
    (Alcotest.list Alcotest.string)
    "software components" [ "p1"; "p2" ]
    (Dependency.components
       (Dependency.software ~pgm:"P" ~host:"H" ~deps:[ "p1"; "p2" ]));
  check
    (Alcotest.list Alcotest.string)
    "hardware components" [ "model" ]
    (Dependency.components (Dependency.hardware ~hw:"H" ~hw_type:"T" ~dep:"model"))

let test_quote_rejected () =
  let rejected name r =
    Alcotest.check_raises name
      (Invalid_argument "Dependency: attribute value contains a quote")
      (fun () -> ignore (Dependency.to_xml r))
  in
  rejected "embedded quote"
    (Dependency.hardware ~hw:"a\"b" ~hw_type:"T" ~dep:"d");
  rejected "in a route device"
    (Dependency.network ~src:"S" ~dst:"I" ~route:[ "t"; "c\"" ]);
  rejected "in a package" (Dependency.software ~pgm:"p" ~host:"h" ~deps:[ "\"" ])

(* --- DepDB ------------------------------------------------------------ *)

let sample_db () =
  let db = Depdb.create () in
  Depdb.add_all db
    [
      Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
      Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
      Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
      Dependency.hardware ~hw:"S1" ~hw_type:"CPU" ~dep:"S1-cpu";
      Dependency.hardware ~hw:"S1" ~hw_type:"Disk" ~dep:"S1-disk";
      Dependency.software ~pgm:"Riak1" ~host:"S1" ~deps:[ "libc6"; "libsvn1" ];
      Dependency.software ~pgm:"Riak2" ~host:"S2" ~deps:[ "libc6" ];
    ];
  db

let test_depdb_queries () =
  let db = sample_db () in
  check Alcotest.int "size" 7 (Depdb.size db);
  check Alcotest.int "paths S1" 2 (List.length (Depdb.network_paths db ~src:"S1"));
  check Alcotest.int "paths S2" 1 (List.length (Depdb.network_paths db ~src:"S2"));
  check Alcotest.int "hw S1" 2 (List.length (Depdb.hardware_of db ~machine:"S1"));
  check Alcotest.int "hw S2" 0 (List.length (Depdb.hardware_of db ~machine:"S2"));
  check Alcotest.int "sw S1" 1 (List.length (Depdb.software_on db ~machine:"S1"));
  check Alcotest.int "by pgm" 1 (List.length (Depdb.software_named db ~pgm:"Riak2"))

let test_depdb_idempotent_add () =
  let db = sample_db () in
  let before = Depdb.size db in
  Depdb.add db (Dependency.hardware ~hw:"S1" ~hw_type:"CPU" ~dep:"S1-cpu");
  check Alcotest.int "no duplicate" before (Depdb.size db)

let test_depdb_machines () =
  check (Alcotest.list Alcotest.string) "machines" [ "S1"; "S2" ]
    (Depdb.machines (sample_db ()))

let test_depdb_component_set () =
  check (Alcotest.list Alcotest.string) "S1 components"
    [ "Core1"; "Core2"; "S1-cpu"; "S1-disk"; "ToR1"; "libc6"; "libsvn1" ]
    (Depdb.component_set (sample_db ()) ~machine:"S1")

let test_depdb_serialization_roundtrip () =
  let db = sample_db () in
  let db2 = Depdb.of_string (Depdb.to_string db) in
  check (Alcotest.list dep) "same records" (Depdb.records db) (Depdb.records db2)

let test_depdb_merge () =
  let a = Depdb.create () in
  Depdb.add a (Dependency.hardware ~hw:"X" ~hw_type:"T" ~dep:"d1");
  let b = Depdb.create () in
  Depdb.add b (Dependency.hardware ~hw:"X" ~hw_type:"T" ~dep:"d1");
  Depdb.add b (Dependency.hardware ~hw:"Y" ~hw_type:"T" ~dep:"d2");
  check Alcotest.int "dedup on merge" 2 (Depdb.size (Depdb.merge a b))

let test_depdb_preserves_order () =
  let db = sample_db () in
  let paths = Depdb.network_paths db ~src:"S1" in
  check
    (Alcotest.list (Alcotest.list Alcotest.string))
    "insertion order"
    [ [ "ToR1"; "Core1" ]; [ "ToR1"; "Core2" ] ]
    (List.map (fun (n : Dependency.network) -> n.Dependency.route) paths)

(* --- Catalog ----------------------------------------------------------- *)

let test_catalog_sizes () =
  (* Region structure solved for Table 2 (see catalog.ml). *)
  check Alcotest.int "Riak" 53 (List.length (Catalog.packages Catalog.Riak));
  check Alcotest.int "MongoDB" 70 (List.length (Catalog.packages Catalog.MongoDB));
  check Alcotest.int "Redis" 53 (List.length (Catalog.packages Catalog.Redis));
  check Alcotest.int "CouchDB" 53 (List.length (Catalog.packages Catalog.CouchDB))

let test_catalog_base_shared () =
  List.iter
    (fun app ->
      let pkgs = Catalog.packages app in
      List.iter
        (fun base ->
          check Alcotest.bool
            (Catalog.application_name app ^ " has " ^ base)
            true (List.mem base pkgs))
        Catalog.base_system_packages)
    Catalog.all_applications

let test_catalog_no_duplicates () =
  List.iter
    (fun app ->
      let pkgs = Catalog.packages app in
      check Alcotest.int
        (Catalog.application_name app ^ " duplicate-free")
        (List.length pkgs)
        (List.length (List.sort_uniq compare pkgs)))
    Catalog.all_applications

let test_catalog_software_dependency () =
  match Catalog.software_dependency Catalog.Redis ~host:"S9" with
  | Dependency.Software s ->
      check Alcotest.string "pgm" "Redis" s.Dependency.pgm;
      check Alcotest.string "host" "S9" s.Dependency.host;
      check Alcotest.int "deps" 53 (List.length s.Dependency.deps)
  | _ -> Alcotest.fail "expected software record"

let test_synthetic_sets () =
  let g = Indaas_util.Prng.of_int 77 in
  let sets = Catalog.synthetic_sets g ~providers:3 ~elements:100 ~shared_fraction:0.2 in
  check Alcotest.int "providers" 3 (Array.length sets);
  Array.iter (fun s -> check Alcotest.int "elements" 100 (List.length s)) sets;
  (* exactly the shared pool is common *)
  let module SS = Set.Make (String) in
  let inter =
    Array.fold_left
      (fun acc s -> SS.inter acc (SS.of_list s))
      (SS.of_list sets.(0))
      sets
  in
  check Alcotest.int "shared pool" 20 (SS.cardinal inter)

let test_synthetic_sets_validation () =
  let g = Indaas_util.Prng.of_int 77 in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Catalog.synthetic_sets: shared_fraction out of [0,1]")
    (fun () ->
      ignore (Catalog.synthetic_sets g ~providers:2 ~elements:10 ~shared_fraction:1.5))

(* --- Collectors --------------------------------------------------------- *)

let test_nsdminer () =
  let m = Collectors.nsdminer ~routes:[ ("S1", "Internet", [ "a"; "b" ]) ] in
  check Alcotest.string "name" "nsdminer" m.Collectors.name;
  match m.Collectors.collect () with
  | [ Dependency.Network n ] ->
      check Alcotest.string "src" "S1" n.Dependency.src;
      check (Alcotest.list Alcotest.string) "route" [ "a"; "b" ] n.Dependency.route
  | _ -> Alcotest.fail "expected one network record"

let test_lshw () =
  let m = Collectors.lshw [ Collectors.standard_profile "S1" ] in
  let records = m.Collectors.collect () in
  check Alcotest.int "four components" 4 (List.length records);
  List.iter
    (fun r ->
      check Alcotest.bool "machine-prefixed" true
        (String.length (List.hd (Dependency.components r)) > 3
        && String.sub (List.hd (Dependency.components r)) 0 3 = "S1-"))
    records

let test_lshw_figure3_identifier () =
  let m = Collectors.lshw [ Collectors.standard_profile "S1" ] in
  let cpus =
    List.filter
      (function Dependency.Hardware h -> h.Dependency.hw_type = "CPU" | _ -> false)
      (m.Collectors.collect ())
  in
  match cpus with
  | [ Dependency.Hardware h ] ->
      check Alcotest.string "figure 3 identifier" "S1-Intel(R)X5550@2.6GHz"
        h.Dependency.dep
  | _ -> Alcotest.fail "expected one CPU"

let test_shared_hardware () =
  let m =
    Collectors.shared_hardware ~machines:[ "S1"; "S2" ] ~hw_type:"PDU" ~dep:"rack-pdu-7"
  in
  let records = m.Collectors.collect () in
  check Alcotest.int "one per machine" 2 (List.length records);
  let deps = List.concat_map Dependency.components records in
  check (Alcotest.list Alcotest.string) "same identifier"
    [ "rack-pdu-7"; "rack-pdu-7" ] deps

let test_apt_rdepends () =
  let m = Collectors.apt_rdepends [ (Catalog.Riak, "S1"); (Catalog.Redis, "S2") ] in
  check Alcotest.int "two records" 2 (List.length (m.Collectors.collect ()))

let test_run_merges () =
  let db =
    Collectors.run
      [
        Collectors.nsdminer ~routes:[ ("S1", "I", [ "x" ]) ];
        Collectors.lshw [ Collectors.standard_profile "S1" ];
        Collectors.static ~name:"extra"
          [ Dependency.hardware ~hw:"S1" ~hw_type:"GPU" ~dep:"S1-gpu" ];
      ]
  in
  check Alcotest.int "all records" 6 (Depdb.size db)


(* --- Flow mining (NSDMiner model) --------------------------------------- *)

module Flowmine = Indaas_depdata.Flowmine

let obs flow src device hop = { Flowmine.flow; src; dst = "Internet"; device; hop }

let test_flowmine_reconstruct () =
  let observations =
    [
      obs 1 "S1" "tor0" 0; obs 1 "S1" "agg0" 1; obs 1 "S1" "core0" 2;
      (* out-of-order delivery of flow 2's observations *)
      obs 2 "S1" "core0" 2; obs 2 "S1" "tor0" 0; obs 2 "S1" "agg0" 1;
      obs 3 "S1" "tor0" 0; obs 3 "S1" "agg1" 1; obs 3 "S1" "core2" 2;
    ]
  in
  let routes = Flowmine.reconstruct observations in
  check Alcotest.int "two distinct routes" 2 (List.length routes);
  let first = List.hd routes in
  check Alcotest.int "majority route count" 2 first.Flowmine.occurrences;
  check (Alcotest.list Alcotest.string) "hop order" [ "tor0"; "agg0"; "core0" ]
    first.Flowmine.devices

let test_flowmine_discards_corrupt () =
  let observations =
    [
      (* two devices claim hop 1: corrupt *)
      obs 1 "S1" "tor0" 0; obs 1 "S1" "agg0" 1; obs 1 "S1" "agg1" 1;
      obs 2 "S1" "tor0" 0; obs 2 "S1" "agg0" 1;
    ]
  in
  let routes = Flowmine.reconstruct observations in
  check Alcotest.int "only the clean flow" 1 (List.length routes);
  check Alcotest.int "count" 1 (List.hd routes).Flowmine.occurrences

let test_flowmine_threshold () =
  let observations =
    [
      obs 1 "S1" "tor0" 0; obs 2 "S1" "tor0" 0; obs 3 "S1" "tor9" 0;
      (* route via tor9 seen once: noise *)
    ]
  in
  let records = Flowmine.mine ~min_occurrences:2 observations in
  check Alcotest.int "noise filtered" 1 (List.length records);
  match records with
  | [ Dependency.Network n ] ->
      check (Alcotest.list Alcotest.string) "route" [ "tor0" ] n.Dependency.route
  | _ -> Alcotest.fail "network record expected"

let test_flowmine_collector () =
  let c = Flowmine.collector ~min_occurrences:1 [ obs 1 "S1" "tor0" 0 ] in
  check Alcotest.string "name" "nsdminer-flows" c.Collectors.name;
  check Alcotest.int "records" 1 (List.length (c.Collectors.collect ()))

(* --- qcheck ------------------------------------------------------------- *)

let ident_gen =
  QCheck.Gen.(
    map (fun s -> "id" ^ String.concat "" (List.map string_of_int s))
      (list_size (int_range 0 6) (int_range 0 9)))

let gen_record =
  QCheck.make
    ~print:Dependency.to_xml
    QCheck.Gen.(
      oneof
        [
          map3
            (fun src dst route -> Dependency.network ~src ~dst ~route)
            ident_gen ident_gen
            (list_size (int_range 0 5) ident_gen);
          map3
            (fun hw hw_type dep -> Dependency.hardware ~hw ~hw_type ~dep)
            ident_gen ident_gen ident_gen;
          map3
            (fun pgm host deps -> Dependency.software ~pgm ~host ~deps)
            ident_gen ident_gen
            (list_size (int_range 0 5) ident_gen);
        ])

let prop_xml_roundtrip =
  QCheck.Test.make ~name:"wire format roundtrip" ~count:500 gen_record (fun r ->
      Dependency.equal r (Dependency.of_xml (Dependency.to_xml r)))

let prop_many_roundtrip =
  QCheck.Test.make ~name:"document roundtrip" ~count:200
    (QCheck.list_of_size (QCheck.Gen.int_range 0 10) gen_record) (fun rs ->
      Dependency.of_xml_many (Dependency.to_xml_many rs) = rs)

(* Records over a tiny alphabet, so fields often tie and the order has
   to look past them: shared prefixes, the empty string, and empty
   routes and package lists. *)
let gen_small_record =
  QCheck.Gen.(
    let word = oneofl [ ""; "a"; "ab"; "abc"; "b"; "ba" ] in
    let words = list_size (int_range 0 3) word in
    oneof
      [
        map3 (fun src dst route -> Dependency.network ~src ~dst ~route)
          word word words;
        map3 (fun hw hw_type dep -> Dependency.hardware ~hw ~hw_type ~dep)
          word word word;
        map3 (fun pgm host deps -> Dependency.software ~pgm ~host ~deps)
          word word words;
      ])

let print_records rs = String.concat " " (List.map Dependency.to_xml rs)

let prop_compare_is_stdlib_order =
  QCheck.Test.make ~name:"Dependency.compare has Stdlib.compare's sign"
    ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> print_records [ a; b ])
       QCheck.Gen.(pair gen_small_record gen_small_record))
    (fun (a, b) ->
      let sign x = Int.compare x 0 in
      sign (Dependency.compare a b) = sign (Stdlib.compare a b)
      && Dependency.compare a a = 0)

(* The canonical digest as first defined: Printf wire lines of the
   Stdlib-sorted distinct records, joined by newlines. *)
let printf_line = function
  | Dependency.Network { src; dst; route } ->
      Printf.sprintf "<src=\"%s\" dst=\"%s\" route=\"%s\"/>" src dst
        (String.concat "," route)
  | Dependency.Hardware { hw; hw_type; dep } ->
      Printf.sprintf "<hw=\"%s\" type=\"%s\" dep=\"%s\"/>" hw hw_type dep
  | Dependency.Software { pgm; host; deps } ->
      Printf.sprintf "<pgm=\"%s\" hw=\"%s\" dep=\"%s\"/>" pgm host
        (String.concat "," deps)

let prop_digest_matches_definition =
  QCheck.Test.make ~name:"Depdb.digest equals the Printf definition" ~count:500
    (QCheck.make ~print:print_records
       QCheck.Gen.(list_size (int_range 0 20) gen_small_record))
    (fun records ->
      let distinct = List.sort_uniq Stdlib.compare records in
      let expected =
        Indaas_crypto.Digest.sha256_hex
          (String.concat "\n" (List.map printf_line distinct))
      in
      let db = Depdb.create () in
      Depdb.add_all db records;
      Depdb.digest db = expected
      && Depdb.canonical_digest records = (expected, List.length distinct))


(* --- Failure statistics (§5.1) -------------------------------------- *)

module Failure_stats = Indaas_depdata.Failure_stats

let sample_events =
  [
    { Failure_stats.component = "tor1"; component_type = "ToR"; day = 3 };
    { Failure_stats.component = "tor1"; component_type = "ToR"; day = 9 };
    { Failure_stats.component = "tor4"; component_type = "ToR"; day = 30 };
    { Failure_stats.component = "core2"; component_type = "Core"; day = 100 };
  ]

let test_estimate_by_type () =
  let estimates =
    Failure_stats.estimate_by_type ~window_days:365
      ~population:[ ("ToR", 20); ("Core", 4); ("Agg", 8) ]
      sample_events
  in
  let find t = List.find (fun e -> e.Failure_stats.etype = t) estimates in
  (* tor1 failed twice but counts once *)
  check Alcotest.int "ToR distinct failures" 2 (find "ToR").Failure_stats.failed;
  check (Alcotest.float 1e-9) "ToR probability" 0.1 (find "ToR").Failure_stats.probability;
  check (Alcotest.float 1e-9) "Core probability" 0.25 (find "Core").Failure_stats.probability;
  check (Alcotest.float 1e-9) "Agg no failures" 0. (find "Agg").Failure_stats.probability

let test_estimate_validation () =
  check Alcotest.bool "unknown type" true
    (try
       ignore
         (Failure_stats.estimate_by_type ~window_days:10 ~population:[ ("A", 1) ]
            [ { Failure_stats.component = "x"; component_type = "B"; day = 0 } ]);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "event outside window" true
    (try
       ignore
         (Failure_stats.estimate_by_type ~window_days:10 ~population:[ ("A", 1) ]
            [ { Failure_stats.component = "x"; component_type = "A"; day = 10 } ]);
       false
     with Invalid_argument _ -> true);
  check Alcotest.bool "bad window" true
    (try
       ignore (Failure_stats.estimate_by_type ~window_days:0 ~population:[] []);
       false
     with Invalid_argument _ -> true)

let test_probability_of () =
  let estimates =
    Failure_stats.estimate_by_type ~window_days:365 ~population:[ ("ToR", 10) ]
      []
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "found" (Some 0.)
    (Failure_stats.probability_of estimates ~component_type:"ToR");
  check (Alcotest.option (Alcotest.float 1e-9)) "missing" None
    (Failure_stats.probability_of estimates ~component_type:"GPU")

let test_cvss_mapping () =
  check (Alcotest.float 1e-9) "max score" 0.1 (Failure_stats.probability_of_cvss 10.);
  check (Alcotest.float 1e-9) "zero" 0. (Failure_stats.probability_of_cvss 0.);
  check (Alcotest.float 1e-9) "custom rate" 0.5
    (Failure_stats.probability_of_cvss ~exploit_rate:1.0 5.);
  check Alcotest.bool "out of range" true
    (try
       ignore (Failure_stats.probability_of_cvss 11.);
       false
     with Invalid_argument _ -> true)

let test_cvss_table () =
  let lookup = Failure_stats.cvss_table [ ("openssl-1.0.1", 9.8); ("zlib", 2.0) ] in
  (match lookup "openssl-1.0.1" with
  | Some p -> check (Alcotest.float 1e-9) "heartbleed-grade" 0.098 p
  | None -> Alcotest.fail "expected entry");
  check Alcotest.bool "unlisted" true (lookup "libc6" = None)

let test_classify_by_prefix () =
  let classify =
    Failure_stats.classify_by_prefix [ ("tor", "ToR"); ("core", "Core") ]
  in
  check (Alcotest.option Alcotest.string) "tor12" (Some "ToR") (classify "tor12");
  check (Alcotest.option Alcotest.string) "core1" (Some "Core") (classify "core1");
  check (Alcotest.option Alcotest.string) "server3" None (classify "server3")

let test_lookup_composition () =
  let estimates =
    Failure_stats.estimate_by_type ~window_days:365 ~population:[ ("ToR", 10) ]
      [ { Failure_stats.component = "tor1"; component_type = "ToR"; day = 1 } ]
  in
  let probability =
    Failure_stats.lookup ~default:0.01
      ~device_types:(Failure_stats.classify_by_prefix [ ("tor", "ToR") ])
      ~device_estimates:estimates
      ~software:(Failure_stats.cvss_table [ ("openssl", 10.) ])
  in
  check (Alcotest.option (Alcotest.float 1e-9)) "software first" (Some 0.1)
    (probability "openssl");
  check (Alcotest.option (Alcotest.float 1e-9)) "device estimate" (Some 0.1)
    (probability "tor7");
  check (Alcotest.option (Alcotest.float 1e-9)) "default" (Some 0.01)
    (probability "mystery")

(* --- Depdb.digest ---------------------------------------------------- *)

let digest_records =
  [
    Dependency.network ~src:"S1" ~dst:"Internet" ~route:[ "ToR1"; "Core1" ];
    Dependency.hardware ~hw:"S1" ~hw_type:"Disk" ~dep:"S1-disk";
    Dependency.software ~pgm:"Riak1" ~host:"S1" ~deps:[ "libc6" ];
    Dependency.network ~src:"S2" ~dst:"Internet" ~route:[ "ToR1"; "Core2" ];
  ]

let test_digest_insertion_order_invariant () =
  let forward = Depdb.create () and backward = Depdb.create () in
  Depdb.add_all forward digest_records;
  Depdb.add_all backward (List.rev digest_records);
  check Alcotest.string "same digest" (Depdb.digest forward)
    (Depdb.digest backward);
  check Alcotest.int "hex sha-256" 64 (String.length (Depdb.digest forward))

let test_digest_tracks_content () =
  let db = Depdb.create () in
  Depdb.add_all db digest_records;
  let before = Depdb.digest db in
  (* Re-adding an existing record is a no-op, so the digest holds. *)
  Depdb.add db (List.hd digest_records);
  check Alcotest.string "idempotent add" before (Depdb.digest db);
  Depdb.add db (Dependency.hardware ~hw:"S2" ~hw_type:"Disk" ~dep:"S2-disk");
  check Alcotest.bool "new record, new digest" true (before <> Depdb.digest db);
  check Alcotest.bool "empty differs" true
    (Depdb.digest (Depdb.create ()) <> before)

let prop_digest_order_invariant =
  QCheck.Test.make ~name:"digest invariant under source insertion order"
    ~count:100
    QCheck.(pair small_int (int_range 1 20))
    (fun (seed, n) ->
      let g = Indaas_util.Prng.of_int seed in
      let records =
        List.init n (fun i ->
            Dependency.hardware
              ~hw:(Printf.sprintf "M%d" (i mod 5))
              ~hw_type:"Disk"
              ~dep:(Printf.sprintf "c%d" i))
      in
      let a = Depdb.create () and b = Depdb.create () in
      Depdb.add_all a records;
      Depdb.add_all b (Indaas_util.Prng.shuffle_list g records);
      Depdb.digest a = Depdb.digest b)

let () =
  Alcotest.run "depdata"
    [
      ( "dependency",
        [
          Alcotest.test_case "table 1 format" `Quick test_to_xml_table1;
          Alcotest.test_case "roundtrip" `Quick test_of_xml_roundtrip;
          Alcotest.test_case "plain tag" `Quick test_of_xml_plain_tag;
          Alcotest.test_case "whitespace tolerant" `Quick test_of_xml_whitespace_tolerant;
          Alcotest.test_case "parse errors" `Quick test_of_xml_errors;
          Alcotest.test_case "document parse" `Quick test_of_xml_many;
          Alcotest.test_case "empty route" `Quick test_empty_route;
          Alcotest.test_case "subject/components" `Quick test_subject_components;
          Alcotest.test_case "quote rejected" `Quick test_quote_rejected;
          qtest prop_xml_roundtrip;
          qtest prop_many_roundtrip;
          qtest prop_compare_is_stdlib_order;
          qtest prop_digest_matches_definition;
        ] );
      ( "depdb",
        [
          Alcotest.test_case "queries" `Quick test_depdb_queries;
          Alcotest.test_case "idempotent add" `Quick test_depdb_idempotent_add;
          Alcotest.test_case "machines" `Quick test_depdb_machines;
          Alcotest.test_case "component_set" `Quick test_depdb_component_set;
          Alcotest.test_case "serialization" `Quick test_depdb_serialization_roundtrip;
          Alcotest.test_case "merge" `Quick test_depdb_merge;
          Alcotest.test_case "order preserved" `Quick test_depdb_preserves_order;
          Alcotest.test_case "digest order-invariant" `Quick
            test_digest_insertion_order_invariant;
          Alcotest.test_case "digest tracks content" `Quick
            test_digest_tracks_content;
          qtest prop_digest_order_invariant;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "closure sizes" `Quick test_catalog_sizes;
          Alcotest.test_case "base shared by all" `Quick test_catalog_base_shared;
          Alcotest.test_case "duplicate-free" `Quick test_catalog_no_duplicates;
          Alcotest.test_case "software record" `Quick test_catalog_software_dependency;
          Alcotest.test_case "synthetic sets" `Quick test_synthetic_sets;
          Alcotest.test_case "synthetic validation" `Quick test_synthetic_sets_validation;
        ] );
      ( "flowmine",
        [
          Alcotest.test_case "reconstruct" `Quick test_flowmine_reconstruct;
          Alcotest.test_case "discards corrupt" `Quick test_flowmine_discards_corrupt;
          Alcotest.test_case "occurrence threshold" `Quick test_flowmine_threshold;
          Alcotest.test_case "collector" `Quick test_flowmine_collector;
        ] );
      ( "collectors",
        [
          Alcotest.test_case "nsdminer" `Quick test_nsdminer;
          Alcotest.test_case "lshw" `Quick test_lshw;
          Alcotest.test_case "figure 3 identifier" `Quick test_lshw_figure3_identifier;
          Alcotest.test_case "shared hardware" `Quick test_shared_hardware;
          Alcotest.test_case "apt_rdepends" `Quick test_apt_rdepends;
          Alcotest.test_case "run merges" `Quick test_run_merges;
        ] );
      ( "failure-stats",
        [
          Alcotest.test_case "estimate by type" `Quick test_estimate_by_type;
          Alcotest.test_case "estimate validation" `Quick test_estimate_validation;
          Alcotest.test_case "probability_of" `Quick test_probability_of;
          Alcotest.test_case "cvss mapping" `Quick test_cvss_mapping;
          Alcotest.test_case "cvss table" `Quick test_cvss_table;
          Alcotest.test_case "classify by prefix" `Quick test_classify_by_prefix;
          Alcotest.test_case "lookup composition" `Quick test_lookup_composition;
        ] );
    ]

