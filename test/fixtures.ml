(* Inputs shared by several test executables. *)

module Dependency = Indaas_depdata.Dependency

(* cwd is test/ under `dune runtest` but the project root under
   `dune exec test/test_sia.exe` *)
let example_path name =
  let candidates =
    [ Filename.concat "../examples/db" name; Filename.concat "examples/db" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail ("cannot locate examples/db/" ^ name)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Random dependency databases over a small machine universe — many of
   them malformed on purpose. *)
let gen_db =
  QCheck.make
    ~print:(fun records -> Dependency.to_xml_many records)
    QCheck.Gen.(
      let machine = map (Printf.sprintf "m%d") (int_bound 3) in
      let device = map (Printf.sprintf "d%d") (int_bound 4) in
      let package = map (Printf.sprintf "p%d") (int_bound 3) in
      let record =
        oneof
          [
            map2
              (fun src route -> Dependency.network ~src ~dst:"I" ~route)
              machine
              (list_size (int_bound 3) device);
            map2
              (fun hw dep -> Dependency.hardware ~hw ~hw_type:"Disk" ~dep)
              machine device;
            map2
              (fun (pgm, host) deps -> Dependency.software ~pgm ~host ~deps)
              (pair package machine)
              (list_size (int_bound 2) package);
          ]
      in
      list_size (int_range 1 10) record)

(* Random weighted fault sets (Figure 4(b) shape): one to three
   sources over six components, one probability per component name. *)
let random_fault_sets rng =
  let module Prng = Indaas_util.Prng in
  let sources =
    List.init
      (1 + Prng.int rng 3)
      (fun i ->
        ( Printf.sprintf "E%d" i,
          List.init
            (1 + Prng.int rng 4)
            (fun j -> (Printf.sprintf "c%d" (Prng.int rng 6), 0.1 +. (0.1 *. float_of_int j))) ))
  in
  (* dedup per-source components to avoid prob conflicts *)
  let sources =
    List.map
      (fun (s, cs) ->
        let seen = Hashtbl.create 8 in
        ( s,
          List.filter
            (fun (c, _) ->
              if Hashtbl.mem seen c then false
              else begin
                Hashtbl.add seen c ();
                true
              end)
            cs ))
      sources
  in
  (* assign a single consistent probability per name *)
  let prob_of_name = Hashtbl.create 8 in
  List.map
    (fun (s, cs) ->
      ( s,
        List.map
          (fun (c, p) ->
            match Hashtbl.find_opt prob_of_name c with
            | Some p0 -> (c, p0)
            | None ->
                Hashtbl.add prob_of_name c p;
                (c, p))
          cs ))
    sources
