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
