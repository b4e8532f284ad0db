(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§6).

     dune exec bench/main.exe                 # everything, standard scale
     dune exec bench/main.exe -- table2 fig7  # selected experiments
     dune exec bench/main.exe -- --quick      # smoke-run sizes
     dune exec bench/main.exe -- --full       # closer to paper scale

   INDAAS_BENCH_MODE=quick|standard|full overrides the scale too. *)

let experiments =
  [
    ("table2", "Table 2: PIA Jaccard ranking of 4 clouds", Bench_tables.table2);
    ("table3", "Table 3: generated fat-tree topologies", Bench_tables.table3);
    ("fig7", "Figure 7: minimal RG vs failure sampling", Bench_fig7.run);
    ("fig8", "Figure 8: P-SOP vs KS overheads", Bench_fig8.run);
    ("fig9", "Figure 9: SIA vs PIA overheads", Bench_fig9.run);
    ("case-network", "Case 6.2.1: network dependency", Bench_cases.network);
    ("case-hardware", "Case 6.2.2: hardware dependency", Bench_cases.hardware);
    ("case-software", "Case 6.2.3: software dependency", Bench_cases.software);
    ("kernels", "Bechamel kernel micro-benchmarks", Bench_kernels.run);
    ( "kernels-smoke",
      "Tiny RG-engine comparison (enum vs BDD) + BENCH_kernels.json",
      Bench_kernels.run_smoke );
    ("ablation", "Ablations of DESIGN.md choices", Bench_ablation.run);
    ("validation", "Validation: audits vs simulated availability", Bench_validation.run);
  ]

let usage () =
  print_endline "usage: main.exe [--quick|--standard|--full] [EXPERIMENT...]";
  print_endline "experiments:";
  List.iter (fun (name, doc, _) -> Printf.printf "  %-14s %s\n" name doc) experiments;
  exit 1

let () =
  (match Sys.getenv_opt "INDAAS_BENCH_MODE" with
  | Some m -> (
      match Bench_common.mode_of_string m with
      | Some mode -> Bench_common.mode := mode
      | None -> ())
  | None -> ());
  let selected = ref [] in
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> Bench_common.mode := Bench_common.Quick
        | "--standard" -> Bench_common.mode := Bench_common.Standard
        | "--full" -> Bench_common.mode := Bench_common.Full
        | "--help" | "-h" -> usage ()
        | name -> (
            match List.find_opt (fun (n, _, _) -> n = name) experiments with
            | Some e -> selected := e :: !selected
            | None ->
                Printf.eprintf "unknown experiment %S\n" name;
                usage ()))
    Sys.argv;
  let to_run =
    match !selected with [] -> experiments | l -> List.rev l
  in
  let mode_name =
    match !Bench_common.mode with
    | Bench_common.Quick -> "quick"
    | Bench_common.Standard -> "standard"
    | Bench_common.Full -> "full"
  in
  Printf.printf "INDaaS benchmark harness — %d experiment(s), %s scale\n"
    (List.length to_run) mode_name;
  let total =
    Indaas_util.Timing.time_only (fun () ->
        List.iter (fun (_, _, run) -> run ()) to_run)
  in
  Printf.printf "\nAll experiments completed in %s.\n"
    (Indaas_util.Timing.format_seconds total)
