(* Serving benchmark of the INDaaS audit daemon.

     main.exe --workload hot-audits|cold-audits|delta-churn --seed N
              --seconds S --trace 0|1
     main.exe --self-test

   With --trace 0 it measures the wire path and prints the end-to-end
   metrics; with --trace 1 it measures the same way, replays the request
   sequence layer by layer under spans, writes a Chrome trace to
   .bench_out/ and prints the per-layer metrics. The last line of
   standard output is one JSON object; the exit code is 1 when any
   response failed its check. *)

module Json = Indaas_util.Json
module Export = Indaas_obs.Export
module Cache = Indaas_service.Cache

let fat_tree_k = 8

(* The default of --seconds, and the run length the benchmark is tuned
   for. *)
let default_seconds = 6.

type metric = string * float * string

let print_table title (rows : metric list) =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-28s %14.6g %s\n" n v u) rows

let scaled run ~phase ~meth =
  Array.of_list
    (List.filter_map
       (fun (s : Measure.sample) ->
         if s.Measure.phase = phase && s.Measure.meth = meth then Some s.Measure.scaled
         else None)
       run.Measure.samples)

let tail_or_max name xs =
  match Layers.tail xs with
  | Some (v, pct) ->
      Printf.printf "  %s: p%.1f of %d samples\n" name pct (Array.length xs);
      v
  | None ->
      Printf.printf "  %s: fewer than %d samples, reporting the maximum\n" name
        (Layers.tail_gap + 1);
      Array.fold_left max 0. xs

let end_to_end w (run : Measure.run) : metric list =
  let audits = scaled run ~phase:Corpus.Measure ~meth:"audit" in
  (* Only delta-churn submits while measuring; elsewhere the submissions
     are the set-up ingests. *)
  let submits =
    match w with
    | Corpus.Delta_churn -> scaled run ~phase:Corpus.Measure ~meth:"submit-deps"
    | _ -> Array.of_list run.Measure.setup_submits
  in
  let measured =
    List.filter (fun (s : Measure.sample) -> s.Measure.phase = Corpus.Measure)
      run.Measure.samples
  in
  let busy = List.fold_left (fun acc s -> acc +. s.Measure.scaled) 0. measured in
  let raw = List.fold_left (fun acc s -> acc +. s.Measure.latency) 0. measured in
  Printf.printf "samples: %d audits, %d submits, %d set-ups\n" (Array.length audits)
    (Array.length submits) (Array.length run.Measure.setup);
  Printf.printf
    "calibration: kernel median %.3f ms against %.3f ms reference; %.3f s measured \
     = %.3f reference s\n"
    (1e3 *. run.Measure.kernel_s) (1e3 *. Calib.reference_s) raw busy;
  let audit_tail = tail_or_max "audit_tail_s" audits in
  let submit_tail = tail_or_max "submit_tail_s" submits in
  [
    ("setup_s", Layers.median run.Measure.setup, "s");
    ("audit_p50_s", Layers.median audits, "s");
    ("audit_tail_s", audit_tail, "s");
    ("submit_p50_s", Layers.median submits, "s");
    ("submit_tail_s", submit_tail, "s");
    ("throughput_rps", float_of_int (List.length measured) /. busy, "1/s");
    ("server_heap_mb", run.Measure.server_heap_mb, "MB");
  ]

let span_names =
  [
    "request"; "frame.decode"; "dependency.parse"; "snapshot.get";
    "snapshot.submit"; "cache.invalidate"; "cache.find"; "builder.build";
    "minimize"; "rank"; "lint"; "report.json"; "cache.add"; "frame.encode";
    "depdb.union"; "depdb.digest"; "probe.enum"; "probe.bdd";
  ]

let per_layer (run : Measure.run) (rp : Replay.result) : metric list =
  let table = Layers.aggregate rp.Replay.reg in
  let requests = List.length run.Measure.exchanges in
  let c = rp.Replay.counts in
  let mean num den = float_of_int num /. float_of_int (max 1 den) in
  let cache = rp.Replay.cache in
  let served =
    Array.of_list (List.map (fun (s : Measure.sample) -> s.Measure.latency) run.Measure.samples)
  in
  let traced =
    match Hashtbl.find_opt table "request" with
    | Some l -> Array.of_list l.Layers.durations
    | None -> [||]
  in
  let mean_of a = Array.fold_left ( +. ) 0. a /. float_of_int (max 1 (Array.length a)) in
  List.concat_map (Layers.span_metrics table ~requests) span_names
  @ [
      ("frame.bytes_out", mean c.Replay.bytes_out requests, "B");
      ("snapshot.records", float_of_int rp.Replay.records, "count");
      ("builder.nodes", mean c.Replay.nodes c.Replay.builds, "count");
      ("minimize.rgs", mean c.Replay.rgs c.Replay.minimizes, "count");
      ("minimize.bdd_fallbacks", float_of_int c.Replay.bdd_fallbacks, "count");
      ("lint.findings", mean c.Replay.findings c.Replay.lints, "count");
      ( "cache.hit_ratio",
        mean cache.Cache.hits (cache.Cache.hits + cache.Cache.misses),
        "ratio" );
      ("cache.evicted", float_of_int cache.Cache.evicted, "count");
      ("cache.invalidated", float_of_int cache.Cache.invalidated, "count");
      ("scheduler.shed", float_of_int run.Measure.shed, "count");
      ("trace.gap_s", mean_of served -. mean_of traced, "s");
      ("calibration.kernel_s", run.Measure.kernel_s, "s");
    ]

let result_json ~correct ~attempted ~failed (metrics : metric list) =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             metrics) );
    ]

let bench ~workload ~seed ~seconds ~trace =
  let w = List.assoc workload Corpus.workloads in
  let c = Corpus.corpus ~k:fat_tree_k in
  Printf.printf "workload %s, seed %d, fat tree k=%d: %d servers, %d records\n"
    workload seed fat_tree_k (Array.length c.Corpus.servers)
    (Corpus.record_count c.Corpus.sources);
  let run =
    Measure.run c w ~seed ~budget:(Measure.Seconds seconds) ~reps:Measure.setup_reps
      ~heap_after:Measure.heap_after ~keep:trace
  in
  let e2e = end_to_end w run in
  let attempted = run.Measure.attempted and failed = run.Measure.failed in
  print_table "end to end" e2e;
  Printf.printf "  %-28s %14.6g ratio\n" "error_ratio"
    (float_of_int failed /. float_of_int attempted);
  let metrics, mismatches =
    if not trace then (e2e, 0)
    else begin
      let rp = Replay.run ~workload run.Measure.exchanges in
      let layers = per_layer run rp in
      print_table "per layer (traced replay)" layers;
      (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf ".bench_out/%s-seed%d.trace.json" workload seed in
      Export.write_chrome_trace rp.Replay.reg ~path;
      Printf.printf "chrome trace: %s\n" path;
      Printf.printf "replay responses differing from served bytes: %d\n"
        rp.Replay.counts.Replay.mismatches;
      (layers, rp.Replay.counts.Replay.mismatches)
    end
  in
  let correct = failed = 0 && mismatches = 0 in
  print_endline
    (Json.to_string
       (result_json ~correct ~attempted ~failed:(failed + mismatches) metrics));
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref default_seconds and trace = ref 0 in
  let self_test = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " hot-audits, cold-audits or delta-churn");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " reference seconds of request latency to measure");
      ("--trace", Arg.Set_int trace, " 1 adds the traced per-layer replay");
      ("--self-test", Arg.Set self_test, " check the benchmark's own logic");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self_test then Selftest.run ()
  else if not (List.mem_assoc !workload Corpus.workloads) then (
    prerr_endline ("unknown workload " ^ !workload);
    exit 2)
  else bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
