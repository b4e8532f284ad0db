(* Checks of the benchmark's own logic, run by [main.exe --self-test]. *)

module Span = Indaas_obs.Span
module Registry = Indaas_obs.Registry
module Prng = Indaas_util.Prng

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* The reported tail leaves at least ten samples above it, and no higher
   percentile would. *)
let tail_rule () =
  let rng = Prng.of_int 11 in
  let ok = ref (Layers.tail (Array.make Layers.tail_gap 1.) = None) in
  for n = Layers.tail_gap + 1 to 400 do
    let xs = Array.init n float_of_int in
    Prng.shuffle rng xs;
    match Layers.tail xs with
    | None -> ok := false
    | Some (v, pct) ->
        let above = Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 xs in
        if above <> Layers.tail_gap then ok := false;
        if abs_float (pct -. (100. *. float_of_int (n - Layers.tail_gap) /. float_of_int n)) > 1e-9
        then ok := false
  done;
  expect "tail rule leaves exactly 10 samples above the reported percentile" !ok

let closed ~start ~stop name =
  let s = Span.make ~id:0L ~name ~start_ns:start in
  Span.stop s ~now_ns:stop;
  s

(* Self time is span time minus child coverage, overlaps counted once. *)
let self_time () =
  let parent = closed ~start:0L ~stop:100L "p" in
  List.iter (Span.add_child parent)
    [ closed ~start:10L ~stop:30L "a"; closed ~start:20L ~stop:50L "b";
      closed ~start:80L ~stop:100L "c" ];
  expect "self time of overlapping children" (Layers.self_ns parent = 40L);
  expect "self time of a leaf" (Layers.self_ns (closed ~start:5L ~stop:9L "l") = 4L);
  (* Through a registry on a scripted clock: request 0..10 with children
     1..4 and 6..9, the second with a grandchild 7..8. *)
  let ticks = ref [ 0L; 1L; 4L; 6L; 7L; 8L; 9L; 10L ] in
  let clock () =
    match !ticks with
    | t :: rest ->
        ticks := rest;
        t
    | [] -> 10L
  in
  let reg = Registry.create ~clock () in
  Registry.enable ~clock reg;
  Registry.with_span_in reg "request" (fun () ->
      Registry.with_span_in reg "x" ignore;
      Registry.with_span_in reg "y" (fun () -> Registry.with_span_in reg "z" ignore));
  let table = Layers.aggregate reg in
  let self name = (Hashtbl.find table name).Layers.self in
  expect "aggregated self times"
    (self "request" = 4e-9 && self "x" = 3e-9 && self "y" = 2e-9 && self "z" = 1e-9)

(* The same seed yields a byte-identical request stream; another seed
   does not. *)
let seeded_streams c =
  let frames w seed =
    let st = Corpus.stream c w ~seed in
    let reqs = st.Corpus.prime @ List.init 60 (fun _ -> st.Corpus.next ()) in
    String.concat "" (List.mapi (fun i r -> Corpus.encode ~id:(i + 1) r) reqs)
  in
  List.iter
    (fun (name, w) ->
      expect (name ^ ": same seed, same request bytes") (frames w 7 = frames w 7);
      expect (name ^ ": other seed, other request bytes") (frames w 7 <> frames w 8))
    Corpus.workloads

(* Every served response passes its check, and the replay assembles the
   very bytes the server returned. *)
let replay_matches c =
  List.iter
    (fun (name, w) ->
      let run = Measure.run c w ~seed:3 ~budget:(Measure.Requests 40) ~reps:1 ~heap_after:1
          ~keep:true
      in
      expect (name ^ ": served responses match the batch path") (run.Measure.failed = 0);
      let rp = Replay.run ~workload:name run.Measure.exchanges in
      expect (name ^ ": replay bytes equal served bytes")
        (rp.Replay.counts.Replay.mismatches = 0
        && List.length (Registry.roots rp.Replay.reg) >= List.length run.Measure.exchanges))
    Corpus.workloads

let run () =
  tail_rule ();
  self_time ();
  let c = Corpus.corpus ~k:4 in
  seeded_streams c;
  replay_matches c;
  if !failures > 0 then exit 1
