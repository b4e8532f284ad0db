(* Statistics the benchmark reports: medians, the tail rule, and per-layer
   aggregates of the replay's spans. *)

module Registry = Indaas_obs.Registry
module Span = Indaas_obs.Span

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples that must lie above the reported tail value. *)
let tail_gap = 10

(* The tail rule: the highest percentile that leaves at least [tail_gap]
   samples above it. Returns the value and the percentile, or [None]
   with too few samples. *)
let tail xs =
  let n = Array.length xs in
  if n <= tail_gap then None
  else
    let a = Array.copy xs in
    Array.sort compare a;
    let i = n - tail_gap - 1 in
    Some (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n)

(* Self time: the span's duration minus the part of its interval that
   its children cover (overlapping children count once). *)
let self_ns (s : Span.t) =
  let stop (c : Span.t) = Int64.add c.Span.start_ns (Span.duration_ns c) in
  let lo = s.Span.start_ns and hi = stop s in
  let intervals =
    List.sort compare
      (List.map
         (fun c -> (max lo c.Span.start_ns, min hi (stop c)))
         (Span.children s))
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, lo) intervals
  in
  Int64.sub (Span.duration_ns s) covered

type layer = { mutable durations : float list; mutable self : float }

(* Every span of every root, grouped by name. *)
let aggregate reg =
  let table = Hashtbl.create 32 in
  List.iter
    (Span.iter (fun (s : Span.t) ->
         let l =
           match Hashtbl.find_opt table s.Span.name with
           | Some l -> l
           | None ->
               let l = { durations = []; self = 0. } in
               Hashtbl.add table s.Span.name l;
               l
         in
         l.durations <- Span.duration_seconds s :: l.durations;
         l.self <- l.self +. (Int64.to_float (self_ns s) /. 1e9)))
    (Registry.roots reg);
  table

(* [X.calls], [X.p50_s] and [X.self_s], the last per request. A layer
   that never ran reports zeros. *)
let span_metrics table ~requests name =
  let calls, p50, self =
    match Hashtbl.find_opt table name with
    | None -> (0, 0., 0.)
    | Some l ->
        ( List.length l.durations,
          median (Array.of_list l.durations),
          l.self /. float_of_int (max 1 requests) )
  in
  [
    (name ^ ".calls", float_of_int calls, "count");
    (name ^ ".p50_s", p50, "s");
    (name ^ ".self_s", self, "s");
  ]
