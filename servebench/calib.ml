(* Machine-speed calibration.

   The benchmark shares its host with other tenants, whose load moves the
   speed of this process by up to half, for seconds to minutes at a time.
   Request latency and CPU time rise together, so neither longer runs nor
   CPU time cancel it. A fixed kernel timed between requests, in the same
   process, slows down in step with the serving path: it does the same
   kind of work as a snapshot rebuild (format records, insert them into a
   hash table, sort, concatenate and hash the text) using only the
   standard library, so no change to the program under test moves it.

   Every timing the benchmark reports is scaled by [reference_s / k],
   where [k] is the median of the last [window] kernel times: seconds on a
   host where the kernel takes [reference_s], its time on a quiet host with
   a 2.1 GHz Intel Xeon (family 6, model 207). *)

let reference_s = 6.0e-3
let window = 5

let kernel () =
  let table = Hashtbl.create 64 in
  for i = 0 to 2999 do
    Hashtbl.replace table
      (Printf.sprintf "<src=\"server%d\" dst=\"Internet\" route=\"tor%d,agg%d,core%d\"/>"
         (i mod 128) (i mod 32) (i mod 7) i)
      i
  done;
  let lines = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) table []) in
  let b = Buffer.create 4096 in
  List.iter
    (fun k ->
      Buffer.add_string b k;
      Buffer.add_char b '\n')
    lines;
  let text = Buffer.contents b in
  let h = ref 0 in
  for _ = 1 to 4 do
    String.iter (fun c -> h := (!h lxor Char.code c) * 16777619 land 0xFFFFFFFF) text
  done;
  ignore (Sys.opaque_identity !h)

type t = { mutable recent : float list; mutable all : float list }

let sample t =
  let t0 = Monotonic_clock.now () in
  kernel ();
  let k = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  t.recent <- List.filteri (fun i _ -> i < window) (k :: t.recent);
  t.all <- k :: t.all

(* A fresh calibration fills the window before anything is scaled. *)
let start () =
  let t = { recent = []; all = [] } in
  for _ = 1 to window do
    sample t
  done;
  t

(* Measured seconds to reference seconds, at the current host speed. *)
let scale t seconds =
  seconds *. reference_s /. Layers.median (Array.of_list t.recent)

let kernel_s t = Layers.median (Array.of_list t.all)
