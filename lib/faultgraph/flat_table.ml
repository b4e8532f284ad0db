(* Slot [i] is [data.(4i) .. data.(4i+3)]: the three key ints, then the
   value; a negative value marks the slot empty. The table doubles
   before it is half full, so a probe always reaches an empty slot. *)

type t = { mutable data : int array; mutable mask : int; mutable count : int }

let create slots =
  let rec pow2 n = if n >= slots then n else pow2 (2 * n) in
  let slots = pow2 2 in
  { data = Array.make (4 * slots) (-1); mask = slots - 1; count = 0 }

let hash a b c =
  let h = (a * 0x2545F4914F6CDD1D) + b in
  let h = (h * 0x2545F4914F6CDD1D) + c in
  let h = h * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

(* The probes are top-level functions of all their arguments: a local
   [let rec] over the table would allocate a closure on every call. *)
let rec find_from data mask a b c i =
  let s = 4 * i in
  let v = data.(s + 3) in
  if v < 0 then -1
  else if data.(s) = a && data.(s + 1) = b && data.(s + 2) = c then v
  else find_from data mask a b c ((i + 1) land mask)

let find t a b c = find_from t.data t.mask a b c (hash a b c land t.mask)

let rec place_from t data mask a b c v i =
  let s = 4 * i in
  if data.(s + 3) < 0 then begin
    data.(s) <- a;
    data.(s + 1) <- b;
    data.(s + 2) <- c;
    data.(s + 3) <- v;
    t.count <- t.count + 1
  end
  else if data.(s) = a && data.(s + 1) = b && data.(s + 2) = c then
    data.(s + 3) <- v
  else place_from t data mask a b c v ((i + 1) land mask)

(* Insert or overwrite, without the load check. *)
let place t a b c v = place_from t t.data t.mask a b c v (hash a b c land t.mask)

let grow t =
  let old = t.data in
  let slots = 2 * (t.mask + 1) in
  t.data <- Array.make (4 * slots) (-1);
  t.mask <- slots - 1;
  t.count <- 0;
  for i = 0 to (Array.length old / 4) - 1 do
    let s = 4 * i in
    if old.(s + 3) >= 0 then place t old.(s) old.(s + 1) old.(s + 2) old.(s + 3)
  done

let add t a b c v =
  if v < 0 then invalid_arg "Flat_table.add: negative value";
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  place t a b c v

let clear t =
  if t.count > 0 then begin
    Array.fill t.data 0 (Array.length t.data) (-1);
    t.count <- 0
  end

let length t = t.count
let words t = Array.length t.data
