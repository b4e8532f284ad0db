(* 32-bit arithmetic is done on native 63-bit ints with explicit
   masking; [m32] truncates back to 32 bits after additions. *)

let m32 = 0xFFFFFFFF

let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land m32

type algorithm = MD5 | SHA1 | SHA256

let output_length = function MD5 -> 16 | SHA1 -> 20 | SHA256 -> 32

(* Whole-message padding for MD5 and SHA-1 (64-byte blocks, 64-bit
   length field); [le] selects the byte order of the length field.
   SHA-256, the hash on the snapshot path, pads only its tail. *)
let pad_message ~le msg =
  let len = String.length msg in
  let bit_len = Int64.of_int (len * 8) in
  let rem = (len + 1 + 8) mod 64 in
  let zeros = if rem = 0 then 0 else 64 - rem in
  let total = len + 1 + zeros + 8 in
  let b = Bytes.make total '\x00' in
  Bytes.blit_string msg 0 b 0 len;
  Bytes.set b len '\x80';
  for i = 0 to 7 do
    let shift = if le then 8 * i else 8 * (7 - i) in
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical bit_len shift) 0xFFL) in
    Bytes.set b (total - 8 + i) (Char.chr byte)
  done;
  b

let word_le b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let word_be b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let store32_le out off v =
  Bytes.set out off (Char.chr (v land 0xFF));
  Bytes.set out (off + 1) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set out (off + 2) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set out (off + 3) (Char.chr ((v lsr 24) land 0xFF))

let store32_be out off v =
  Bytes.set out off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set out (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set out (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set out (off + 3) (Char.chr (v land 0xFF))

(* ------------------------------------------------------------------ *)
(* MD5 (RFC 1321)                                                     *)

let md5_s =
  [| 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22; 7; 12; 17; 22;
     5;  9; 14; 20; 5;  9; 14; 20; 5;  9; 14; 20; 5;  9; 14; 20;
     4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23; 4; 11; 16; 23;
     6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21; 6; 10; 15; 21 |]

let md5_k =
  [| 0xd76aa478; 0xe8c7b756; 0x242070db; 0xc1bdceee;
     0xf57c0faf; 0x4787c62a; 0xa8304613; 0xfd469501;
     0x698098d8; 0x8b44f7af; 0xffff5bb1; 0x895cd7be;
     0x6b901122; 0xfd987193; 0xa679438e; 0x49b40821;
     0xf61e2562; 0xc040b340; 0x265e5a51; 0xe9b6c7aa;
     0xd62f105d; 0x02441453; 0xd8a1e681; 0xe7d3fbc8;
     0x21e1cde6; 0xc33707d6; 0xf4d50d87; 0x455a14ed;
     0xa9e3e905; 0xfcefa3f8; 0x676f02d9; 0x8d2a4c8a;
     0xfffa3942; 0x8771f681; 0x6d9d6122; 0xfde5380c;
     0xa4beea44; 0x4bdecfa9; 0xf6bb4b60; 0xbebfbc70;
     0x289b7ec6; 0xeaa127fa; 0xd4ef3085; 0x04881d05;
     0xd9d4d039; 0xe6db99e5; 0x1fa27cf8; 0xc4ac5665;
     0xf4292244; 0x432aff97; 0xab9423a7; 0xfc93a039;
     0x655b59c3; 0x8f0ccc92; 0xffeff47d; 0x85845dd1;
     0x6fa87e4f; 0xfe2ce6e0; 0xa3014314; 0x4e0811a1;
     0xf7537e82; 0xbd3af235; 0x2ad7d2bb; 0xeb86d391 |]

let md5 msg =
  let b = pad_message ~le:true msg in
  let a0 = ref 0x67452301 and b0 = ref 0xefcdab89 in
  let c0 = ref 0x98badcfe and d0 = ref 0x10325476 in
  let blocks = Bytes.length b / 64 in
  for blk = 0 to blocks - 1 do
    let base = blk * 64 in
    let m = Array.init 16 (fun i -> word_le b (base + (4 * i))) in
    let a = ref !a0 and bb = ref !b0 and c = ref !c0 and d = ref !d0 in
    for i = 0 to 63 do
      let f, g =
        if i < 16 then ((!bb land !c) lor (lnot !bb land !d) land m32, i)
        else if i < 32 then ((!d land !bb) lor (lnot !d land !c) land m32, ((5 * i) + 1) mod 16)
        else if i < 48 then (!bb lxor !c lxor !d, ((3 * i) + 5) mod 16)
        else ((!c lxor (!bb lor (lnot !d land m32))) land m32, (7 * i) mod 16)
      in
      let f = (f + !a + md5_k.(i) + m.(g)) land m32 in
      a := !d;
      d := !c;
      c := !bb;
      bb := (!bb + rotl32 f md5_s.(i)) land m32
    done;
    a0 := (!a0 + !a) land m32;
    b0 := (!b0 + !bb) land m32;
    c0 := (!c0 + !c) land m32;
    d0 := (!d0 + !d) land m32
  done;
  let out = Bytes.create 16 in
  store32_le out 0 !a0;
  store32_le out 4 !b0;
  store32_le out 8 !c0;
  store32_le out 12 !d0;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* SHA-1 (FIPS 180-1)                                                 *)

let sha1 msg =
  let b = pad_message ~le:false msg in
  let h0 = ref 0x67452301 and h1 = ref 0xEFCDAB89 and h2 = ref 0x98BADCFE in
  let h3 = ref 0x10325476 and h4 = ref 0xC3D2E1F0 in
  let w = Array.make 80 0 in
  let blocks = Bytes.length b / 64 in
  for blk = 0 to blocks - 1 do
    let base = blk * 64 in
    for i = 0 to 15 do
      w.(i) <- word_be b (base + (4 * i))
    done;
    for i = 16 to 79 do
      w.(i) <- rotl32 (w.(i - 3) lxor w.(i - 8) lxor w.(i - 14) lxor w.(i - 16)) 1
    done;
    let a = ref !h0 and bb = ref !h1 and c = ref !h2 and d = ref !h3 and e = ref !h4 in
    for i = 0 to 79 do
      let f, k =
        if i < 20 then (((!bb land !c) lor (lnot !bb land !d)) land m32, 0x5A827999)
        else if i < 40 then (!bb lxor !c lxor !d, 0x6ED9EBA1)
        else if i < 60 then ((!bb land !c) lor (!bb land !d) lor (!c land !d), 0x8F1BBCDC)
        else (!bb lxor !c lxor !d, 0xCA62C1D6)
      in
      let tmp = (rotl32 !a 5 + f + !e + k + w.(i)) land m32 in
      e := !d;
      d := !c;
      c := rotl32 !bb 30;
      bb := !a;
      a := tmp
    done;
    h0 := (!h0 + !a) land m32;
    h1 := (!h1 + !bb) land m32;
    h2 := (!h2 + !c) land m32;
    h3 := (!h3 + !d) land m32;
    h4 := (!h4 + !e) land m32
  done;
  let out = Bytes.create 20 in
  store32_be out 0 !h0;
  store32_be out 4 !h1;
  store32_be out 8 !h2;
  store32_be out 12 !h3;
  store32_be out 16 !h4;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)
(* SHA-256 (FIPS 180-4)                                               *)

let sha256_k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5;
     0x3956c25b; 0x59f111f1; 0x923f82a4; 0xab1c5ed5;
     0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174;
     0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7;
     0xc6e00bf3; 0xd5a79147; 0x06ca6351; 0x14292967;
     0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3;
     0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5;
     0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f; 0x682e6ff3;
     0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

(* Big-endian 32-bit word at [off]. Unchecked: callers only read
   inside a 64-byte block they have already bounded. *)
external get32u : string -> int -> int32 = "%caml_string_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let word_be_unsafe s off =
  let v = get32u s off in
  Int32.to_int (if Sys.big_endian then v else bswap32 v) land m32

(* Compress the 64-byte block of [s] at [off] into [h], with [w] as
   the message-schedule scratch. The rounds run on local values and
   touch [h] once at the end. Every rotation doubles its 32-bit word
   into the 63-bit int ([x lor (x lsl 32)]) and shifts right: for a
   rotation below 32 the result's low 32 bits are exactly the rotated
   word (bit 31 of the upper copy lands on bit 63 and is dropped, but
   no amount below 32 reads it), so three rotations share one
   doubling. The bits above 31 are left unmasked: in a sum they only
   reach higher bits, and every word that is stored or doubled again
   ([w.(i)], [a], [e]) is masked first. [ch] and [maj] use the usual
   three- and four-operation forms of FIPS 180-4's choose and
   majority. *)
let sha256_block h w s off =
  for i = 0 to 15 do
    Array.unsafe_set w i (word_be_unsafe s (off + (4 * i)))
  done;
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = (xx lsr 7) lxor (xx lsr 18) lxor (x lsr 3) in
    let s1 = (yy lsr 17) lxor (yy lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land m32)
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let ev = !e and av = !a in
    let ee = ev lor (ev lsl 32) and aa = av lor (av lsl 32) in
    let s1 = (ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25) in
    let ch = !g lxor (ev land (!f lxor !g)) in
    let t1 =
      !hh + s1 + ch + Array.unsafe_get sha256_k i + Array.unsafe_get w i
    in
    let s0 = (aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22) in
    let maj = (av land !b) lor (!c land (av lor !b)) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land m32;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land m32
  done;
  h.(0) <- (h.(0) + !a) land m32;
  h.(1) <- (h.(1) + !b) land m32;
  h.(2) <- (h.(2) + !c) land m32;
  h.(3) <- (h.(3) + !d) land m32;
  h.(4) <- (h.(4) + !e) land m32;
  h.(5) <- (h.(5) + !f) land m32;
  h.(6) <- (h.(6) + !g) land m32;
  h.(7) <- (h.(7) + !hh) land m32

(* Full blocks are compressed straight from [msg]; only the tail (the
   last [len mod 64] bytes, 0x80, zeros and the 64-bit bit length)
   is copied into one or two padded blocks. *)
let sha256 msg =
  let h = [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
             0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |] in
  let w = Array.make 64 0 in
  let len = String.length msg in
  let full = len / 64 in
  for blk = 0 to full - 1 do
    sha256_block h w msg (64 * blk)
  done;
  let rest = len - (64 * full) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\x00' in
  Bytes.blit_string msg (64 * full) tail 0 rest;
  Bytes.set tail rest '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (len * 8));
  let tail = Bytes.unsafe_to_string tail in
  sha256_block h w tail 0;
  if tail_len = 128 then sha256_block h w tail 64;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> store32_be out (4 * i) v) h;
  Bytes.to_string out

(* ------------------------------------------------------------------ *)

let digest = function MD5 -> md5 | SHA1 -> sha1 | SHA256 -> sha256

let to_hex s =
  let digits = "0123456789abcdef" in
  let out = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) digits.[v land 0xF])
    s;
  Bytes.to_string out

let digest_hex alg s = to_hex (digest alg s)

let md5_hex s = to_hex (md5 s)
let sha1_hex s = to_hex (sha1 s)
let sha256_hex s = to_hex (sha256 s)

let fold_to_int64 s =
  if String.length s < 8 then invalid_arg "Digest.fold_to_int64: too short";
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v
