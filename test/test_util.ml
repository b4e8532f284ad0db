module Prng = Indaas_util.Prng
module Stats = Indaas_util.Stats
module Table = Indaas_util.Table
module Timing = Indaas_util.Timing
module Json = Indaas_util.Json

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Prng ---------------------------------------------------------- *)

let test_determinism () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_different_seeds () =
  let a = Prng.of_int 1 and b = Prng.of_int 2 in
  let distinct = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.next_int64 a) (Prng.next_int64 b)) then
      distinct := true
  done;
  check Alcotest.bool "streams differ" true !distinct

let test_copy () =
  let a = Prng.of_int 7 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_split_independent () =
  let a = Prng.of_int 7 in
  let b = Prng.split a in
  (* The split-off stream differs from the parent's continuation. *)
  let same = ref 0 in
  for _ = 1 to 20 do
    if Int64.equal (Prng.next_int64 a) (Prng.next_int64 b) then incr same
  done;
  check Alcotest.bool "streams diverge" true (!same < 3)

let test_int_bounds () =
  let g = Prng.of_int 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int g 1 in
    check Alcotest.int "bound 1" 0 v
  done

let test_int_rejects_nonpositive () =
  let g = Prng.of_int 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_uniformity () =
  let g = Prng.of_int 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      check Alcotest.bool "within 5% of uniform" true
        (abs (c - expected) < expected / 20))
    buckets

let test_float_range () =
  let g = Prng.of_int 5 in
  for _ = 1 to 10_000 do
    let v = Prng.float g in
    check Alcotest.bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_bernoulli_extremes () =
  let g = Prng.of_int 5 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Prng.bernoulli g 0.);
    check Alcotest.bool "p=1 always" true (Prng.bernoulli g 1.)
  done

let test_bernoulli_rate () =
  let g = Prng.of_int 5 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.bernoulli g 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let test_bytes_length () =
  let g = Prng.of_int 9 in
  List.iter
    (fun n -> check Alcotest.int "length" n (Bytes.length (Prng.bytes g n)))
    [ 0; 1; 7; 8; 9; 63; 64; 100 ]

let test_shuffle_permutation () =
  let g = Prng.of_int 13 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle g arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "same elements" (Array.init 50 Fun.id) sorted

let test_shuffle_list_permutation () =
  let g = Prng.of_int 13 in
  let l = List.init 20 Fun.id in
  let s = Prng.shuffle_list g l in
  check (Alcotest.list Alcotest.int) "same elements" l (List.sort compare s)

let test_sample_without_replacement () =
  let g = Prng.of_int 17 in
  let arr = Array.init 30 Fun.id in
  let s = Prng.sample_without_replacement g 10 arr in
  check Alcotest.int "size" 10 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check Alcotest.int "distinct" 10 (List.length distinct);
  Alcotest.check_raises "k too large"
    (Invalid_argument "Prng.sample_without_replacement: k > length") (fun () ->
      ignore (Prng.sample_without_replacement g 31 arr))

let test_pick_empty () =
  let g = Prng.of_int 1 in
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick g [||]))

let test_exponential_positive () =
  let g = Prng.of_int 23 in
  for _ = 1 to 1000 do
    check Alcotest.bool "positive" true (Prng.exponential g 2.5 >= 0.)
  done

let test_exponential_mean () =
  let g = Prng.of_int 23 in
  let acc = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g 2.0
  done;
  let mean = !acc /. float_of_int n in
  check Alcotest.bool "mean near 1/lambda" true (abs_float (mean -. 0.5) < 0.02)

(* --- Stats --------------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_mean_median () =
  check feq "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  check feq "median even" 2.5 (Stats.median [| 1.; 2.; 3.; 4. |]);
  check feq "median odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  check feq "singleton" 7. (Stats.mean [| 7. |])

let test_variance () =
  check feq "variance" 2.5 (Stats.variance [| 1.; 2.; 3.; 4.; 5. |]);
  check feq "stddev" (sqrt 2.5) (Stats.stddev [| 1.; 2.; 3.; 4.; 5. |]);
  check feq "singleton variance" 0. (Stats.variance [| 3. |])

let test_percentile () =
  let xs = [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |] in
  check feq "p0" 1. (Stats.percentile xs 0.);
  check feq "p100" 10. (Stats.percentile xs 100.);
  check feq "p50" 5.5 (Stats.percentile xs 50.)

let test_min_max_sum () =
  let xs = [| 3.; -1.; 4. |] in
  let lo, hi = Stats.min_max xs in
  check feq "min" (-1.) lo;
  check feq "max" 4. hi;
  check feq "sum" 6. (Stats.sum xs)

let test_histogram () =
  let h = Stats.histogram ~bins:2 [| 0.; 0.1; 0.9; 1. |] in
  check Alcotest.int "bins" 2 (Array.length h);
  check Alcotest.int "total count" 4 (Array.fold_left (fun a (_, c) -> a + c) 0 h)

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

let test_welford_matches_batch () =
  let g = Prng.of_int 31 in
  let xs = Array.init 1000 (fun _ -> Prng.float g) in
  let w = Stats.Welford.create () in
  Array.iter (Stats.Welford.add w) xs;
  check Alcotest.int "count" 1000 (Stats.Welford.count w);
  check (Alcotest.float 1e-9) "mean" (Stats.mean xs) (Stats.Welford.mean w);
  check (Alcotest.float 1e-9) "variance" (Stats.variance xs)
    (Stats.Welford.variance w)

let test_welford_empty_raises () =
  (* Same contract as Stats.mean on an empty array — no silent nan. *)
  let w = Stats.Welford.create () in
  Alcotest.check_raises "empty mean"
    (Invalid_argument "Stats.Welford.mean: empty accumulator") (fun () ->
      ignore (Stats.Welford.mean w));
  (* variance/stddev of an empty accumulator stay 0, matching the
     n < 2 convention of Stats.variance *)
  check (Alcotest.float 1e-12) "variance 0" 0. (Stats.Welford.variance w)

(* --- Table --------------------------------------------------------- *)

let test_table_render () =
  let t = Table.create ~aligns:[ Table.Left; Table.Right ] [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  check Alcotest.bool "contains header" true
    (Astring.String.is_infix ~affix:"name" s);
  check Alcotest.bool "right-aligned" true
    (Astring.String.is_infix ~affix:"| 22 |" s);
  check Alcotest.bool "left-aligned" true
    (Astring.String.is_infix ~affix:"| alpha |" s)

let test_table_arity_mismatch () =
  let t = Table.create [ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_separator () =
  let t = Table.create [ "x" ] in
  Table.add_row t [ "1" ];
  Table.add_separator t;
  Table.add_row t [ "2" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* top rule, header, rule, row, rule, row, bottom rule *)
  check Alcotest.int "line count" 7 (List.length lines)

(* --- Timing -------------------------------------------------------- *)

let test_format_seconds () =
  check Alcotest.string "us" "500us" (Timing.format_seconds 0.0005);
  check Alcotest.string "ms" "12.0ms" (Timing.format_seconds 0.012);
  check Alcotest.string "s" "4.50s" (Timing.format_seconds 4.5);
  check Alcotest.string "m" "2m05s" (Timing.format_seconds 125.)

let test_format_bytes () =
  check Alcotest.string "B" "512B" (Timing.format_bytes 512);
  check Alcotest.string "KB" "2.0KB" (Timing.format_bytes 2048);
  check Alcotest.string "MB" "1.00MB" (Timing.format_bytes (1024 * 1024))

let test_format_seconds_degenerate () =
  check Alcotest.string "zero" "0s" (Timing.format_seconds 0.);
  check Alcotest.string "negative zero" "0s" (Timing.format_seconds (-0.));
  check Alcotest.string "nan" "nan" (Timing.format_seconds Float.nan);
  check Alcotest.string "inf" "inf" (Timing.format_seconds Float.infinity);
  check Alcotest.string "-inf" "-inf" (Timing.format_seconds Float.neg_infinity);
  check Alcotest.string "negative ms" "-12.0ms" (Timing.format_seconds (-0.012));
  check Alcotest.string "negative m" "-2m05s" (Timing.format_seconds (-125.))

let test_time_returns_result () =
  let v, elapsed = Timing.time (fun () -> 21 * 2) in
  check Alcotest.int "result" 42 v;
  check Alcotest.bool "non-negative" true (elapsed >= 0.)

let test_now_ns_monotonic_enough () =
  let a = Timing.now_ns () in
  let b = Timing.now_ns () in
  (* gettimeofday can step backwards under NTP, but within one test
     run the two reads should be ordered and in a sane epoch range. *)
  check Alcotest.bool "ordered" true (Int64.compare b a >= 0);
  check Alcotest.bool "after 2001" true (Int64.compare a 1_000_000_000_000_000_000L > 0)


(* --- Json ---------------------------------------------------------- *)

let test_json_scalars () =
  check Alcotest.string "null" "null" (Json.to_string Json.Null);
  check Alcotest.string "bool" "true" (Json.to_string (Json.Bool true));
  check Alcotest.string "int" "-42" (Json.to_string (Json.Int (-42)));
  check Alcotest.string "float int" "2.0" (Json.to_string (Json.Float 2.));
  check Alcotest.string "float frac" "0.25" (Json.to_string (Json.Float 0.25))

let test_json_string_escaping () =
  check Alcotest.string "plain" "\"abc\"" (Json.to_string (Json.String "abc"));
  check Alcotest.string "quote" {|"a\"b"|} (Json.to_string (Json.String {|a"b|}));
  check Alcotest.string "newline" {|"a\nb"|} (Json.to_string (Json.String "a\nb"));
  check Alcotest.string "control" {|"a\u0001b"|}
    (Json.to_string (Json.String "a\001b"))

let test_json_compound () =
  let v =
    Json.Obj
      [ ("xs", Json.List [ Json.Int 1; Json.Int 2 ]); ("ok", Json.Bool false) ]
  in
  check Alcotest.string "compact" {|{"xs":[1,2],"ok":false}|} (Json.to_string v);
  check Alcotest.bool "indented nests" true
    (Astring.String.is_infix ~affix:"\n  \"xs\"" (Json.to_string ~indent:true v));
  check Alcotest.string "empty containers" {|{"a":[],"b":{}}|}
    (Json.to_string (Json.Obj [ ("a", Json.List []); ("b", Json.Obj []) ]))

let test_json_nonfinite_rejected () =
  Alcotest.check_raises "nan" (Invalid_argument "Json: non-finite float")
    (fun () -> ignore (Json.to_string (Json.Float Float.nan)));
  Alcotest.check_raises "inf" (Invalid_argument "Json: non-finite float")
    (fun () -> ignore (Json.to_string (Json.Float Float.infinity)))

let parsed_string input =
  match Json.of_string input with
  | Json.String s -> s
  | _ -> Alcotest.fail "expected string"

let test_json_surrogate_pairs () =
  (* U+1F600 is the surrogate pair D83D DE00 in UTF-16,
     f0 9f 98 80 in UTF-8. *)
  check Alcotest.string "astral pair" "\xf0\x9f\x98\x80"
    (parsed_string {|"\uD83D\uDE00"|});
  (* U+1D11E: D834 DD1E -> f0 9d 84 9e. *)
  check Alcotest.string "pair in context" "a\xf0\x9d\x84\x9eb"
    (parsed_string {|"a\uD834\uDD1Eb"|});
  check Alcotest.string "lowercase hex" "\xf0\x9f\x98\x80"
    (parsed_string {|"\ud83d\ude00"|});
  (* BMP escapes are unaffected. *)
  check Alcotest.string "bmp" "\xe2\x82\xac" (parsed_string {|"\u20AC"|})

let parse_fails input =
  match Json.of_string input with
  | exception Json.Parse_error _ -> true
  | _ -> false

let test_json_lone_surrogates_rejected () =
  check Alcotest.bool "lone high at end" true (parse_fails {|"\uD83D"|});
  check Alcotest.bool "high + ordinary char" true (parse_fails {|"\uD83Dx"|});
  check Alcotest.bool "high + non-u escape" true (parse_fails {|"\uD83D\n"|});
  check Alcotest.bool "high + high" true (parse_fails {|"\uD83D\uD83D"|});
  check Alcotest.bool "lone low" true (parse_fails {|"\uDE00"|});
  check Alcotest.bool "low then high" true (parse_fails {|"\uDE00\uD83D"|});
  check Alcotest.bool "truncated second escape" true (parse_fails {|"\uD83D\uDE"|})

let test_json_truncation_messages () =
  let error input =
    match Json.of_string input with
    | exception Json.Parse_error msg -> msg
    | _ -> Alcotest.failf "%S parsed" input
  in
  check Alcotest.string "empty" "Json.of_string: empty input" (error "");
  check Alcotest.string "whitespace only" "Json.of_string: empty input"
    (error " \n\t ");
  check Alcotest.string "nested lists"
    "Json.of_string: end of input inside a value at 3" (error "[[[");
  check Alcotest.string "after comma"
    "Json.of_string: end of input inside a value at 4" (error "[1, ");
  check Alcotest.string "after colon"
    "Json.of_string: end of input inside a value at 5" (error {|{"a":|});
  check Alcotest.string "unclosed list"
    "Json.of_string: expected ']' at 2, got end of input" (error "[1")

(* RFC 8259 §7: a \u escape is exactly four hex digits, and U+0000 to
   U+001F must be escaped inside strings. *)
let test_json_strict_strings () =
  let error input =
    match Json.of_string input with
    | exception Json.Parse_error msg -> msg
    | _ -> Alcotest.failf "%S parsed" input
  in
  check Alcotest.string "digit separator in \\u"
    {|Json.of_string: bad \u escape "0_41" at 3|} (error {|"\u0_41"|});
  check Alcotest.string "sign in \\u"
    {|Json.of_string: bad \u escape "+041" at 4|} (error {|["\u+041"]|});
  check Alcotest.string "space in \\u"
    {|Json.of_string: bad \u escape " 041" at 3|} (error {|"\u 041"|});
  check Alcotest.string "raw newline"
    "Json.of_string: unescaped control character U+000A in string at 2"
    (error "\"a\nb\"");
  check Alcotest.string "raw NUL in a key"
    "Json.of_string: unescaped control character U+0000 in string at 3"
    (error "{\"k\000\": 1}");
  check Alcotest.string "raw U+001F"
    "Json.of_string: unescaped control character U+001F in string at 1"
    (error "\"\031\"");
  check Alcotest.string "DEL needs no escape" "a\127b"
    (parsed_string "\"a\127b\"");
  let controls = String.init 32 Char.chr in
  check Alcotest.string "escaped controls round-trip" controls
    (parsed_string (Json.to_string (Json.String controls)))

(* --- qcheck properties --------------------------------------------- *)

let prop_int_in_range =
  QCheck.Test.make ~name:"Prng.int always in range" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.of_int seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_shuffle_preserves_multiset =
  QCheck.Test.make ~name:"shuffle preserves multiset" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let g = Prng.of_int seed in
      List.sort compare (Prng.shuffle_list g l) = List.sort compare l)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_bound_inclusive 100.))
        (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
    (fun (l, (p1, p2)) ->
      let xs = Array.of_list l in
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "different seeds" `Quick test_different_seeds;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "split" `Quick test_split_independent;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int rejects 0" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "int uniformity" `Slow test_int_uniformity;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
          Alcotest.test_case "bytes length" `Quick test_bytes_length;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle list" `Quick test_shuffle_list_permutation;
          Alcotest.test_case "sampling w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "pick empty" `Quick test_pick_empty;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          qtest prop_int_in_range;
          qtest prop_shuffle_preserves_multiset;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_mean_median;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "min/max/sum" `Quick test_min_max_sum;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
          Alcotest.test_case "welford" `Quick test_welford_matches_batch;
          Alcotest.test_case "welford empty raises" `Quick test_welford_empty_raises;
          qtest prop_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_scalars;
          Alcotest.test_case "string escaping" `Quick test_json_string_escaping;
          Alcotest.test_case "compound" `Quick test_json_compound;
          Alcotest.test_case "non-finite rejected" `Quick test_json_nonfinite_rejected;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs;
          Alcotest.test_case "lone surrogates rejected" `Quick
            test_json_lone_surrogates_rejected;
          Alcotest.test_case "truncation messages" `Quick
            test_json_truncation_messages;
          Alcotest.test_case "strict strings" `Quick test_json_strict_strings;
        ] );
      ( "timing",
        [
          Alcotest.test_case "format seconds" `Quick test_format_seconds;
          Alcotest.test_case "format seconds degenerate" `Quick
            test_format_seconds_degenerate;
          Alcotest.test_case "format bytes" `Quick test_format_bytes;
          Alcotest.test_case "time" `Quick test_time_returns_result;
          Alcotest.test_case "now_ns" `Quick test_now_ns_monotonic_enough;
        ] );
    ]
