module Nat = Indaas_bignum.Nat
module Prime = Indaas_bignum.Prime
module Prng = Indaas_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let nat = Alcotest.testable Nat.pp Nat.equal

let n = Nat.of_int
let big g bits = Nat.random_bits g bits

(* --- basic constructors and conversions ---------------------------- *)

let test_of_to_int () =
  List.iter
    (fun v -> check Alcotest.int "roundtrip" v (Nat.to_int (n v)))
    [ 0; 1; 2; 1000; max_int / 2; max_int ];
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (n (-1)))

let test_to_int_overflow () =
  let g = Prng.of_int 1 in
  let huge = big g 200 in
  check (Alcotest.option Alcotest.int) "overflow" None (Nat.to_int_opt huge)

let test_of_int64 () =
  check nat "small" (n 12345) (Nat.of_int64 12345L);
  check nat "zero" Nat.zero (Nat.of_int64 0L);
  check Alcotest.string "max_int64" "9223372036854775807"
    (Nat.to_decimal (Nat.of_int64 Int64.max_int))

let test_predicates () =
  check Alcotest.bool "zero" true (Nat.is_zero Nat.zero);
  check Alcotest.bool "one" true (Nat.is_one Nat.one);
  check Alcotest.bool "two even" true (Nat.is_even Nat.two);
  check Alcotest.bool "one odd" false (Nat.is_even Nat.one);
  check Alcotest.bool "zero even" true (Nat.is_even Nat.zero)

(* --- arithmetic against machine ints ------------------------------- *)

let test_small_arith_cross_check () =
  let g = Prng.of_int 2 in
  for _ = 1 to 5000 do
    let a = Prng.int g 1_000_000 and b = Prng.int g 1_000_000 in
    check Alcotest.int "add" (a + b) (Nat.to_int (Nat.add (n a) (n b)));
    check Alcotest.int "mul" (a * b) (Nat.to_int (Nat.mul (n a) (n b)));
    if a >= b then
      check Alcotest.int "sub" (a - b) (Nat.to_int (Nat.sub (n a) (n b)))
  done

let test_divmod_cross_check () =
  let g = Prng.of_int 3 in
  for _ = 1 to 5000 do
    let a = Prng.int g 1_000_000_000 and b = 1 + Prng.int g 100_000 in
    let q, r = Nat.divmod (n a) (n b) in
    check Alcotest.int "quotient" (a / b) (Nat.to_int q);
    check Alcotest.int "remainder" (a mod b) (Nat.to_int r)
  done

let test_sub_underflow () =
  Alcotest.check_raises "underflow" (Invalid_argument "Nat.sub: underflow")
    (fun () -> ignore (Nat.sub Nat.one Nat.two))

let test_division_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Nat.divmod Nat.one Nat.zero))

let test_shift_roundtrip () =
  let g = Prng.of_int 4 in
  for _ = 1 to 200 do
    let a = big g 200 in
    let k = Prng.int g 100 in
    check nat "shift roundtrip" a (Nat.shift_right (Nat.shift_left a k) k)
  done

let test_shift_is_mul_pow2 () =
  let g = Prng.of_int 5 in
  for _ = 1 to 100 do
    let a = big g 150 in
    let k = Prng.int g 64 in
    check nat "shift = mul 2^k" (Nat.mul a (Nat.pow Nat.two k)) (Nat.shift_left a k)
  done

let test_bit_length () =
  check Alcotest.int "zero" 0 (Nat.bit_length Nat.zero);
  check Alcotest.int "one" 1 (Nat.bit_length Nat.one);
  check Alcotest.int "255" 8 (Nat.bit_length (n 255));
  check Alcotest.int "256" 9 (Nat.bit_length (n 256));
  check Alcotest.int "2^100" 101 (Nat.bit_length (Nat.pow Nat.two 100))

let test_testbit () =
  let v = n 0b101101 in
  let bits = List.init 8 (Nat.testbit v) in
  check (Alcotest.list Alcotest.bool) "bits"
    [ true; false; true; true; false; true; false; false ]
    bits

let test_pow () =
  check nat "2^10" (n 1024) (Nat.pow Nat.two 10);
  check nat "x^0" Nat.one (Nat.pow (n 999) 0);
  check nat "0^0" Nat.one (Nat.pow Nat.zero 0);
  check nat "0^5" Nat.zero (Nat.pow Nat.zero 5)

let test_mod_pow_cross_check () =
  let g = Prng.of_int 6 in
  for _ = 1 to 1000 do
    let b = Prng.int g 1000 and e = Prng.int g 30 and m = 2 + Prng.int g 1000 in
    let expected = ref 1 in
    for _ = 1 to e do
      expected := !expected * b mod m
    done;
    check Alcotest.int "mod_pow"
      !expected
      (Nat.to_int (Nat.mod_pow ~base:(n b) ~exp:(n e) ~modulus:(n m)))
  done

let test_mod_pow_fermat () =
  (* 2^(p-1) = 1 mod p for the 1024-bit Oakley prime. *)
  let p = Prime.oakley_group2 in
  check nat "fermat" Nat.one
    (Nat.mod_pow ~base:Nat.two ~exp:(Nat.sub p Nat.one) ~modulus:p)

let test_gcd () =
  check nat "gcd(12,18)" (n 6) (Nat.gcd (n 12) (n 18));
  check nat "gcd(a,0)" (n 7) (Nat.gcd (n 7) Nat.zero);
  check nat "gcd(0,a)" (n 7) (Nat.gcd Nat.zero (n 7));
  check nat "coprime" Nat.one (Nat.gcd (n 35) (n 64))

let test_mod_inverse () =
  let g = Prng.of_int 7 in
  for _ = 1 to 300 do
    let m = Nat.add (big g 120) Nat.two in
    let a = Nat.add (big g 120) Nat.one in
    match Nat.mod_inverse a m with
    | Some x ->
        check nat "a*x = 1 mod m" (Nat.rem Nat.one m)
          (Nat.rem (Nat.mul (Nat.rem a m) x) m)
    | None ->
        check Alcotest.bool "gcd > 1" false (Nat.is_one (Nat.gcd a m))
  done

let test_mod_inverse_known () =
  check (Alcotest.option nat) "3^-1 mod 7" (Some (n 5)) (Nat.mod_inverse (n 3) (n 7));
  check (Alcotest.option nat) "no inverse" None (Nat.mod_inverse (n 4) (n 8))


let test_to_int_boundary () =
  (* max_int itself round-trips; max_int+1 overflows *)
  check Alcotest.int "max_int" max_int (Nat.to_int (n max_int));
  let just_over = Nat.add (n max_int) Nat.one in
  check (Alcotest.option Alcotest.int) "max_int+1" None (Nat.to_int_opt just_over)

let test_shift_right_past_width () =
  check nat "beyond width" Nat.zero (Nat.shift_right (n 12345) 100);
  check nat "zero shifts" Nat.zero (Nat.shift_right Nat.zero 5)

let test_divmod_equal_operands () =
  let g = Prng.of_int 40 in
  for _ = 1 to 50 do
    let a = Nat.add (big g 200) Nat.one in
    let q, r = Nat.divmod a a in
    check nat "a/a = 1" Nat.one q;
    check nat "a mod a = 0" Nat.zero r;
    (* divisor one limb larger than dividend *)
    let b = Nat.add (Nat.shift_left a 31) Nat.one in
    let q2, r2 = Nat.divmod a b in
    check nat "small/big quotient" Nat.zero q2;
    check nat "small/big remainder" a r2
  done

(* --- serialization -------------------------------------------------- *)

let test_decimal_roundtrip () =
  let g = Prng.of_int 8 in
  for _ = 1 to 100 do
    let a = big g 400 in
    check nat "decimal" a (Nat.of_decimal (Nat.to_decimal a))
  done;
  check Alcotest.string "zero" "0" (Nat.to_decimal Nat.zero);
  check nat "leading zeros ok" (n 42) (Nat.of_decimal "0042")

let test_hex_roundtrip () =
  let g = Prng.of_int 9 in
  for _ = 1 to 100 do
    let a = big g 333 in
    check nat "hex" a (Nat.of_hex (Nat.to_hex a))
  done;
  check nat "upper case" (n 255) (Nat.of_hex "FF");
  Alcotest.check_raises "bad digit" (Invalid_argument "Nat.of_hex: bad digit")
    (fun () -> ignore (Nat.of_hex "xyz"))

let test_bytes_roundtrip () =
  let g = Prng.of_int 10 in
  for _ = 1 to 100 do
    let a = big g 250 in
    check nat "bytes" a (Nat.of_bytes_be (Nat.to_bytes_be a))
  done;
  check Alcotest.string "empty for zero" "" (Nat.to_bytes_be Nat.zero);
  check nat "known encoding" (n 0x0102) (Nat.of_bytes_be "\x01\x02")

let test_known_decimal () =
  (* 2^128 *)
  check Alcotest.string "2^128" "340282366920938463463374607431768211456"
    (Nat.to_decimal (Nat.pow Nat.two 128))

(* --- randomness ----------------------------------------------------- *)

let test_random_bits_width () =
  let g = Prng.of_int 11 in
  for _ = 1 to 200 do
    let v = Nat.random_bits g 64 in
    check Alcotest.bool "below 2^64" true (Nat.bit_length v <= 64)
  done

let test_random_below () =
  let g = Prng.of_int 12 in
  let bound = n 1000 in
  for _ = 1 to 1000 do
    check Alcotest.bool "below bound" true
      (Nat.compare (Nat.random_below g bound) bound < 0)
  done

(* --- primes --------------------------------------------------------- *)

let test_small_primes_list () =
  check Alcotest.int "first prime" 2 Prime.small_primes.(0);
  check Alcotest.bool "997 present" true
    (Array.exists (fun p -> p = 997) Prime.small_primes);
  check Alcotest.bool "1000 absent" false
    (Array.exists (fun p -> p >= 1000) Prime.small_primes)

let test_is_probably_prime_small () =
  let g = Prng.of_int 13 in
  let primes = [ 2; 3; 5; 7; 11; 101; 997; 7919 ] in
  let composites = [ 0; 1; 4; 9; 100; 561; 1001; 7917 ] in
  List.iter
    (fun p ->
      check Alcotest.bool (string_of_int p) true (Prime.is_probably_prime g (n p)))
    primes;
  List.iter
    (fun c ->
      check Alcotest.bool (string_of_int c) false (Prime.is_probably_prime g (n c)))
    composites

let test_carmichael_numbers () =
  (* Carmichael numbers fool Fermat but not Miller–Rabin. *)
  let g = Prng.of_int 14 in
  List.iter
    (fun c ->
      check Alcotest.bool (string_of_int c) false (Prime.is_probably_prime g (n c)))
    [ 561; 1105; 1729; 2465; 2821; 6601; 8911; 41041 ]

let test_generate_prime () =
  let g = Prng.of_int 15 in
  List.iter
    (fun bits ->
      let p = Prime.generate g ~bits in
      check Alcotest.int "exact width" bits (Nat.bit_length p);
      check Alcotest.bool "prime" true (Prime.is_probably_prime g p))
    [ 16; 32; 64; 128 ]

let test_generate_distinct_pair () =
  let g = Prng.of_int 16 in
  let p, q = Prime.generate_distinct_pair g ~bits:64 in
  check Alcotest.bool "distinct" false (Nat.equal p q)

let test_oakley_is_prime () =
  let g = Prng.of_int 17 in
  check Alcotest.int "1024 bits" 1024 (Nat.bit_length Prime.oakley_group2);
  check Alcotest.bool "prime" true
    (Prime.is_probably_prime ~rounds:4 g Prime.oakley_group2)

(* --- qcheck properties ---------------------------------------------- *)

let gen_nat =
  (* random naturals up to ~310 bits, skewed small *)
  QCheck.make
    ~print:(fun a -> Nat.to_decimal a)
    QCheck.Gen.(
      map2
        (fun seed bits ->
          let g = Prng.of_int seed in
          Nat.random_bits g bits)
        int (int_range 0 310))

let prop_add_comm =
  QCheck.Test.make ~name:"add commutative" ~count:300 (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a))

let prop_mul_comm =
  QCheck.Test.make ~name:"mul commutative" ~count:300 (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a))

let prop_mul_assoc =
  QCheck.Test.make ~name:"mul associative" ~count:200
    (QCheck.triple gen_nat gen_nat gen_nat) (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.mul b c)) (Nat.mul (Nat.mul a b) c))

let prop_distributive =
  QCheck.Test.make ~name:"mul distributes over add" ~count:200
    (QCheck.triple gen_nat gen_nat gen_nat) (fun (a, b, c) ->
      Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)))

let prop_divmod_identity =
  QCheck.Test.make ~name:"a = q*b + r, r < b" ~count:300
    (QCheck.pair gen_nat gen_nat) (fun (a, b) ->
      QCheck.assume (not (Nat.is_zero b));
      let q, r = Nat.divmod a b in
      Nat.equal a (Nat.add (Nat.mul q b) r) && Nat.compare r b < 0)

let prop_add_sub_roundtrip =
  QCheck.Test.make ~name:"(a+b)-b = a" ~count:300 (QCheck.pair gen_nat gen_nat)
    (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b))

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair gen_nat gen_nat) (fun (a, b) ->
      Nat.compare a b = -Nat.compare b a)

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:200 gen_nat (fun a ->
      Nat.equal a (Nat.of_decimal (Nat.to_decimal a)))

let prop_mod_pow_mul =
  (* (a*b) mod m = ((a mod m)*(b mod m)) mod m via mod_pow exp=1 paths *)
  QCheck.Test.make ~name:"mod_pow exponent addition" ~count:100
    (QCheck.triple gen_nat
       (QCheck.pair QCheck.(int_range 0 40) QCheck.(int_range 0 40))
       gen_nat)
    (fun (a, (e1, e2), m) ->
      QCheck.assume (Nat.compare m Nat.two >= 0);
      let pow e = Nat.mod_pow ~base:a ~exp:(Nat.of_int e) ~modulus:m in
      Nat.equal
        (Nat.rem (Nat.mul (pow e1) (pow e2)) m)
        (pow (e1 + e2)))

let () =
  Alcotest.run "bignum"
    [
      ( "nat-basics",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "of_int64" `Quick test_of_int64;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "bit_length" `Quick test_bit_length;
          Alcotest.test_case "testbit" `Quick test_testbit;
        ] );
      ( "nat-arith",
        [
          Alcotest.test_case "small cross-check" `Quick test_small_arith_cross_check;
          Alcotest.test_case "divmod cross-check" `Quick test_divmod_cross_check;
          Alcotest.test_case "sub underflow" `Quick test_sub_underflow;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "shift roundtrip" `Quick test_shift_roundtrip;
          Alcotest.test_case "shift = mul 2^k" `Quick test_shift_is_mul_pow2;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "mod_pow cross-check" `Quick test_mod_pow_cross_check;
          Alcotest.test_case "mod_pow fermat 1024" `Slow test_mod_pow_fermat;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "mod_inverse random" `Quick test_mod_inverse;
          Alcotest.test_case "mod_inverse known" `Quick test_mod_inverse_known;
          Alcotest.test_case "to_int boundary" `Quick test_to_int_boundary;
          Alcotest.test_case "shift past width" `Quick test_shift_right_past_width;
          Alcotest.test_case "divmod structure" `Quick test_divmod_equal_operands;
        ] );
      ( "nat-serialization",
        [
          Alcotest.test_case "decimal roundtrip" `Quick test_decimal_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "2^128 decimal" `Quick test_known_decimal;
        ] );
      ( "nat-random",
        [
          Alcotest.test_case "random_bits width" `Quick test_random_bits_width;
          Alcotest.test_case "random_below" `Quick test_random_below;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes table" `Quick test_small_primes_list;
          Alcotest.test_case "known primes/composites" `Quick
            test_is_probably_prime_small;
          Alcotest.test_case "carmichael numbers" `Quick test_carmichael_numbers;
          Alcotest.test_case "generate" `Quick test_generate_prime;
          Alcotest.test_case "distinct pair" `Quick test_generate_distinct_pair;
          Alcotest.test_case "oakley group 2" `Slow test_oakley_is_prime;
        ] );
      ( "properties",
        [
          qtest prop_add_comm;
          qtest prop_mul_comm;
          qtest prop_mul_assoc;
          qtest prop_distributive;
          qtest prop_divmod_identity;
          qtest prop_add_sub_roundtrip;
          qtest prop_compare_total_order;
          qtest prop_decimal_roundtrip;
          qtest prop_mod_pow_mul;
        ] );
    ]
