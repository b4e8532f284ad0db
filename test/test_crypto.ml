module Digest = Indaas_crypto.Digest
module Commutative = Indaas_crypto.Commutative
module Paillier = Indaas_crypto.Paillier
module Oracle = Indaas_crypto.Oracle
module Nat = Indaas_bignum.Nat
module Prng = Indaas_util.Prng

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest
let nat = Alcotest.testable Nat.pp Nat.equal

(* --- digest test vectors (RFC 1321, FIPS 180) ----------------------- *)

let md5_vectors =
  [
    ("", "d41d8cd98f00b204e9800998ecf8427e");
    ("a", "0cc175b9c0f1b6a831c399e269772661");
    ("abc", "900150983cd24fb0d6963f7d28e17f72");
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
    ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
      "d174ab98d277d9f5a5611c2c9f419d9f" );
    ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
      "57edf4a22be3c955ac49da2e2107b67a" );
  ]

let sha1_vectors =
  [
    ("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    ("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1" );
    ("The quick brown fox jumps over the lazy dog",
     "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
  ]

let sha256_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ("The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
  ]

let test_vectors name f vectors () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string (name ^ " " ^ String.escaped input) expected (f input))
    vectors

let test_long_input () =
  (* "a" x 10^6 — classic stress vector. *)
  let input = String.make 1_000_000 'a' in
  check Alcotest.string "md5 million a" "7707d6ae4e027c70eea2a935c2296f21"
    (Digest.md5_hex input);
  check Alcotest.string "sha1 million a" "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
    (Digest.sha1_hex input);
  check Alcotest.string "sha256 million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Digest.sha256_hex input)

(* Known answers for "x" repeated [len] times, from coreutils
   [head -c len /dev/zero | tr '\0' x | sha256sum]. The lengths sit on
   both sides of every tail-padding boundary: a 55-byte tail still
   fits its length field in one block, 56 needs a second one, and 64
   leaves no tail at all. *)
let padding_vectors =
  [
    (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    (1, "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881");
    (54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952");
    (55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072");
    (56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e");
    (57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217");
    (63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2");
    (64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
    (65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9");
    (111, "5ba60613dba318e9ed9020301e5dc59c721c19d82862e4d03718708aa75d2bad");
    (112, "87bf6e70ecc829aa717756ac6797b82de8b30fca1281ea1659df31949839fc6b");
    (119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c");
    (120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98");
    (127, "70156a14adbabf98cff3a71c7084b417abf057a8efd27329ca36b7202c87d81f");
    (128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464");
  ]

let test_padding_boundaries () =
  List.iter
    (fun (len, expected) ->
      check Alcotest.string
        (Printf.sprintf "sha256 of %d x" len)
        expected
        (Digest.sha256_hex (String.make len 'x')))
    padding_vectors

let test_output_lengths () =
  check Alcotest.int "md5" 16 (String.length (Digest.md5 "x"));
  check Alcotest.int "sha1" 20 (String.length (Digest.sha1 "x"));
  check Alcotest.int "sha256" 32 (String.length (Digest.sha256 "x"));
  check Alcotest.int "md5 decl" 16 (Digest.output_length Digest.MD5);
  check Alcotest.int "sha1 decl" 20 (Digest.output_length Digest.SHA1);
  check Alcotest.int "sha256 decl" 32 (Digest.output_length Digest.SHA256)

let test_to_hex () =
  check Alcotest.string "hex" "00ff10" (Digest.to_hex "\x00\xff\x10")

let test_fold_to_int64 () =
  check Alcotest.int64 "big-endian fold" 0x0102030405060708L
    (Digest.fold_to_int64 "\x01\x02\x03\x04\x05\x06\x07\x08tail");
  Alcotest.check_raises "short input"
    (Invalid_argument "Digest.fold_to_int64: too short") (fun () ->
      ignore (Digest.fold_to_int64 "abc"))

(* --- commutative encryption ----------------------------------------- *)

let with_params f () =
  let g = Prng.of_int 100 in
  let params = Commutative.params_pohlig_hellman ~bits:128 g in
  f g params

let test_commutativity =
  with_params (fun g params ->
      for _ = 1 to 20 do
        let k1 = Commutative.generate_key g params in
        let k2 = Commutative.generate_key g params in
        let m = Oracle.hash_to_group "payload" ~modulus:(Commutative.modulus params) in
        check nat "E2(E1(m)) = E1(E2(m))"
          (Commutative.encrypt params k2 (Commutative.encrypt params k1 m))
          (Commutative.encrypt params k1 (Commutative.encrypt params k2 m))
      done)

let test_decrypt_inverts =
  with_params (fun g params ->
      for i = 1 to 20 do
        let k = Commutative.generate_key g params in
        let m =
          Oracle.hash_to_group (Printf.sprintf "m%d" i)
            ~modulus:(Commutative.modulus params)
        in
        check nat "D(E(m)) = m" m (Commutative.decrypt params k (Commutative.encrypt params k m))
      done)

let test_decrypt_order_insensitive =
  with_params (fun g params ->
      let k1 = Commutative.generate_key g params in
      let k2 = Commutative.generate_key g params in
      let m = Oracle.hash_to_group "x" ~modulus:(Commutative.modulus params) in
      let c = Commutative.encrypt params k2 (Commutative.encrypt params k1 m) in
      (* strip in the opposite order of application *)
      check nat "strip k1 then k2" m
        (Commutative.decrypt params k2 (Commutative.decrypt params k1 c)))

let test_deterministic =
  with_params (fun g params ->
      let k = Commutative.generate_key g params in
      let m = Oracle.hash_to_group "det" ~modulus:(Commutative.modulus params) in
      check nat "same ciphertext" (Commutative.encrypt params k m)
        (Commutative.encrypt params k m))

let test_sra_scheme () =
  let g = Prng.of_int 101 in
  let params = Commutative.params_sra ~bits:128 g in
  let k1 = Commutative.generate_key g params in
  let k2 = Commutative.generate_key g params in
  let m = Oracle.hash_to_group "sra" ~modulus:(Commutative.modulus params) in
  check nat "commutes"
    (Commutative.encrypt params k2 (Commutative.encrypt params k1 m))
    (Commutative.encrypt params k1 (Commutative.encrypt params k2 m));
  check nat "inverts" m
    (Commutative.decrypt params k1 (Commutative.encrypt params k1 m))

let test_oakley_params () =
  check Alcotest.int "1024-bit modulus" 128
    (Commutative.modulus_bytes Commutative.params_oakley1024)

let test_ciphertext_to_string =
  with_params (fun g params ->
      let k = Commutative.generate_key g params in
      let m = Oracle.hash_to_group "wire" ~modulus:(Commutative.modulus params) in
      let c = Commutative.encrypt params k m in
      let s = Commutative.ciphertext_to_string params c in
      check Alcotest.int "fixed width" (Commutative.modulus_bytes params)
        (String.length s);
      check nat "roundtrip" c (Nat.of_bytes_be s))

(* --- Paillier -------------------------------------------------------- *)

let with_paillier f () =
  let g = Prng.of_int 200 in
  let kp = Paillier.generate ~bits:128 g in
  f g kp

let test_paillier_roundtrip =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      for i = 0 to 20 do
        let m = Nat.of_int (i * 991) in
        check nat "D(E(m)) = m" m (Paillier.decrypt kp (Paillier.encrypt g pk m))
      done)

let test_paillier_additive =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      for _ = 1 to 20 do
        let a = Prng.int g 10_000 and b = Prng.int g 10_000 in
        let ea = Paillier.encrypt g pk (Nat.of_int a) in
        let eb = Paillier.encrypt g pk (Nat.of_int b) in
        check nat "E(a)*E(b) decrypts to a+b" (Nat.of_int (a + b))
          (Paillier.decrypt kp (Paillier.add pk ea eb))
      done)

let test_paillier_scalar =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      for _ = 1 to 20 do
        let a = Prng.int g 10_000 and k = Prng.int g 50 in
        let ea = Paillier.encrypt g pk (Nat.of_int a) in
        check nat "E(a)^k decrypts to k*a" (Nat.of_int (k * a))
          (Paillier.decrypt kp (Paillier.scalar_mul pk (Nat.of_int k) ea))
      done)

let test_paillier_randomized =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      let e1 = Paillier.encrypt g pk (Nat.of_int 7) in
      let e2 = Paillier.encrypt g pk (Nat.of_int 7) in
      check Alcotest.bool "ciphertexts differ" false (Nat.equal e1 e2);
      check nat "rerandomize keeps plaintext" (Nat.of_int 7)
        (Paillier.decrypt kp (Paillier.rerandomize g pk e1)))

let test_paillier_zero =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      check nat "E(0)" Nat.zero (Paillier.decrypt kp (Paillier.encrypt_zero g pk)))

let test_paillier_mod_n =
  with_paillier (fun g kp ->
      let pk = kp.Paillier.public in
      let n = Paillier.plaintext_space pk in
      (* encrypting n+3 is the same plaintext as 3 *)
      check nat "reduction" (Nat.of_int 3)
        (Paillier.decrypt kp (Paillier.encrypt g pk (Nat.add n (Nat.of_int 3)))))

(* --- oracle ---------------------------------------------------------- *)

let test_hash_to_nat_width () =
  List.iter
    (fun bits ->
      let v = Oracle.hash_to_nat "input" ~bits in
      check Alcotest.bool
        (Printf.sprintf "fits %d bits" bits)
        true
        (Nat.bit_length v <= bits))
    [ 1; 8; 64; 128; 300; 1024 ]

let test_hash_to_nat_deterministic () =
  check nat "deterministic" (Oracle.hash_to_nat "x" ~bits:256)
    (Oracle.hash_to_nat "x" ~bits:256);
  check Alcotest.bool "input-sensitive" false
    (Nat.equal (Oracle.hash_to_nat "x" ~bits:256) (Oracle.hash_to_nat "y" ~bits:256))

let test_hash_to_group_range () =
  let g = Prng.of_int 300 in
  let modulus = Indaas_bignum.Prime.generate g ~bits:64 in
  for i = 1 to 200 do
    let v = Oracle.hash_to_group (string_of_int i) ~modulus in
    check Alcotest.bool "in [2, modulus-1]" true
      (Nat.compare v Nat.two >= 0 && Nat.compare v modulus < 0)
  done

let test_hash_int_keyed () =
  check Alcotest.bool "different seeds differ" false
    (Int64.equal (Oracle.hash_int ~seed:0 "e") (Oracle.hash_int ~seed:1 "e"));
  check Alcotest.int64 "deterministic" (Oracle.hash_int ~seed:5 "e")
    (Oracle.hash_int ~seed:5 "e")

(* --- qcheck properties ----------------------------------------------- *)

let prop_digest_deterministic =
  QCheck.Test.make ~name:"sha256 deterministic" ~count:200 QCheck.string
    (fun s -> String.equal (Digest.sha256 s) (Digest.sha256 s))

let prop_digest_injective_observed =
  QCheck.Test.make ~name:"sha256 distinct on distinct strings" ~count:200
    (QCheck.pair QCheck.string QCheck.string) (fun (a, b) ->
      QCheck.assume (a <> b);
      not (String.equal (Digest.sha256 a) (Digest.sha256 b)))

let prop_hex_length =
  QCheck.Test.make ~name:"hex doubles length" ~count:200 QCheck.string (fun s ->
      String.length (Digest.to_hex s) = 2 * String.length s)


(* --- qcheck: scheme-level properties -------------------------------------- *)

let shared_ph = lazy (Commutative.params_pohlig_hellman ~bits:128 (Prng.of_int 888))
let shared_sra = lazy (Commutative.params_sra ~bits:128 (Prng.of_int 889))

let prop_commutes_on_random_messages params_lazy name =
  QCheck.Test.make ~name ~count:30 QCheck.(pair small_int string)
    (fun (seed, payload) ->
      let params = Lazy.force params_lazy in
      let g = Prng.of_int seed in
      let k1 = Commutative.generate_key g params in
      let k2 = Commutative.generate_key g params in
      let m = Oracle.hash_to_group payload ~modulus:(Commutative.modulus params) in
      let c12 = Commutative.encrypt params k2 (Commutative.encrypt params k1 m) in
      let c21 = Commutative.encrypt params k1 (Commutative.encrypt params k2 m) in
      Nat.equal c12 c21
      && Nat.equal m
           (Commutative.decrypt params k1
              (Commutative.decrypt params k2 c12)))

let prop_paillier_homomorphic =
  QCheck.Test.make ~name:"paillier: E(a)*E(b) ~ a+b on random inputs" ~count:20
    QCheck.(triple small_int (int_bound 100_000) (int_bound 100_000))
    (fun (seed, a, b) ->
      let g = Prng.of_int seed in
      let kp = Paillier.generate ~bits:128 g in
      let pk = kp.Paillier.public in
      let ea = Paillier.encrypt g pk (Nat.of_int a) in
      let eb = Paillier.encrypt g pk (Nat.of_int b) in
      Nat.to_int (Paillier.decrypt kp (Paillier.add pk ea eb)) = a + b)

let () =
  Alcotest.run "crypto"
    [
      ( "digest",
        [
          Alcotest.test_case "md5 vectors" `Quick
            (test_vectors "md5" Digest.md5_hex md5_vectors);
          Alcotest.test_case "sha1 vectors" `Quick
            (test_vectors "sha1" Digest.sha1_hex sha1_vectors);
          Alcotest.test_case "sha256 vectors" `Quick
            (test_vectors "sha256" Digest.sha256_hex sha256_vectors);
          Alcotest.test_case "million a" `Slow test_long_input;
          Alcotest.test_case "padding boundaries" `Quick test_padding_boundaries;
          Alcotest.test_case "output lengths" `Quick test_output_lengths;
          Alcotest.test_case "to_hex" `Quick test_to_hex;
          Alcotest.test_case "fold_to_int64" `Quick test_fold_to_int64;
          qtest prop_digest_deterministic;
          qtest prop_digest_injective_observed;
          qtest prop_hex_length;
        ] );
      ( "commutative",
        [
          Alcotest.test_case "commutativity" `Quick test_commutativity;
          Alcotest.test_case "decrypt inverts" `Quick test_decrypt_inverts;
          Alcotest.test_case "decrypt order-insensitive" `Quick
            test_decrypt_order_insensitive;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "SRA scheme" `Quick test_sra_scheme;
          Alcotest.test_case "oakley params" `Quick test_oakley_params;
          Alcotest.test_case "wire format" `Quick test_ciphertext_to_string;
        ] );
      ( "paillier",
        [
          Alcotest.test_case "roundtrip" `Quick test_paillier_roundtrip;
          Alcotest.test_case "additive" `Quick test_paillier_additive;
          Alcotest.test_case "scalar mult" `Quick test_paillier_scalar;
          Alcotest.test_case "randomized" `Quick test_paillier_randomized;
          Alcotest.test_case "zero" `Quick test_paillier_zero;
          Alcotest.test_case "mod n reduction" `Quick test_paillier_mod_n;
        ] );
      ( "scheme-properties",
        [
          qtest (prop_commutes_on_random_messages shared_ph "pohlig-hellman commutes randomly");
          qtest (prop_commutes_on_random_messages shared_sra "SRA commutes randomly");
          qtest prop_paillier_homomorphic;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "hash_to_nat width" `Quick test_hash_to_nat_width;
          Alcotest.test_case "hash_to_nat deterministic" `Quick
            test_hash_to_nat_deterministic;
          Alcotest.test_case "hash_to_group range" `Quick test_hash_to_group_range;
          Alcotest.test_case "hash_int keyed" `Quick test_hash_int_keyed;
        ] );
    ]
