(* Tests for Lsm_bloom: hashing, standard and blocked Bloom filters. *)

open Lsm_bloom

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Hashing *)

(* The probe positions as they were computed per probe, hashing the key
   twice for every one of the [k] probes; kept as the oracle of the
   hash-once positions. *)
let per_probe_double_hash h i =
  Hashing.mix64 h + (i * (Hashing.mix64 (h lxor 0x5851F42D4C957F2D) lor 1))

let prop_positions_hash_once =
  qtest ~count:500 "hash-once probe positions = per-probe double hashing"
    QCheck2.Gen.(
      quad int (int_range 8 50_000_000) (int_range 1 24) (int_range 1 100_000))
    (fun (h, m, k, nblocks) ->
      let h1 = Hashing.h1 h and h2 = Hashing.h2 h in
      List.for_all
        (fun i ->
          Bloom.position ~m h1 h2 i
          = per_probe_double_hash h i land max_int mod m
          && Blocked_bloom.position ~nblocks h1 h2 i
             = (Hashing.mix64 h land max_int mod nblocks * Blocked_bloom.block_bits)
               + (per_probe_double_hash h (i + 1) land max_int
                 mod Blocked_bloom.block_bits))
        (List.init k Fun.id))

let test_mix64_bijective_ish () =
  (* Distinct small ints must hash to distinct values (mix64 is a
     bijection on 64 bits, so collisions here would be a bug). *)
  let seen = Hashtbl.create 1000 in
  for i = 0 to 10_000 do
    let h = Hashing.mix64 i in
    Alcotest.(check bool) "no collision" false (Hashtbl.mem seen h);
    Hashtbl.add seen h ()
  done

let test_hash_string_differs () =
  Alcotest.(check bool) "different strings differ" true
    (Hashing.hash_string "hello" <> Hashing.hash_string "hellp");
  Alcotest.(check int) "stable" (Hashing.hash_string "x") (Hashing.hash_string "x")

let test_combine_order_sensitive () =
  Alcotest.(check bool) "order matters" true
    (Hashing.combine 1 2 <> Hashing.combine 2 1)

(* ------------------------------------------------------------------ *)
(* Standard Bloom filter *)

let prop_no_false_negatives =
  qtest "standard: no false negatives"
    QCheck2.Gen.(list_size (int_range 0 500) (int_range 0 1_000_000))
    (fun keys ->
      let f = Bloom.create ~expected:(max 1 (List.length keys)) ~fpr:0.01 in
      List.iter (fun k -> Bloom.add f (Hashing.mix64 k)) keys;
      List.for_all (fun k -> Bloom.contains f (Hashing.mix64 k)) keys)

let test_fpr_near_target () =
  let n = 20_000 in
  let f = Bloom.create ~expected:n ~fpr:0.01 in
  for i = 0 to n - 1 do
    Bloom.add f (Hashing.mix64 i)
  done;
  let fp = ref 0 in
  let probes = 50_000 in
  for i = 0 to probes - 1 do
    if Bloom.contains f (Hashing.mix64 (1_000_000 + i)) then incr fp
  done;
  let rate = Float.of_int !fp /. Float.of_int probes in
  Alcotest.(check bool)
    (Printf.sprintf "fpr %.4f in [0, 0.03]" rate)
    true (rate < 0.03)

let test_bloom_params () =
  let m, k = Bloom.params ~expected:1000 ~fpr:0.01 in
  (* ~9.6 bits/key, k ~= 7 *)
  Alcotest.(check bool) "m in range" true (m > 9_000 && m < 10_500);
  Alcotest.(check int) "k" 7 k

let test_bloom_probe_costs () =
  let f = Bloom.create ~expected:100 ~fpr:0.01 in
  Alcotest.(check int) "k lines" (Bloom.k f) (Bloom.cache_lines_per_probe f);
  Alcotest.(check int) "2 hashes" 2 (Bloom.hashes_per_probe f)

(* ------------------------------------------------------------------ *)
(* Blocked Bloom filter *)

let prop_blocked_no_false_negatives =
  qtest "blocked: no false negatives"
    QCheck2.Gen.(list_size (int_range 0 500) (int_range 0 1_000_000))
    (fun keys ->
      let f =
        Blocked_bloom.create ~expected:(max 1 (List.length keys)) ~fpr:0.01
      in
      List.iter (fun k -> Blocked_bloom.add f (Hashing.mix64 k)) keys;
      List.for_all (fun k -> Blocked_bloom.contains f (Hashing.mix64 k)) keys)

let test_blocked_fpr_reasonable () =
  let n = 20_000 in
  let f = Blocked_bloom.create ~expected:n ~fpr:0.01 in
  for i = 0 to n - 1 do
    Blocked_bloom.add f (Hashing.mix64 i)
  done;
  let fp = ref 0 in
  let probes = 50_000 in
  for i = 0 to probes - 1 do
    if Blocked_bloom.contains f (Hashing.mix64 (1_000_000 + i)) then incr fp
  done;
  let rate = Float.of_int !fp /. Float.of_int probes in
  (* Blocked filters trade some FPR for locality; allow slack. *)
  Alcotest.(check bool)
    (Printf.sprintf "fpr %.4f < 0.05" rate)
    true (rate < 0.05)

let test_blocked_single_cache_line () =
  let f = Blocked_bloom.create ~expected:100 ~fpr:0.01 in
  Alcotest.(check int) "1 line" 1 (Blocked_bloom.cache_lines_per_probe f)

let test_blocked_extra_bit_per_key () =
  let n = 10_000 in
  let std = Bloom.create ~expected:n ~fpr:0.01 in
  let blk = Blocked_bloom.create ~expected:n ~fpr:0.01 in
  let extra_bits = (Blocked_bloom.bit_count blk - Bloom.bit_count std) in
  (* At least one extra bit per key (plus block rounding). *)
  Alcotest.(check bool) "extra bits" true (extra_bits >= n)

(* ------------------------------------------------------------------ *)
(* Unified filter interface *)

let test_filter_dispatch () =
  List.iter
    (fun kind ->
      let f = Filter.create kind ~expected:100 ~fpr:0.01 in
      Filter.add f (Hashing.mix64 42);
      Alcotest.(check bool) "present" true (Filter.contains f (Hashing.mix64 42));
      Alcotest.(check bool) "lines >= 1" true (Filter.cache_lines_per_probe f >= 1))
    [ `Standard; `Blocked ];
  let std = Filter.create `Standard ~expected:100 ~fpr:0.01 in
  let blk = Filter.create `Blocked ~expected:100 ~fpr:0.01 in
  Alcotest.(check bool) "blocked cheaper probes" true
    (Filter.cache_lines_per_probe blk < Filter.cache_lines_per_probe std)

let () =
  Alcotest.run "lsm_bloom"
    [
      ( "hashing",
        [
          Alcotest.test_case "mix64 injective on range" `Quick
            test_mix64_bijective_ish;
          Alcotest.test_case "hash_string" `Quick test_hash_string_differs;
          Alcotest.test_case "combine order" `Quick test_combine_order_sensitive;
          prop_positions_hash_once;
        ] );
      ( "standard",
        [
          prop_no_false_negatives;
          Alcotest.test_case "fpr near target" `Quick test_fpr_near_target;
          Alcotest.test_case "params" `Quick test_bloom_params;
          Alcotest.test_case "probe costs" `Quick test_bloom_probe_costs;
        ] );
      ( "blocked",
        [
          prop_blocked_no_false_negatives;
          Alcotest.test_case "fpr reasonable" `Quick test_blocked_fpr_reasonable;
          Alcotest.test_case "one cache line" `Quick test_blocked_single_cache_line;
          Alcotest.test_case "extra bit per key" `Quick
            test_blocked_extra_bit_per_key;
        ] );
      ("filter", [ Alcotest.test_case "dispatch" `Quick test_filter_dispatch ]);
    ]
