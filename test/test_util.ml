(* Tests for Lsm_util: RNG, Zipf, search primitives, bitsets, sorter, heap. *)

open Lsm_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Rng.bits a = Rng.bits b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let test_rng_int_in_range () =
  let r = Rng.create 7 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range r ~lo:10 ~hi:14 in
    Alcotest.(check bool) "in range" true (v >= 10 && v <= 14);
    seen.(v - 10) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let r = Rng.create 3 in
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_uniformity () =
  (* Chi-square-ish sanity: 10 buckets over 100k draws stay within 5%. *)
  let r = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int r 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let frac = Float.of_int c /. Float.of_int n in
      Alcotest.(check bool) "bucket near 0.1" true (frac > 0.085 && frac < 0.115))
    buckets

let test_rng_shuffle_permutes () =
  let r = Rng.create 5 in
  let a = Array.init 50 Fun.id in
  let b = Array.copy a in
  Rng.shuffle r b;
  let sb = Array.copy b in
  Array.sort compare sb;
  Alcotest.(check bool) "same multiset" true (sb = a);
  Alcotest.(check bool) "actually moved" true (b <> a)

(* ------------------------------------------------------------------ *)
(* Zipf *)

let test_zipf_bounds () =
  let r = Rng.create 9 in
  let z = Zipf.create ~theta:0.99 1000 in
  for _ = 1 to 10_000 do
    let v = Zipf.sample r z in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 1000)
  done

let test_zipf_skew () =
  let r = Rng.create 13 in
  let z = Zipf.create ~theta:0.99 10_000 in
  let hot = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Zipf.sample r z < 100 then incr hot
  done;
  (* Under uniform, 100/10000 = 1% of draws; Zipf 0.99 concentrates far
     more mass on the head. *)
  let frac = Float.of_int !hot /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "head heavy (%.3f)" frac)
    true (frac > 0.30)

let test_zipf_extend_matches_fresh () =
  (* Growing 100 -> 1000 must yield the same constants as creating at
     1000 directly; we check behaviour via bounds and head mass. *)
  let z1 = Zipf.create ~theta:0.99 100 in
  Zipf.extend z1 1000;
  let z2 = Zipf.create ~theta:0.99 1000 in
  let r1 = Rng.create 21 and r2 = Rng.create 21 in
  for _ = 1 to 5_000 do
    Alcotest.(check int) "same samples" (Zipf.sample r2 z2) (Zipf.sample r1 z1)
  done

let prop_zipf_extend_exact =
  (* The incremental-zeta invariant, exactly: growing n -> m (possibly in
     several steps) lands on bit-identical zetan/eta — and therefore an
     identical sample stream — as create ~theta m from scratch.  zeta_range
     sums terms in the same order either way, so this is float equality,
     not approximation. *)
  qtest ~count:100 "extend n->m = create m (zetan, eta, samples)"
    QCheck2.Gen.(
      triple
        (triple (int_range 1 500) (int_range 0 500) (int_range 0 500))
        (float_range 0.3 0.99) (int_range 0 1000))
    (fun ((n, g1, g2), theta, seed) ->
      let m1 = n + g1 in
      let m2 = m1 + g2 in
      let grown = Zipf.create ~theta n in
      Zipf.extend grown m1;
      Zipf.extend grown m2;
      let fresh = Zipf.create ~theta m2 in
      Zipf.cardinality grown = Zipf.cardinality fresh
      && Zipf.zetan grown = Zipf.zetan fresh
      && Zipf.eta grown = Zipf.eta fresh
      &&
      let r1 = Rng.create seed and r2 = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 200 do
        if Zipf.sample r1 grown <> Zipf.sample r2 fresh then ok := false
      done;
      !ok)

let test_zipf_latest () =
  let r = Rng.create 17 in
  let z = Zipf.create ~theta:0.99 10_000 in
  let hot = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Zipf.sample_latest r z >= 9_900 then incr hot
  done;
  Alcotest.(check bool) "tail (recent ids) heavy" true
    (Float.of_int !hot /. Float.of_int n > 0.30)

(* ------------------------------------------------------------------ *)
(* Search *)

let sorted_array_gen =
  QCheck2.Gen.(
    map
      (fun l -> Array.of_list (List.sort compare l))
      (list_size (int_range 0 200) (int_range 0 100)))

let check_lower_bound a key =
  let cost = ref 0 in
  let i =
    Search.lower_bound ~cost a [||] ~lo:0 ~hi:(Array.length a) key 0
  in
  let ok_left = Array.for_all (fun _ -> true) a in
  ignore ok_left;
  let ok =
    (i = Array.length a || a.(i) >= key)
    && (i = 0 || a.(i - 1) < key)
  in
  ok

let prop_lower_bound =
  qtest "lower_bound correct"
    QCheck2.Gen.(pair sorted_array_gen (int_range (-10) 110))
    (fun (a, key) -> check_lower_bound a key)

let prop_upper_bound =
  qtest "upper_bound correct"
    QCheck2.Gen.(pair sorted_array_gen (int_range (-10) 110))
    (fun (a, key) ->
      let cost = ref 0 in
      let i =
        Search.upper_bound ~cost a [||] ~lo:0 ~hi:(Array.length a) key 0
      in
      (i = Array.length a || a.(i) > key) && (i = 0 || a.(i - 1) <= key))

let prop_exponential_equals_binary =
  qtest "exponential = binary from any start"
    QCheck2.Gen.(triple sorted_array_gen (int_range (-10) 110) (int_range 0 220))
    (fun (a, key, start) ->
      let n = Array.length a in
      let c1 = ref 0 and c2 = ref 0 in
      let i1 = Search.lower_bound ~cost:c1 a [||] ~lo:0 ~hi:n key 0 in
      let i2 =
        Search.exponential_lower_bound ~cost:c2 a [||] ~lo:0 ~hi:n
          ~start:(min start n) key 0
      in
      i1 = i2)

let test_exponential_cheap_nearby () =
  (* Searching a key adjacent to the start position must cost far fewer
     comparisons than a cold binary search on a large array. *)
  let a = Array.init 100_000 (fun i -> i * 2) in
  let c_exp = ref 0 and c_bin = ref 0 in
  let i =
    Search.exponential_lower_bound ~cost:c_exp a [||] ~lo:0
      ~hi:(Array.length a) ~start:50_000 100_006 0
  in
  Alcotest.(check int) "found" 50_003 i;
  let j =
    Search.lower_bound ~cost:c_bin a [||] ~lo:0 ~hi:(Array.length a) 100_006 0
  in
  Alcotest.(check int) "same index" i j;
  Alcotest.(check bool)
    (Printf.sprintf "cheaper (%d < %d)" !c_exp !c_bin)
    true
    (!c_exp < !c_bin)

(* Duplicate-heavy arrays (domain 0..20 over up to 200 elements) stress
   the gallop's handling of equal runs, and a raw start in [-3, n+3]
   checks the internal clamping to [lo, hi]. *)
let dup_array_gen =
  QCheck2.Gen.(
    map
      (fun l -> Array.of_list (List.sort compare l))
      (list_size (int_range 0 200) (int_range 0 20)))

let prop_exponential_dups_any_start =
  qtest ~count:500 "exponential = binary (dups, unclamped start)"
    QCheck2.Gen.(
      triple dup_array_gen (int_range (-5) 25) (int_range (-3) 203))
    (fun (a, key, start) ->
      let n = Array.length a in
      let c1 = ref 0 and c2 = ref 0 in
      let i1 = Search.lower_bound ~cost:c1 a [||] ~lo:0 ~hi:n key 0 in
      let i2 =
        Search.exponential_lower_bound ~cost:c2 a [||] ~lo:0 ~hi:n ~start key
          0
      in
      i1 = i2)

let prop_exponential_cost_ceiling =
  (* Bentley-Yao: the gallop probes O(log d) positions (d = distance from
     the clamped start to the answer) and finishes with a binary search
     over a window of at most 2d elements, so total comparisons are
     bounded by c1*log2(d) + c2*log2(n) + c3 for small constants.  The
     ceiling below is deliberately generous — it catches an accidental
     downgrade to linear probing or repeated full binary searches, not
     constant-factor drift. *)
  qtest ~count:500 "exponential comparison ceiling"
    QCheck2.Gen.(
      triple sorted_array_gen (int_range (-10) 110) (int_range (-3) 203))
    (fun (a, key, start) ->
      let n = Array.length a in
      let cost = ref 0 in
      let i =
        Search.exponential_lower_bound ~cost a [||] ~lo:0 ~hi:n ~start key 0
      in
      let s = max 0 (min n start) in
      let d = abs (i - s) in
      let log2 x = log (float_of_int (x + 2)) /. log 2.0 in
      let ceiling = (2.0 *. log2 d) +. log2 n +. 6.0 in
      float_of_int !cost <= ceiling)

(* The gallop as recursive local closures, before it became loops that
   allocate nothing; kept as the oracle of its answers and of the number
   of comparisons it makes.  It runs over (key, pk) columns: positions
   with equal keys are ordered by pk, as in a secondary index. *)
let closure_exponential_lower_bound ~cost keys pks ~lo ~hi ~start key pk =
  let cmp i = Search.compare_at keys pks i key pk in
  let start = if start < lo then lo else if start > hi then hi else start in
  if start >= hi || (incr cost; cmp start >= 0) then
    let rec back step high =
      let probe = start - step in
      if probe <= lo then Search.lower_bound ~cost keys pks ~lo ~hi:high key pk
      else if (incr cost; cmp probe >= 0) then back (step * 2) probe
      else Search.lower_bound ~cost keys pks ~lo:(probe + 1) ~hi:high key pk
    in
    back 1 start
  else
    let rec fwd step low =
      let probe = start + step in
      if probe >= hi then Search.lower_bound ~cost keys pks ~lo:(low + 1) ~hi key pk
      else if (incr cost; cmp probe < 0) then fwd (step * 2) probe
      else Search.lower_bound ~cost keys pks ~lo:(low + 1) ~hi:probe key pk
    in
    fwd 1 start

(* Sorted (key, pk) columns with few distinct keys, so ties on the key
   are common and the pk decides. *)
let pair_columns_gen =
  QCheck2.Gen.(
    map
      (fun l ->
        let a = Array.of_list (List.sort compare l) in
        (Array.map fst a, Array.map snd a))
      (list_size (int_range 0 200) (pair (int_range 0 20) (int_range 0 5))))

let prop_exponential_loops_equal_closures =
  qtest ~count:500 "exponential gallop loops = closure gallop (answer, comparisons)"
    QCheck2.Gen.(
      quad pair_columns_gen
        (pair (int_range (-5) 25) (int_range (-1) 6))
        (int_range (-3) 203)
        (triple bool (int_range 0 10) (int_range 0 10)))
    (fun ((keys, pks), (key, pk), start, (tie_break, dlo, dhi)) ->
      let pks = if tie_break then pks else [||] in
      let n = Array.length keys in
      let lo = min dlo n in
      let hi = max lo (n - dhi) in
      let run search =
        let cost = ref 0 in
        let i = search ~cost keys pks ~lo ~hi ~start key pk in
        (i, !cost)
      in
      let ((i, _) as loops) = run Search.exponential_lower_bound in
      loops = run closure_exponential_lower_bound
      && (i = hi || Search.compare_at keys pks i key pk >= 0)
      && (i = lo || Search.compare_at keys pks (i - 1) key pk < 0))

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let b = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.count b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 99;
  Alcotest.(check bool) "get 0" true (Bitset.get b 0);
  Alcotest.(check bool) "get 1" false (Bitset.get b 1);
  Alcotest.(check bool) "get 99" true (Bitset.get b 99);
  Alcotest.(check int) "count" 3 (Bitset.count b);
  Bitset.clear b 63;
  Alcotest.(check bool) "cleared" false (Bitset.get b 63);
  Alcotest.(check int) "count after clear" 2 (Bitset.count b)

let test_bitset_copy_independent () =
  let b = Bitset.create 10 in
  Bitset.set b 3;
  let c = Bitset.copy b in
  Bitset.set b 5;
  Alcotest.(check bool) "copy has 3" true (Bitset.get c 3);
  Alcotest.(check bool) "copy lacks 5" false (Bitset.get c 5)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b 8)

let test_bitset_iter () =
  let b = Bitset.create 20 in
  List.iter (Bitset.set b) [ 1; 7; 19 ];
  let acc = ref [] in
  Bitset.iter_set b (fun i -> acc := i :: !acc);
  Alcotest.(check (list int)) "iter order" [ 1; 7; 19 ] (List.rev !acc)

let prop_bitset_model =
  qtest "bitset matches boolean-array model"
    QCheck2.Gen.(list_size (int_range 0 300) (pair (int_range 0 63) bool))
    (fun ops ->
      let b = Bitset.create 64 in
      let model = Array.make 64 false in
      List.iter
        (fun (i, set) ->
          if set then (Bitset.set b i; model.(i) <- true)
          else (Bitset.clear b i; model.(i) <- false))
        ops;
      let ok = ref true in
      for i = 0 to 63 do
        if Bitset.get b i <> model.(i) then ok := false
      done;
      !ok && Bitset.count b = Array.fold_left (fun a x -> if x then a + 1 else a) 0 model)

(* ------------------------------------------------------------------ *)
(* Sorter *)

let test_sorter_counts () =
  let cost = ref 0 in
  let a = [| 5; 3; 1; 4; 2 |] in
  Sorter.sort ~cmp:compare ~cost a;
  Alcotest.(check bool) "sorted" true (Sorter.is_sorted ~cmp:compare a);
  Alcotest.(check bool) "counted" true (!cost > 0)

let test_dedup_sorted () =
  let a = [| 1; 1; 2; 3; 3; 3; 4 |] in
  Alcotest.(check (array int))
    "dedup" [| 1; 2; 3; 4 |]
    (Sorter.dedup_sorted ~eq:( = ) a);
  Alcotest.(check (array int)) "empty" [||] (Sorter.dedup_sorted ~eq:( = ) [||])

(* ------------------------------------------------------------------ *)
(* Kmerge *)

let prop_kmerge =
  qtest "kmerge: stable (key, source) order, lazy pulls"
    QCheck2.Gen.(
      list_size (int_range 0 6) (list_size (int_range 0 40) (int_range 0 20)))
    (fun lists ->
      let srcs = Array.of_list (List.map (List.sort compare) lists) in
      let k = Array.length srcs in
      let rest = Array.copy srcs in
      let head = Array.make k (-1) in
      let exhausted = Array.make k false in
      let pulled = ref [] in
      let ok = ref true in
      let pull s =
        (* A pull after [false] breaks the contract. *)
        if exhausted.(s) then ok := false;
        pulled := s :: !pulled;
        match rest.(s) with
        | [] ->
            exhausted.(s) <- true;
            false
        | x :: tl ->
            rest.(s) <- tl;
            head.(s) <- x;
            true
      in
      let cmp a b =
        (* Only live heads are compared. *)
        if exhausted.(a) || exhausted.(b) then ok := false;
        Int.compare head.(a) head.(b)
      in
      let m = Kmerge.create ~compare:cmp ~pull k in
      (* Creation pulls each source's head once, in source order. *)
      if List.rev !pulled <> List.init k Fun.id then ok := false;
      let out = ref [] in
      while Kmerge.top m >= 0 do
        pulled := [];
        let s = Kmerge.top m in
        let x = head.(s) in
        (* Reading the top pulls nothing. *)
        if !pulled <> [] then ok := false;
        let next = Kmerge.advance m in
        (* Only the top source refills, inside [advance], which returns
           the new top. *)
        if !pulled <> [ s ] || next <> Kmerge.top m then ok := false;
        out := (x, s) :: !out
      done;
      (match Kmerge.advance m with
      | _ -> ok := false
      | exception Invalid_argument _ -> ());
      let expected =
        List.sort compare
          (List.concat
             (List.mapi (fun s l -> List.map (fun x -> (x, s)) l) lists))
      in
      !ok && List.rev !out = expected)

(* A two-way merge written against plain streams: after a pull that
   leaves both heads live, one [compare new_head other_head]; source 0
   wins ties.  It is the loop a reconciling scan of memory against at most
   one disk component once ran inline, and the simulated charges of such
   scans are pinned to it: Kmerge on the same one or two sources must
   yield the same (source, element) sequence and make the same [compare]
   calls, operand pair for operand pair. *)
let two_way ~compare s0 s1 ~emit =
  let h0 = ref (s0 ()) in
  let h1 = ref (s1 ()) in
  let first0 =
    ref
      (match (!h0, !h1) with
      | Some x0, Some x1 -> not (compare x1 x0 < 0)
      | _ -> true)
  in
  let rec loop () =
    match (!h0, !h1) with
    | None, None -> ()
    | Some x0, h when Option.is_none h || !first0 ->
        h0 := s0 ();
        (match (!h0, !h1) with
        | Some n0, Some x1 -> first0 := compare n0 x1 <= 0
        | _ -> ());
        emit 0 x0;
        loop ()
    | _, Some x1 ->
        h1 := s1 ();
        (match (!h0, !h1) with
        | Some x0, Some n1 -> first0 := not (compare n1 x0 < 0)
        | _ -> ());
        emit 1 x1;
        loop ()
    | Some _, None -> assert false
  in
  loop ()

let prop_two_way_is_kmerge =
  qtest "two-way merge = kmerge on <= 2 sources: output and compare calls"
    QCheck2.Gen.(
      list_size (int_range 0 2)
        (list_size (int_range 0 30) (pair (int_range 0 12) (int_range 0 99))))
    (fun lists ->
      (* Elements are (key, tag): equal keys, distinguishable elements. *)
      let srcs =
        Array.of_list
          (List.map (List.sort (fun (a, _) (b, _) -> Int.compare a b)) lists)
      in
      let run merge =
        let calls = ref [] and out = ref [] in
        let compare ((a, _) as x) ((b, _) as y) =
          calls := (x, y) :: !calls;
          Int.compare a b
        in
        let stream s =
          let rest = ref (if s < Array.length srcs then srcs.(s) else []) in
          fun () ->
            match !rest with
            | [] -> None
            | x :: tl ->
                rest := tl;
                Some x
        in
        merge ~compare stream (fun s x -> out := (s, x) :: !out);
        (List.rev !out, List.rev !calls)
      in
      let via_kmerge ~compare stream emit =
        let k = Array.length srcs in
        let next = Array.init k stream in
        let head = Array.make k (0, 0) in
        let m =
          Kmerge.create k
            ~compare:(fun a b -> compare head.(a) head.(b))
            ~pull:(fun s ->
              match next.(s) () with
              | Some x ->
                  head.(s) <- x;
                  true
              | None -> false)
        in
        let rec drain s =
          if s >= 0 then begin
            let x = head.(s) in
            let next = Kmerge.advance m in
            emit s x;
            drain next
          end
        in
        drain (Kmerge.top m)
      in
      let via_two_way ~compare stream emit =
        two_way ~compare (stream 0) (stream 1) ~emit
      in
      run via_kmerge = run via_two_way)

let () =
  Alcotest.run "lsm_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutes;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "bounds" `Quick test_zipf_bounds;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
          Alcotest.test_case "extend = fresh" `Quick test_zipf_extend_matches_fresh;
          prop_zipf_extend_exact;
          Alcotest.test_case "latest skew" `Quick test_zipf_latest;
        ] );
      ( "search",
        [
          prop_lower_bound;
          prop_upper_bound;
          prop_exponential_equals_binary;
          prop_exponential_dups_any_start;
          prop_exponential_cost_ceiling;
          prop_exponential_loops_equal_closures;
          Alcotest.test_case "exponential cheap nearby" `Quick
            test_exponential_cheap_nearby;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "copy" `Quick test_bitset_copy_independent;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "iter_set" `Quick test_bitset_iter;
          prop_bitset_model;
        ] );
      ( "sorter",
        [
          Alcotest.test_case "sort counts" `Quick test_sorter_counts;
          Alcotest.test_case "dedup_sorted" `Quick test_dedup_sorted;
        ] );
      ("kmerge", [ prop_kmerge; prop_two_way_is_kmerge ]);
    ]
