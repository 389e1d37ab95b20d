(* Tests for Lsm_btree: the mutable in-memory B+-tree and the immutable
   disk B+-tree (stateless find, stateful cursor, scans). *)

module Mbt = Lsm_btree.Mem_btree
module Dbt = Lsm_btree.Disk_btree
module IntMap = Map.Make (Int)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Mem_btree *)

let test_mbt_empty () =
  let t = Mbt.create () in
  Alcotest.(check int) "len" 0 (Mbt.length t);
  Alcotest.(check bool) "empty" true (Mbt.is_empty t);
  Alcotest.(check (option int)) "find" None (Mbt.find t 5 5);
  Alcotest.(check int) "no bindings" 0 (Array.length (Mbt.to_sorted_array t))

let test_mbt_put_find () =
  let t = Mbt.create () in
  Alcotest.(check (option int)) "fresh" None (Mbt.put t 1 1 ~ts:5 ~fkey:0 10);
  Alcotest.(check (option int)) "replace" (Some 10) (Mbt.put t 1 1 ~ts:6 ~fkey:0 11);
  Alcotest.(check (option int)) "find" (Some 11) (Mbt.find t 1 1);
  Alcotest.(check int) "found ts" 6 (Mbt.found_ts t);
  Alcotest.(check int) "len" 1 (Mbt.length t)

let test_mbt_many_sorted_iteration () =
  let t = Mbt.create () in
  let rng = Lsm_util.Rng.create 1 in
  let keys = Array.init 2000 (fun _ -> Lsm_util.Rng.int rng 1_000_000) in
  Array.iter (fun k -> ignore (Mbt.put t k k ~ts:(k + 1) ~fkey:0 (k * 2))) keys;
  let sorted = List.sort_uniq compare (Array.to_list keys) in
  Alcotest.(check int) "distinct count" (List.length sorted) (Mbt.length t);
  let out =
    Array.to_list
      (Array.map
         (fun (k, _, ts, v) ->
           Alcotest.(check int) "value" (k * 2) v;
           Alcotest.(check int) "ts" (k + 1) ts;
           k)
         (Mbt.to_sorted_array t))
  in
  Alcotest.(check (list int)) "in order" sorted out

let prop_mbt_matches_map =
  qtest ~count:100 "mem btree = Map model"
    QCheck2.Gen.(list_size (int_range 0 500) (pair (int_range 0 100) (int_range 0 1000)))
    (fun ops ->
      let t = Mbt.create () in
      let m = ref IntMap.empty in
      List.iteri
        (fun ts (k, v) ->
          let prev = Mbt.put t k k ~ts ~fkey:0 v in
          let mprev = Option.map snd (IntMap.find_opt k !m) in
          m := IntMap.add k (ts, v) !m;
          assert (prev = mprev))
        ops;
      IntMap.cardinal !m = Mbt.length t
      && IntMap.for_all
           (fun k (ts, v) -> Mbt.find t k k = Some v && Mbt.found_ts t = ts)
           !m
      && Mbt.to_sorted_array t
         = Array.of_list
             (List.map (fun (k, (ts, v)) -> (k, k, ts, v)) (IntMap.bindings !m)))

let test_mbt_comparison_counter () =
  let t = Mbt.create () in
  for i = 0 to 100 do
    ignore (Mbt.put t i i ~ts:i ~fkey:0 i)
  done;
  ignore (Mbt.take_comparisons t);
  ignore (Mbt.find t 50 50);
  let c = Mbt.take_comparisons t in
  Alcotest.(check bool) "counted some" true (c > 0);
  Alcotest.(check int) "drained" 0 (Mbt.take_comparisons t)

(* Random memtables: puts, with removes mixed in so some leaves underflow
   or empty out, and a random seek bound. *)
let gen_table_and_lo =
  QCheck2.Gen.(
    pair
      (list_size (int_range 0 400) (pair bool (int_range 0 300)))
      (opt (int_range (-10) 310)))

let table_of ops =
  let t = Mbt.create () in
  List.iter
    (fun (is_put, k) ->
      if is_put then ignore (Mbt.put t k k ~ts:(k * 5) ~fkey:0 (k * 3))
      else ignore (Mbt.remove t k k))
    ops;
  t

let drain_cursor c =
  let rec go acc =
    if Mbt.step c then begin
      assert (Mbt.ts c = Mbt.key c * 5);
      go ((Mbt.key c, Mbt.value c) :: acc)
    end
    else List.rev acc
  in
  go []

let prop_mbt_cursor_matches_model =
  qtest ~count:300 "cursor = Map model, copies walk alone, stays exhausted"
    gen_table_and_lo (fun (ops, lo) ->
      let t = table_of ops in
      let model =
        List.fold_left
          (fun m (is_put, k) ->
            if is_put then IntMap.add k (k * 3) m else IntMap.remove k m)
          IntMap.empty ops
      in
      let expected =
        List.filter
          (fun (k, _) -> match lo with None -> true | Some l -> k >= l)
          (IntMap.bindings model)
      in
      let c = Mbt.seek t lo 0 in
      let from_copy = drain_cursor (Mbt.copy c) in
      let got = drain_cursor c in
      let via_array =
        List.filter_map
          (fun (k, _, _, v) ->
            if match lo with None -> true | Some l -> k >= l then Some (k, v)
            else None)
          (Array.to_list (Mbt.to_sorted_array t))
      in
      from_copy = expected && got = expected
      && via_array = expected
      && (not (Mbt.step c))
      && not (Mbt.step c))

(* The filter-key column travels with its key through inserts (slot
   shifts), replacements, leaf and interior splits and removals: a walk
   reads back, for every key, the value and filter key of its last put.
   A tree without the column reads [no_fkey] back for every key. *)
let prop_mbt_fkey_column_aligned =
  qtest ~count:300 "filter-key column stays aligned (put, replace, split, remove)"
    QCheck2.Gen.(
      list_size (int_range 0 600)
        (triple bool (int_range 0 150) (int_range (-1000) 1000)))
    (fun ops ->
      let t = Mbt.create () and plain = Mbt.create ~fkeys:false () in
      let model =
        List.fold_left
          (fun m (is_put, k, x) ->
            if is_put then begin
              ignore (Mbt.put t k k ~ts:x ~fkey:x (k + x));
              ignore (Mbt.put plain k k ~ts:x ~fkey:x (k + x));
              IntMap.add k (k + x, x) m
            end
            else begin
              ignore (Mbt.remove t k k);
              ignore (Mbt.remove plain k k);
              IntMap.remove k m
            end)
          IntMap.empty ops
      in
      let walk t =
        let c = Mbt.seek t None 0 in
        let rec go acc =
          if Mbt.step c then go ((Mbt.key c, (Mbt.value c, Mbt.fkey c)) :: acc)
          else List.rev acc
        in
        go []
      in
      walk t = IntMap.bindings model
      && walk plain
         = List.map
             (fun (k, (v, _)) -> (k, (v, Lsm_btree.Mem_btree.no_fkey)))
             (IntMap.bindings model))

let prop_mbt_cursor_seek_comparisons =
  qtest ~count:300 "cursor seek = one descent, walking compares nothing"
    gen_table_and_lo (fun (ops, lo) ->
      let t = table_of ops in
      ignore (Mbt.take_comparisons t);
      let c = Mbt.seek t lo 0 in
      let seek_cmps = Mbt.take_comparisons t in
      ignore (drain_cursor c);
      let walk_cmps = Mbt.take_comparisons t in
      let descent_ok =
        match lo with
        | None -> seek_cmps = 0
        | Some key ->
            (* [find] descends the same way, then may check equality. *)
            ignore (Mbt.find t key key);
            let d = Mbt.take_comparisons t - seek_cmps in
            d = 0 || d = 1
      in
      descent_ok && walk_cmps = 0)

(* ------------------------------------------------------------------ *)
(* Disk_btree *)

let mk_env () =
  (* Small pages so trees have many leaves even in small tests. *)
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:256 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(256 * 16) device

(* Rows are 32 bytes each -> 8 rows per 256B page. *)
let build env keys = Dbt.build env ~size_of:(fun _ -> 32) keys [||]

let test_dbt_build_pages () =
  let env = mk_env () in
  let t = build env (Array.init 100 (fun i -> i * 2)) in
  Alcotest.(check int) "rows" 100 (Dbt.nrows t);
  (* 100 rows * 32B / 256B = 12.5 -> 13 leaves *)
  Alcotest.(check int) "leaf pages" 13 (Dbt.leaf_pages t);
  Alcotest.(check int) "min" 0 (Dbt.keys t).(0);
  Alcotest.(check int) "max" 198 (Dbt.keys t).(99)

let test_dbt_find () =
  let env = mk_env () in
  let t = build env (Array.init 100 (fun i -> i * 2)) in
  let pos = Dbt.find env t 42 0 in
  Alcotest.(check int) "pos" 21 pos;
  Alcotest.(check int) "key" 42 (Dbt.keys t).(pos);
  Alcotest.(check int) "miss odd" (-1) (Dbt.find env t 43 0);
  Alcotest.(check int) "miss below" (-1) (Dbt.find env t (-1) 0);
  Alcotest.(check int) "miss above" (-1) (Dbt.find env t 1000 0)

let test_dbt_empty () =
  let env = mk_env () in
  let t = build env [||] in
  Alcotest.(check int) "empty find" (-1) (Dbt.find env t 1 0);
  Alcotest.(check int) "no pages" 0 (Dbt.leaf_pages t);
  let s = Dbt.Scan.seek env t None 0 in
  Alcotest.(check int) "no next" (-1) (Dbt.Scan.next env s)

let prop_dbt_find_matches_model =
  qtest ~count:100 "disk btree find = model"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 300) (int_range 0 500))
        (list_size (int_range 1 50) (int_range (-10) 510)))
    (fun (keys, queries) ->
      let env = mk_env () in
      let keys = List.sort_uniq compare keys |> Array.of_list in
      let t = build env keys in
      let model =
        IntMap.of_seq (Array.to_seq (Array.mapi (fun i k -> (k, i)) keys))
      in
      List.for_all
        (fun q ->
          let expect = Option.value (IntMap.find_opt q model) ~default:(-1) in
          Dbt.find env t q 0 = expect)
        queries)

let prop_dbt_cursor_matches_find =
  qtest ~count:100 "stateful cursor = stateless find (any query order)"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 300) (int_range 0 500))
        (list_size (int_range 1 60) (int_range (-10) 510)))
    (fun (keys, queries) ->
      let env = mk_env () in
      let keys = List.sort_uniq compare keys |> Array.of_list in
      let t = build env keys in
      let c = Dbt.Cursor.create t in
      List.for_all
        (fun q ->
          Dbt.find env t q 0 = Dbt.Cursor.find env c q 0)
        queries)

(* A descent allocates nothing: after warm-up, 10k searches of a 10k-row
   tree, stateless or through a cursor, allocate no minor words, on a hit
   or a miss (a search returns a bare position). *)
let test_dbt_search_allocates_nothing () =
  let env = mk_env () in
  let t = build env (Array.init 10_000 (fun i -> 2 * i)) in
  let rs = Random.State.make [| 25 |] in
  let hits = Array.init 10_000 (fun _ -> 2 * Random.State.int rs 10_000) in
  let misses = Array.map (fun k -> k + 1) hits in
  let c = Dbt.Cursor.create t in
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  let words search keys =
    Array.iter (fun k -> ignore (search k)) keys;
    let w0 = Gc.minor_words () in
    for i = 0 to Array.length keys - 1 do
      ignore (search keys.(i))
    done;
    Gc.minor_words () -. w0
  in
  List.iter
    (fun (name, search, order) ->
      let miss = words search (order misses) in
      let hit = words search (order hits) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words over 10k misses < 64" name miss)
        true (miss < 64.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words over 10k hits < 64" name hit)
        true (hit < 64.0))
    [
      ("find", (fun k -> Dbt.find env t k 0), Fun.id);
      ("cursor", (fun k -> Dbt.Cursor.find env c k 0), Fun.id);
      ("sorted cursor", (fun k -> Dbt.Cursor.find env c k 0), sorted);
    ]

let test_dbt_cursor_cheaper_for_sorted_batch () =
  let env = mk_env () in
  let t = build env (Array.init 5000 (fun i -> i)) in
  (* Warm everything so only CPU differs. *)
  for i = 0 to 4999 do
    ignore (Dbt.find env t i 0)
  done;
  let st = Lsm_sim.Env.stats env in
  let before = st.Lsm_sim.Io_stats.comparisons in
  for i = 1000 to 1999 do
    ignore (Dbt.find env t i 0)
  done;
  let stateless = st.Lsm_sim.Io_stats.comparisons - before in
  let c = Dbt.Cursor.create t in
  ignore (Dbt.Cursor.find env c 999 0);
  let before = st.Lsm_sim.Io_stats.comparisons in
  for i = 1000 to 1999 do
    ignore (Dbt.Cursor.find env c i 0)
  done;
  let stateful = st.Lsm_sim.Io_stats.comparisons - before in
  Alcotest.(check bool)
    (Printf.sprintf "stateful %d < stateless %d" stateful stateless)
    true
    (stateful * 2 < stateless)

let test_dbt_scan_full_and_range () =
  let env = mk_env () in
  let t = build env (Array.init 100 (fun i -> i * 3)) in
  let s = Dbt.Scan.seek env t None 0 in
  let n = ref 0 and last = ref (-1) in
  let rec drain () =
    let i = Dbt.Scan.next env s in
    if i >= 0 then begin
      let k = (Dbt.keys t).(i) in
      Alcotest.(check int) "index order" !n i;
      Alcotest.(check bool) "ascending" true (k > !last);
      last := k;
      incr n;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all rows" 100 !n;
  (* Seek into the middle. *)
  let s = Dbt.Scan.seek env t (Some 50) 0 in
  (match Dbt.Scan.next env s with
  | -1 -> Alcotest.fail "expected rows"
  | i -> Alcotest.(check int) "first >= 50" 51 (Dbt.keys t).(i));
  Alcotest.(check int) "next" 54 (Dbt.keys t).(Dbt.Scan.next env s)

let test_dbt_scan_sequential_io () =
  let env = mk_env () in
  let t = build env (Array.init 800 (fun i -> i)) in
  (* Evict everything (cache is 16 pages; tree is 100 leaves). *)
  Lsm_sim.Buffer_cache.clear (Lsm_sim.Env.cache env);
  Lsm_sim.Env.reset_measurement env;
  let s = Dbt.Scan.seek env t None 0 in
  let rec drain () =
    if Dbt.Scan.next env s >= 0 then drain ()
  in
  drain ();
  let st = Lsm_sim.Env.stats env in
  Alcotest.(check int) "one positioning" 1 st.Lsm_sim.Io_stats.rand_reads;
  Alcotest.(check bool) "many sequential" true (st.Lsm_sim.Io_stats.seq_reads > 90)

let test_dbt_duplicate_keys () =
  (* Duplicate keys are allowed (secondary index rows before dedup);
     [find] returns the first. *)
  let env = mk_env () in
  let t = Dbt.build env ~size_of:(fun _ -> 32) [| 1; 2; 2; 3 |] [||] in
  Alcotest.(check int) "first dup pos" 1 (Dbt.find env t 2 0);
  Alcotest.(check int) "lower_bound" 1 (Dbt.lower_bound_row env t 2 0)

let () =
  Alcotest.run "lsm_btree"
    [
      ( "mem",
        [
          Alcotest.test_case "empty" `Quick test_mbt_empty;
          Alcotest.test_case "put/find" `Quick test_mbt_put_find;
          Alcotest.test_case "sorted iteration" `Quick
            test_mbt_many_sorted_iteration;
          prop_mbt_matches_map;
          Alcotest.test_case "comparison counter" `Quick
            test_mbt_comparison_counter;
          prop_mbt_cursor_matches_model;
          prop_mbt_fkey_column_aligned;
          prop_mbt_cursor_seek_comparisons;
        ] );
      ( "disk",
        [
          Alcotest.test_case "build pages" `Quick test_dbt_build_pages;
          Alcotest.test_case "find" `Quick test_dbt_find;
          Alcotest.test_case "search allocates nothing" `Quick
            test_dbt_search_allocates_nothing;
          Alcotest.test_case "empty" `Quick test_dbt_empty;
          prop_dbt_find_matches_model;
          prop_dbt_cursor_matches_find;
          Alcotest.test_case "cursor cheaper on sorted batch" `Quick
            test_dbt_cursor_cheaper_for_sorted_batch;
          Alcotest.test_case "scan full + range" `Quick test_dbt_scan_full_and_range;
          Alcotest.test_case "scan sequential io" `Quick test_dbt_scan_sequential_io;
          Alcotest.test_case "duplicate keys" `Quick test_dbt_duplicate_keys;
        ] );
    ]
