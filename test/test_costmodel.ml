(* Properties of the simulated cost model itself: the clock only moves
   forward, caches respect capacity, costs decompose as documented, and
   build-time write charges equal the component's page footprint.  The
   experiments' credibility rests on these invariants. *)

open Lsm_sim

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let device =
  Device.custom ~name:"t" ~page_size:512 ~seek_us:1000.0 ~read_us_per_page:100.0
    ~write_us_per_page:100.0

(* Random I/O scripts against one environment. *)
type io = Read of int | Append of int | ClearCache

let io_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun p -> Read p) (int_range 0 199));
        (2, map (fun n -> Append n) (int_range 1 20));
        (1, return ClearCache);
      ])

let run_script cache_pages ops =
  let env = Env.create ~cache_bytes:(cache_pages * 512) device in
  let f = Sfile.create env in
  Sfile.append_pages env f 200;
  List.iter
    (fun op ->
      match op with
      | Read p -> Sfile.read_page env f p
      | Append n -> Sfile.append_pages env f n
      | ClearCache -> Buffer_cache.clear (Env.cache env))
    ops;
  env

let prop_clock_monotone =
  qtest "clock is non-decreasing across any script"
    QCheck2.Gen.(list_size (int_range 0 100) io_gen)
    (fun ops ->
      let env = Env.create ~cache_bytes:(8 * 512) device in
      let f = Sfile.create env in
      Sfile.append_pages env f 200;
      let last = ref (Env.now_us env) in
      List.for_all
        (fun op ->
          (match op with
          | Read p -> Sfile.read_page env f p
          | Append n -> Sfile.append_pages env f n
          | ClearCache -> Buffer_cache.clear (Env.cache env));
          let now = Env.now_us env in
          let ok = now >= !last in
          last := now;
          ok)
        ops)

let prop_cache_capacity_respected =
  qtest "cache never exceeds capacity"
    QCheck2.Gen.(pair (int_range 1 32) (list_size (int_range 0 150) io_gen))
    (fun (cap, ops) ->
      let env = run_script cap ops in
      Buffer_cache.size (Env.cache env) <= cap)

let prop_counts_decompose =
  qtest "reads = hits-complement; seq + rand = pages_read"
    QCheck2.Gen.(list_size (int_range 0 150) io_gen)
    (fun ops ->
      let env = run_script 8 ops in
      let st = Env.stats env in
      st.Io_stats.seq_reads + st.Io_stats.rand_reads = st.Io_stats.pages_read
      && st.Io_stats.pages_read = st.Io_stats.cache_misses)

let prop_bigger_cache_never_slower =
  qtest ~count:60 "a bigger cache never increases simulated time"
    QCheck2.Gen.(list_size (int_range 0 150) io_gen)
    (fun ops ->
      (* Same script, two cache sizes; LRU on a single file is inclusive
         enough that more capacity cannot hurt. *)
      let t_small = Env.now_us (run_script 4 ops) in
      let t_big = Env.now_us (run_script 64 ops) in
      t_big <= t_small +. 1e-6)

let test_build_write_charges () =
  let env = Env.create ~cache_bytes:(64 * 512) device in
  let module Dbt = Lsm_btree.Disk_btree in
  Lsm_sim.Env.reset_measurement env;
  let t =
    Dbt.build env ~size_of:(fun _ -> 64) (Array.init 100 (fun i -> i)) [||]
  in
  let st = Env.stats env in
  Alcotest.(check int) "writes = leaf + interior pages"
    (Dbt.leaf_pages t + Dbt.interior_pages t)
    st.Io_stats.pages_written

let test_txn_quiescence_guards () =
  let module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record) in
  let module T = Lsm_core.Txn_dataset.Make (Lsm_workload.Tweet.Record) (D) in
  let env = Env.create ~cache_bytes:(128 * 1024) device in
  let d =
    D.create ~secondaries:[] env
      { D.default_config with strategy = Lsm_core.Strategy.mutable_bitmap }
  in
  let t = T.create d in
  let txn = T.begin_txn t in
  T.upsert t txn
    { Lsm_workload.Tweet.id = 1; user_id = 1; location = 0; created_at = 1; msg_len = 10 };
  Alcotest.check_raises "flush refused"
    (Invalid_argument "Txn_dataset.flush: live transactions") (fun () ->
      T.flush t);
  Alcotest.check_raises "checkpoint refused"
    (Invalid_argument "Txn_dataset.checkpoint: live transactions") (fun () ->
      T.checkpoint t);
  T.commit t txn;
  T.flush t (* fine once quiescent *)

let () =
  Alcotest.run "lsm_costmodel"
    [
      ( "invariants",
        [
          prop_clock_monotone;
          prop_cache_capacity_respected;
          prop_counts_decompose;
          prop_bigger_cache_never_slower;
          Alcotest.test_case "build write charges" `Quick test_build_write_charges;
          Alcotest.test_case "txn quiescence guards" `Quick
            test_txn_quiescence_guards;
        ] );
    ]
