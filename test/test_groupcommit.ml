(* Differential suites for the group-commit WAL and the overlapping
   maintenance scheduler.

   Group commit changes *when* commit records become durable (one fsync
   per group instead of per commit), and the overlapping scheduler
   changes *when* merge I/O happens (interleaved, clock rewound to the
   modeled makespan) — neither may change any observable state.  The
   properties here pin that down:

   - a random commit schedule replayed under group commit produces the
     same committed-visible set as the serial WAL;
   - crash + recovery at every enumerated fault point (including the
     group seal/fsync/ack windows and the scheduler's job boundaries)
     reaches checker-accepted state, for random seeds and batch sizes;
   - overlapped merges never share a tree, and their result is
     byte-for-byte the one-worker scheduler's across every index; one
     worker never overlaps, and its job busy times account for all of
     the scheduler's clock time;
   - the fsync amortization is real: simulated WAL sync cost per
     committed transaction at batch >= 4 is strictly below serial. *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module T = Lsm_core.Txn_dataset.Make (Lsm_workload.Tweet.Record) (D)
module Wal = Lsm_txn.Wal
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet
module Sc = Lsm_faultsim.Scenario
module H = Lsm_faultsim.Harness

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let key_domain = 60

let tw ~pk ~user ~at =
  { Tweet.id = pk; user_id = user; location = user mod 7; created_at = at;
    msg_len = 100 }

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"groupcommit" ~page_size:1024 ~seek_us:50.0
      ~read_us_per_page:10.0 ~write_us_per_page:10.0
  in
  Lsm_sim.Env.create ~cache_bytes:(16 * 1024) device

(* ------------------------------------------------------------------ *)
(* Random commit schedules *)

type op = Ups of int * int * int | Del of int

type txn_spec = { ops : op list; aborted : bool; flush_after : bool }

let txn_gen =
  QCheck2.Gen.(
    let op =
      frequency
        [
          ( 4,
            map3
              (fun k u at -> Ups (k, u, at))
              (int_range 1 key_domain) (int_range 0 20) (int_range 1 1000) );
          (1, map (fun k -> Del k) (int_range 1 key_domain));
        ]
    in
    map3
      (fun ops aborted flush_after -> { ops; aborted; flush_after })
      (list_size (int_range 1 5) op)
      (frequency [ (5, return false); (1, return true) ])
      (frequency [ (6, return false); (1, return true) ]))

let schedule_gen = QCheck2.Gen.(list_size (int_range 4 25) txn_gen)

(* Replay a schedule through a transactional dataset with the given WAL
   batching, ending with a flush (which syncs the WAL), and return the
   visible record per key. *)
let replay ~batch schedule =
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      (mk_env ())
      { D.default_config with strategy = Strategy.validation; mem_budget = 2048 }
  in
  let t = T.create d in
  if batch > 1 then T.set_group_commit t ~batch;
  List.iter
    (fun spec ->
      let txn = T.begin_txn t in
      List.iter
        (function
          | Ups (k, u, at) -> T.upsert t txn (tw ~pk:k ~user:u ~at)
          | Del k -> T.delete t txn ~pk:k)
        spec.ops;
      if spec.aborted then T.abort t txn else T.commit t txn;
      if spec.flush_after then T.flush t)
    schedule;
  T.flush t;
  List.init key_domain (fun i -> D.point_query d (i + 1))

let prop_grouped_equals_serial schedule =
  let serial = replay ~batch:1 schedule in
  List.iter
    (fun batch ->
      if replay ~batch schedule <> serial then
        QCheck2.Test.fail_reportf
          "batch %d: visible set differs from serial WAL" batch)
    [ 2; 4; 8 ];
  true

(* The WAL's own group-commit counters behave: replaying under batch [b]
   seals ceil(commits / b) groups at most (flushes can seal short
   groups), and every committed transaction ends durable. *)
let prop_group_accounting schedule =
  let d =
    D.create (mk_env ())
      { D.default_config with strategy = Strategy.validation; mem_budget = 2048 }
  in
  let t = T.create d in
  T.set_group_commit t ~batch:4;
  let committed = ref 0 in
  List.iter
    (fun spec ->
      let txn = T.begin_txn t in
      List.iter
        (function
          | Ups (k, u, at) -> T.upsert t txn (tw ~pk:k ~user:u ~at)
          | Del k -> T.delete t txn ~pk:k)
        spec.ops;
      if spec.aborted then T.abort t txn
      else begin
        T.commit t txn;
        incr committed
      end;
      if spec.flush_after then T.flush t)
    schedule;
  T.flush t;
  let s = Wal.sync_stats (T.wal t) in
  if s.Wal.durable_commits <> !committed then
    QCheck2.Test.fail_reportf "durable %d <> committed %d"
      s.Wal.durable_commits !committed;
  if s.Wal.fsyncs > !committed && !committed > 0 then
    QCheck2.Test.fail_reportf "more fsyncs (%d) than commits (%d)"
      s.Wal.fsyncs !committed;
  Wal.pending_group (T.wal t) = []

(* ------------------------------------------------------------------ *)
(* Crash + recovery at every enumerated point (checker as oracle) *)

let crash_cfg_gen =
  QCheck2.Gen.(
    map3
      (fun seed batch validation ->
        {
          Sc.default_config with
          Sc.seed;
          txns = 18;
          validation;
          group_commit = batch;
          maint_workers = 2;
        })
      (int_range 1 10_000)
      (oneofl [ 2; 3; 4; 8 ])
      bool)

let prop_crash_matrix cfg =
  match H.run ~crash_budget:12 ~io_budget:2 ~corrupt_budget:0
          ~intermittent_budget:0 cfg
  with
  | r ->
      if not (H.ok r) then begin
        H.print_report Format.str_formatter r;
        QCheck2.Test.fail_reportf "matrix failed:@.%s"
          (Format.flush_str_formatter ())
      end;
      true
  | exception H.Baseline_failure msgs ->
      QCheck2.Test.fail_reportf "baseline failure:@.%s"
        (String.concat "\n" msgs)

(* ------------------------------------------------------------------ *)
(* Overlapping scheduler: W=1 equivalence, byte for byte *)

type plain_op = P_ups of int * int * int | P_del of int | P_flush

let plain_op_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 6,
          map3
            (fun k u at -> P_ups (k, u, at))
            (int_range 1 120) (int_range 0 30) (int_range 1 1000) );
        (2, map (fun k -> P_del k) (int_range 1 120));
        (1, return P_flush);
      ])

let plain_ops_gen = QCheck2.Gen.(list_size (int_range 50 250) plain_op_gen)

let run_plain ~strategy ~workers ops =
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      (mk_env ())
      {
        D.default_config with
        strategy;
        mem_budget = 2048;
        maint_workers = workers;
      }
  in
  List.iter
    (function
      | P_ups (k, u, at) -> D.upsert d (tw ~pk:k ~user:u ~at)
      | P_del k -> D.delete d ~pk:k
      | P_flush -> D.flush_now d)
    ops;
  D.flush_now d;
  d

(* Physical fingerprint of one LSM-tree: per component, its ID, repaired
   timestamp, and full row listing. *)
let prim_dump d =
  Array.to_list
    (Array.map
       (fun c ->
         ( D.Prim.component_id c,
           c.D.Prim.repaired_ts,
           Array.init (D.Prim.component_rows c) (D.Prim.row_at c) ))
       (D.Prim.components (D.primary d)))

let pk_dump d =
  match D.pk_index d with
  | None -> []
  | Some pk ->
      Array.to_list
        (Array.map
           (fun c ->
             ( D.Pk.component_id c,
               c.D.Pk.repaired_ts,
               Array.init (D.Pk.component_rows c) (D.Pk.row_at c) ))
           (D.Pk.components pk))

let sec_dump d =
  let s = D.secondary d "user_id" in
  Array.to_list
    (Array.map
       (fun c ->
         ( D.Sec.component_id c,
           c.D.Sec.repaired_ts,
           Array.init (D.Sec.component_rows c) (D.Sec.row_at c) ))
       (D.Sec.components s.D.tree))

let prop_overlap_equals_serial strategy ops =
  let d1 = run_plain ~strategy ~workers:1 ops in
  let d2 = run_plain ~strategy ~workers:3 ops in
  if prim_dump d1 <> prim_dump d2 then
    QCheck2.Test.fail_reportf "primary trees differ";
  if pk_dump d1 <> pk_dump d2 then
    QCheck2.Test.fail_reportf "pk-index trees differ";
  if sec_dump d1 <> sec_dump d2 then
    QCheck2.Test.fail_reportf "secondary trees differ";
  let m = D.maint_stats d2 in
  if m.Lsm_core.Dataset.maint_shared_claims <> 0 then
    QCheck2.Test.fail_reportf "jobs shared a tree (%d claims rejected)"
      m.Lsm_core.Dataset.maint_shared_claims;
  (* One worker never overlaps, so its modeled makespan is its serial
     job sum. *)
  let m1 = D.maint_stats d1 in
  if m1.Lsm_core.Dataset.maint_max_overlap > 1 then
    QCheck2.Test.fail_reportf "one worker overlapped %d jobs"
      m1.Lsm_core.Dataset.maint_max_overlap;
  let serial = m1.Lsm_core.Dataset.maint_serial_us in
  if m1.Lsm_core.Dataset.maint_makespan_us <> serial then
    QCheck2.Test.fail_reportf "one worker's makespan is not its job sum";
  (* Every simulated microsecond the scheduler spends lies inside some
     job's busy time: a merge opens (its input seeks) when its job is
     admitted, not when it is picked, so nothing is charged between jobs
     where no worker could overlap it. *)
  let merge_us = (D.stats d1).D.merge_us in
  if Float.abs (merge_us -. serial) > 1e-9 *. merge_us then
    QCheck2.Test.fail_reportf "merge_us %.6f but job busy sum %.6f" merge_us
      serial;
  true

(* ------------------------------------------------------------------ *)
(* Deterministic acceptance checks *)

(* The amortization claim the bench series gates: per-committed-txn WAL
   sync cost at batch >= 4 is strictly below the serial baseline. *)
let test_fsync_amortized () =
  let run batch =
    let d =
      D.create (mk_env ())
        {
          D.default_config with
          strategy = Strategy.validation;
          mem_budget = 64 * 1024;
        }
    in
    let t = T.create d in
    if batch > 1 then T.set_group_commit t ~batch;
    for i = 1 to 120 do
      let txn = T.begin_txn t in
      T.upsert t txn (tw ~pk:((i mod key_domain) + 1) ~user:(i mod 20) ~at:i);
      T.commit t txn
    done;
    T.flush t;
    let s = Wal.sync_stats (T.wal t) in
    Alcotest.(check int) "all commits durable" 120 s.Wal.durable_commits;
    s.Wal.fsync_time_us /. float_of_int s.Wal.durable_commits
  in
  let serial = run 1 in
  let b4 = run 4 in
  let b8 = run 8 in
  if not (b4 < serial) then
    Alcotest.failf "batch 4 not cheaper: %.1f vs serial %.1f us/txn" b4 serial;
  if not (b8 < b4) then
    Alcotest.failf "batch 8 not cheaper than 4: %.1f vs %.1f us/txn" b8 b4

(* A torn group (crash before the group fsync) must not leak into the
   recovered state: commit, crash while the group is open, recover —
   the writes are gone; the WAL reports the txns demoted. *)
let test_torn_group_discarded () =
  let d =
    D.create (mk_env ())
      { D.default_config with strategy = Strategy.validation; mem_budget = 64 * 1024 }
  in
  let t = T.create d in
  T.set_group_commit t ~batch:8;
  let txn = T.begin_txn t in
  T.upsert t txn (tw ~pk:1 ~user:1 ~at:1);
  T.commit t txn;
  let txn2 = T.begin_txn t in
  T.upsert t txn2 (tw ~pk:2 ~user:2 ~at:2);
  T.commit t txn2;
  Alcotest.(check int) "group open with 2 commits" 2
    (List.length (Wal.pending_group (T.wal t)));
  Alcotest.(check bool) "not yet durable" false
    (Wal.txn_durable (T.wal t) ~txn:(T.txn_id txn));
  T.crash t;
  T.recover t;
  Alcotest.(check bool) "pk 1 discarded" true (D.point_query d 1 = None);
  Alcotest.(check bool) "pk 2 discarded" true (D.point_query d 2 = None);
  (* The same schedule with a sync before the crash survives it. *)
  let d' =
    D.create (mk_env ())
      { D.default_config with strategy = Strategy.validation; mem_budget = 64 * 1024 }
  in
  let t' = T.create d' in
  T.set_group_commit t' ~batch:8;
  let txn = T.begin_txn t' in
  T.upsert t' txn (tw ~pk:1 ~user:1 ~at:1);
  T.commit t' txn;
  Wal.sync (T.wal t');
  Alcotest.(check bool) "durable after sync" true
    (Wal.txn_durable (T.wal t') ~txn:(T.txn_id txn));
  T.crash t';
  T.recover t';
  Alcotest.(check bool) "pk 1 survives" true (D.point_query d' 1 <> None)

(* The overlapped scheduler actually overlaps on a workload with several
   independently mergeable trees, and models a shorter maintenance
   wall-clock than its own serial job sum. *)
let test_overlap_observed () =
  let ops =
    List.init 3_000 (fun i ->
        P_ups ((i * 7 mod 120) + 1, i mod 30, i + 1))
  in
  let d = run_plain ~strategy:Strategy.validation ~workers:2 ops in
  let m = D.maint_stats d in
  Alcotest.(check bool) "rounds ran" true (m.Lsm_core.Dataset.maint_rounds > 0);
  Alcotest.(check bool) "overlap reached 2" true
    (m.Lsm_core.Dataset.maint_max_overlap >= 2);
  Alcotest.(check bool) "no shared claims" true
    (m.Lsm_core.Dataset.maint_shared_claims = 0);
  Alcotest.(check bool) "makespan below serial sum" true
    (m.Lsm_core.Dataset.maint_makespan_us
    < m.Lsm_core.Dataset.maint_serial_us)

let () =
  Alcotest.run "lsm_groupcommit"
    [
      ( "group commit",
        [
          qtest "grouped schedule == serial WAL" schedule_gen
            prop_grouped_equals_serial;
          qtest "group accounting" schedule_gen prop_group_accounting;
          Alcotest.test_case "fsync amortized at batch >= 4" `Quick
            test_fsync_amortized;
          Alcotest.test_case "torn group discarded on crash" `Quick
            test_torn_group_discarded;
        ] );
      ( "crash matrix",
        [
          qtest ~count:10 "checker accepts every enumerated point"
            crash_cfg_gen prop_crash_matrix;
        ] );
      ( "overlapping maintenance",
        [
          qtest ~count:15 "validation: overlapped == serial, byte for byte"
            plain_ops_gen
            (prop_overlap_equals_serial Strategy.validation);
          qtest ~count:15 "mutable-bitmap: overlapped == serial, byte for byte"
            plain_ops_gen
            (prop_overlap_equals_serial Strategy.mutable_bitmap);
          qtest ~count:10 "deleted-key: overlapped == serial, byte for byte"
            plain_ops_gen
            (prop_overlap_equals_serial Strategy.deleted_key_btree);
          qtest ~count:10 "bloom-opt: overlapped == serial, byte for byte"
            plain_ops_gen
            (prop_overlap_equals_serial Strategy.validation_bloom_opt);
          qtest ~count:10 "eager: overlapped == serial, byte for byte"
            plain_ops_gen
            (prop_overlap_equals_serial Strategy.eager);
          Alcotest.test_case "overlap observed and modeled faster" `Quick
            test_overlap_observed;
        ] );
    ]
