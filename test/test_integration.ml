(* Integration tests for the transactional layer (Txn_dataset: WAL,
   aborts, checkpoints, crash recovery on real components — Sec. 5.2) and
   the hash-partitioned architecture (Partitioned — Sec. 2.2). *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module T = Lsm_core.Txn_dataset.Make (Lsm_workload.Tweet.Record) (D)
module P = Lsm_core.Partitioned.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet
module Wal = Lsm_txn.Wal
module IntMap = Map.Make (Int)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(1024 * 128) device

let tw ?(user = 0) ?(at = 1) id =
  { Tweet.id; user_id = user; location = 0; created_at = at; msg_len = 68 }

let mk_txn_dataset ?(strategy = Strategy.mutable_bitmap) ?(mem_shards = 1) () =
  let env = mk_env () in
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      env
      { D.default_config with strategy; mem_shards }
  in
  T.create d

(* ------------------------------------------------------------------ *)
(* Txn_dataset: commits, aborts *)

let test_txn_commit_visible () =
  let t = mk_txn_dataset () in
  T.upsert_auto t (tw ~user:7 1);
  match D.point_query (T.dataset t) 1 with
  | Some r -> Alcotest.(check int) "visible" 7 r.Tweet.user_id
  | None -> Alcotest.fail "committed record missing"

let test_txn_abort_restores_memory () =
  let t = mk_txn_dataset () in
  T.upsert_auto t (tw ~user:7 1);
  let txn = T.begin_txn t in
  T.upsert t txn (tw ~user:9 1);
  T.delete t txn ~pk:999 (* no-op delete of absent key *);
  (match D.point_query (T.dataset t) 1 with
  | Some r -> Alcotest.(check int) "txn sees own write" 9 r.Tweet.user_id
  | None -> Alcotest.fail "missing");
  T.abort t txn;
  match D.point_query (T.dataset t) 1 with
  | Some r -> Alcotest.(check int) "abort restored" 7 r.Tweet.user_id
  | None -> Alcotest.fail "abort lost the prior record"

let test_txn_abort_unsets_bitmap_bit () =
  let t = mk_txn_dataset () in
  let d = T.dataset t in
  T.upsert_auto t (tw ~user:7 1);
  T.upsert_auto t (tw ~user:8 2);
  T.flush t;
  (* An upsert of key 1 flips its bit in the flushed component... *)
  let txn = T.begin_txn t in
  T.upsert t txn (tw ~user:9 1);
  let pk = Option.get (D.pk_index d) in
  let c = (D.Pk.components pk).(0) in
  let bit_count () =
    match c.D.Pk.bitmap with
    | Some b -> Lsm_util.Bitset.count b
    | None -> 0
  in
  Alcotest.(check int) "bit set by txn" 1 (bit_count ());
  (* ...and the abort must unset it (Sec. 5.2: aborts "internally change
     bits from 1 to 0"). *)
  T.abort t txn;
  Alcotest.(check int) "bit unset by abort" 0 (bit_count ());
  match D.point_query d 1 with
  | Some r -> Alcotest.(check int) "old version live again" 7 r.Tweet.user_id
  | None -> Alcotest.fail "record lost by abort"

let test_txn_abort_multi_op_reverse () =
  let t = mk_txn_dataset () in
  T.upsert_auto t (tw ~user:1 10);
  let txn = T.begin_txn t in
  T.upsert t txn (tw ~user:2 10);
  T.upsert t txn (tw ~user:3 10);
  T.delete t txn ~pk:10;
  T.abort t txn;
  match D.point_query (T.dataset t) 10 with
  | Some r -> Alcotest.(check int) "back to first commit" 1 r.Tweet.user_id
  | None -> Alcotest.fail "multi-op abort lost record"

(* ------------------------------------------------------------------ *)
(* Txn_dataset: crash + recovery *)

let query_all_users t =
  D.query_secondary (T.dataset t) ~sec:"user_id" ~lo:0 ~hi:max_int
    ~mode:`Timestamp ()
  |> List.map (fun r -> (Tweet.primary_key r, Tweet.user_id r))
  |> List.sort compare

let test_recovery_basic () =
  let t = mk_txn_dataset () in
  (* Durable base: two records on disk. *)
  T.upsert_auto t (tw ~user:1 1);
  T.upsert_auto t (tw ~user:2 2);
  T.flush t;
  (* Committed post-flush work: update key 1 (bit flip), add key 3. *)
  T.upsert_auto t (tw ~user:11 1);
  T.upsert_auto t (tw ~user:3 3);
  (* Uncommitted at crash: must disappear. *)
  let doomed = T.begin_txn t in
  T.upsert t doomed (tw ~user:99 2);
  let expected = [ (1, 11); (2, 2); (3, 3) ] in
  T.crash t;
  T.recover t;
  Alcotest.(check (list (pair int int))) "state after recovery" expected
    (query_all_users t);
  (* Point queries agree too. *)
  (match D.point_query (T.dataset t) 1 with
  | Some r -> Alcotest.(check int) "redo applied" 11 r.Tweet.user_id
  | None -> Alcotest.fail "key 1 lost");
  match D.point_query (T.dataset t) 2 with
  | Some r -> Alcotest.(check int) "uncommitted not replayed" 2 r.Tweet.user_id
  | None -> Alcotest.fail "key 2 lost"

let test_recovery_checkpoint_bits () =
  let t = mk_txn_dataset () in
  T.upsert_auto t (tw ~user:1 1);
  T.upsert_auto t (tw ~user:2 2);
  T.flush t;
  (* Flip key 1's bit, checkpoint (bit durable), flip key 2's bit. *)
  T.upsert_auto t (tw ~user:11 1);
  T.checkpoint t;
  T.upsert_auto t (tw ~user:22 2);
  let before = query_all_users t in
  T.crash t;
  T.recover t;
  Alcotest.(check (list (pair int int))) "same state" before (query_all_users t)

let test_recovery_deletes () =
  let t = mk_txn_dataset () in
  T.upsert_auto t (tw ~user:1 1);
  T.upsert_auto t (tw ~user:2 2);
  T.flush t;
  T.delete_auto t ~pk:1;
  let before = query_all_users t in
  Alcotest.(check (list (pair int int))) "delete applied" [ (2, 2) ] before;
  T.crash t;
  T.recover t;
  Alcotest.(check (list (pair int int))) "delete survives recovery" before
    (query_all_users t)

let test_txn_requires_lazy_strategy () =
  let env = mk_env () in
  let d =
    D.create ~secondaries:[] env
      { D.default_config with strategy = Strategy.eager }
  in
  Alcotest.check_raises "eager rejected"
    (Invalid_argument
       "Txn_dataset.create: requires the Mutable-bitmap or Validation \
        strategy (Eager's read-modify-write path needs old-record logging \
        this layer does not provide)") (fun () -> ignore (T.create d))

let test_recovery_validation_strategy () =
  (* The transactional layer also runs over Validation datasets: no bit
     flips, but memory redo and abort-rollback behave identically. *)
  let t = mk_txn_dataset ~strategy:Strategy.validation () in
  T.upsert_auto t (tw ~user:1 1);
  T.upsert_auto t (tw ~user:2 2);
  T.flush t;
  T.upsert_auto t (tw ~user:11 1);
  T.delete_auto t ~pk:2;
  (* Snapshot the committed state, then open a transaction that will be
     in flight at the crash (this layer has no read isolation, so its
     writes would be visible until the crash discards them). *)
  let committed = query_all_users t in
  Alcotest.(check (list (pair int int))) "pre-crash committed" [ (1, 11) ]
    committed;
  let doomed = T.begin_txn t in
  T.upsert t doomed (tw ~user:50 3);
  T.crash t;
  T.recover t;
  Alcotest.(check (list (pair int int))) "post-recovery" committed
    (query_all_users t)

(* A crash can tear the newest WAL record mid-append.  Recovery must drop
   the record, abort its (necessarily uncommitted) transaction, and keep
   the committed work logged before it. *)
let test_recovery_torn_tail () =
  List.iter
    (fun strategy ->
      let name = Strategy.name strategy in
      let t = mk_txn_dataset ~strategy () in
      T.upsert_auto t (tw ~user:1 1);
      T.upsert_auto t (tw ~user:3 3);
      T.flush t;
      (* Committed after the flush: redone from the log. *)
      T.upsert_auto t (tw ~user:11 1);
      (* In flight, its only record torn: under Mutable-bitmap it flipped
         key 3's bit in the flushed component. *)
      let doomed = T.begin_txn t in
      T.upsert t doomed (tw ~user:99 3);
      let wal = T.wal t in
      let logged = Wal.length wal in
      Wal.tear_tail wal;
      T.crash t;
      T.recover t;
      Alcotest.(check bool) (name ^ ": torn transaction aborted") true
        (Wal.txn_state wal ~txn:(T.txn_id doomed) = Some Wal.Aborted);
      Alcotest.(check int) (name ^ ": torn record gone") (logged - 1)
        (Wal.length wal);
      Alcotest.(check bool) (name ^ ": torn mark consumed") true
        (Wal.torn_tail wal = None);
      Alcotest.(check (list (pair int int)))
        (name ^ ": torn write invisible, committed write survives")
        [ (1, 11); (3, 3) ] (query_all_users t))
    [ Strategy.mutable_bitmap; Strategy.validation ]

type rop = RUp of int * int | RDel of int | RFlush | RCkpt

let rop_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun k u -> RUp (k, u)) (int_range 1 25) (int_range 0 50));
        (2, map (fun k -> RDel k) (int_range 1 25));
        (1, return RFlush);
        (1, return RCkpt);
      ])

let prop_recovery_restores_committed_state =
  qtest ~count:60 "crash+recover = committed state (random histories)"
    QCheck2.Gen.(list_size (int_range 1 60) rop_gen)
    (fun ops ->
      let t = mk_txn_dataset () in
      List.iter
        (fun op ->
          match op with
          | RUp (k, u) -> T.upsert_auto t (tw ~user:u k)
          | RDel k -> T.delete_auto t ~pk:k
          | RFlush -> T.flush t
          | RCkpt -> T.checkpoint t)
        ops;
      (* One uncommitted straggler. *)
      let doomed = T.begin_txn t in
      T.upsert t doomed (tw ~user:77 1);
      T.abort t doomed;
      let before = query_all_users t in
      T.crash t;
      T.recover t;
      query_all_users t = before)

let set_bits t =
  match D.pk_index (T.dataset t) with
  | None -> []
  | Some pkt ->
      Array.to_list (D.Pk.components pkt)
      |> List.map (fun c ->
             match c.D.Pk.bitmap with
             | None -> []
             | Some b ->
                 let acc = ref [] in
                 Lsm_util.Bitset.iter_set b (fun i -> acc := i :: !acc);
                 List.rev !acc)

(* Recovery is idempotent: a second crash right after recovery, before
   any new checkpoint, recovers to the same committed state (bitmaps
   included) under both WAL-backed strategies. *)
let prop_crash_twice =
  qtest ~count:40 "idempotent (crash twice)"
    QCheck2.Gen.(list_size (int_range 1 60) rop_gen)
    (fun ops ->
      List.for_all
        (fun strategy ->
          let t = mk_txn_dataset ~strategy () in
          List.iter
            (function
              | RUp (k, u) -> T.upsert_auto t (tw ~user:u k)
              | RDel k -> T.delete_auto t ~pk:k
              | RFlush -> T.flush t
              | RCkpt -> T.checkpoint t)
            ops;
          let committed = query_all_users t in
          let doomed = T.begin_txn t in
          T.upsert t doomed (tw ~user:77 1);
          T.crash t;
          T.recover t;
          let once = (query_all_users t, set_bits t) in
          T.crash t;
          T.recover t;
          fst once = committed && (query_all_users t, set_bits t) = once)
        [ Strategy.mutable_bitmap; Strategy.validation ])

(* ------------------------------------------------------------------ *)
(* WAL truncation: each flush or checkpoint anchor drops the records no
   recovery can replay.  The differential below runs random auto-commit
   traces with aborts, full and per-shard flushes, checkpoints and
   crashes under group commit, and after every recovery compares the
   dataset with a model of durably committed transactions — one that
   knows nothing of the log: a commit is durable once its group fills
   or a flush or checkpoint syncs it, and a crash drops the rest. *)

type wop =
  | WUp of int * int
  | WDel of int
  | WAbort of int * int
  | WFlush
  | WShard of int
  | WCkpt
  | WCrash

let wop_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map2 (fun k u -> WUp (k, u)) (int_range 1 30) (int_range 0 9));
        (3, map (fun k -> WDel k) (int_range 1 30));
        (2, map2 (fun k u -> WAbort (k, u)) (int_range 1 30) (int_range 0 9));
        (1, return WFlush);
        (3, map (fun s -> WShard s) (int_range 0 3));
        (1, return WCkpt);
        (2, return WCrash);
      ])

let show_wop = function
  | WUp (k, u) -> Printf.sprintf "up %d/%d" k u
  | WDel k -> Printf.sprintf "del %d" k
  | WAbort (k, u) -> Printf.sprintf "abort %d/%d" k u
  | WFlush -> "flush"
  | WShard s -> Printf.sprintf "shard %d" s
  | WCkpt -> "ckpt"
  | WCrash -> "crash"

let show_wcase (bitmap, shards, batch, ops) =
  Printf.sprintf "%s shards=%d batch=%d [%s]"
    (if bitmap then "bitmap" else "validation")
    shards batch
    (String.concat "; " (List.map show_wop ops))

(* Every key's answer through the primary, and every (pk, user) pair
   through the secondary index. *)
let answers t =
  ( List.init 31 (fun k ->
        Option.map Tweet.user_id (D.point_query (T.dataset t) k)),
    query_all_users t )

let model_answers m =
  ( List.init 31 (fun k -> IntMap.find_opt k m),
    IntMap.bindings m )

let prop_truncation_keeps_committed =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:250 ~name:"truncated log = durable commits"
       ~print:show_wcase
       QCheck2.Gen.(
         quad bool (int_range 1 4) (int_range 1 4)
           (list_size (int_range 1 80) wop_gen))
       (fun (bitmap, shards, batch, ops) ->
         let strategy =
           if bitmap then Strategy.mutable_bitmap else Strategy.validation
         in
         let t = mk_txn_dataset ~strategy ~mem_shards:shards () in
         T.set_group_commit t ~batch;
         let wal = T.wal t in
         let durable = ref IntMap.empty in
         (* committed, not yet durable: newest first *)
         let pending = ref [] in
         let logged = ref 0 in
         let settle () =
           List.iter
             (fun f -> durable := f !durable)
             (List.rev !pending);
           pending := []
         in
         let committed f =
           incr logged;
           pending := f :: !pending;
           if List.length !pending >= batch then settle ()
         in
         let fail fmt =
           Printf.ksprintf (fun s -> QCheck2.Test.fail_report s) fmt
         in
         let wal_ok () =
           match Wal.check wal with Ok () -> () | Error e -> fail "%s" e
         in
         List.iter
           (function
             | WUp (k, u) ->
                 T.upsert_auto t (tw ~user:u k);
                 committed (IntMap.add k u)
             | WDel k ->
                 T.delete_auto t ~pk:k;
                 committed (IntMap.remove k)
             | WAbort (k, u) ->
                 let txn = T.begin_txn t in
                 T.upsert t txn (tw ~user:u k);
                 T.delete t txn ~pk:(k + 1);
                 T.abort t txn;
                 logged := !logged + 2
             | WFlush ->
                 T.flush t;
                 settle ();
                 wal_ok ();
                 if Wal.retained wal <> 0 then
                   fail "%d records retained after a full flush"
                     (Wal.retained wal);
                 if Wal.length wal <> !logged then
                   fail "length %d, %d records logged" (Wal.length wal) !logged
             | WShard s ->
                 T.flush_shard t (s mod shards);
                 settle ();
                 wal_ok ()
             | WCkpt ->
                 T.checkpoint t;
                 settle ();
                 wal_ok ()
             | WCrash ->
                 pending := [];
                 T.crash t;
                 T.recover t;
                 wal_ok ();
                 if answers t <> model_answers !durable then
                   fail "recovered answers differ from the durable commits")
           ops;
         pending := [];
         T.crash t;
         T.recover t;
         wal_ok ();
         answers t = model_answers !durable))

(* Timestamp validation under per-shard flushes, one trace the property
   above shrank to: the flush of shard 1 lands in front of the flush of
   shard 0 although its entries are older, so a component with a lower
   maxTS precedes the one that holds pk 8's newer version.  Validating
   the old secondary entry (user 0, pk 8) must look past it, or the
   query answers pk 8 twice. *)
let test_sharded_validation () =
  let t = mk_txn_dataset ~strategy:Strategy.mutable_bitmap ~mem_shards:2 () in
  let up k u = T.upsert_auto t (tw ~user:u k) in
  for _ = 1 to 6 do up 1 0 done;
  T.flush t;
  up 1 0;
  T.flush t;
  for _ = 1 to 5 do up 1 0 done;
  up 8 0;
  up 8 1;
  T.flush_shard t 0;
  up 14 0;
  up 14 0;
  T.flush_shard t 1;
  Alcotest.(check (list (pair int int)))
    "each record once" [ (1, 0); (8, 1); (14, 0) ] (query_all_users t)

(* The log's heap after 20k auto-commit upserts with a flush every 1k:
   each flush truncates what it made durable, so what remains is the
   record columns' capacity and one state byte per transaction.  The
   environment the log charges is shared with the dataset and not
   counted. *)
let wal_words_after_20k () =
  let t = mk_txn_dataset () in
  for i = 1 to 20_000 do
    T.upsert_auto t (tw ~user:(i mod 50) ~at:i (i mod 5_000));
    if i mod 1_000 = 0 then T.flush t
  done;
  let wal = T.wal t in
  let env = D.env (T.dataset t) in
  (wal, Obj.reachable_words (Obj.repr wal) - Obj.reachable_words (Obj.repr env))

let test_wal_words_bounded () =
  let wal, words = wal_words_after_20k () in
  Alcotest.(check int) "every record counted" 20_000 (Wal.length wal);
  Alcotest.(check int) "none retained" 0 (Wal.retained wal);
  (* 7,209 words: about 4,100 for the state bytes (a 32 KB column) and
     3,075 for the three record columns, sized to the 1k-record tail
     between flushes.  Keeping every record and two hash tables of
     transactions took 611,799. *)
  if words > 7_500 then
    Alcotest.failf "WAL holds %d words after 20k upserts (ceiling 7,500)" words

(* ------------------------------------------------------------------ *)
(* Partitioned datasets *)

let mk_partitioned n =
  P.create ~filter_key:Tweet.created_at
    ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
    ~mk_env:(fun _ -> mk_env ())
    ~partitions:n
    { D.default_config with strategy = Strategy.eager; mem_budget = 4096 }

let test_partitioned_routing () =
  let p = mk_partitioned 4 in
  for i = 1 to 400 do
    ignore (P.insert p (tw ~user:(i mod 30) i))
  done;
  (* All partitions got some data (hash spreading). *)
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "partition %d non-empty" i)
      true
      (D.full_scan (P.partition p i) ~f:ignore > 50)
  done;
  (* Point queries route correctly. *)
  for i = 1 to 400 do
    match P.point_query p i with
    | Some r -> Alcotest.(check int) "right record" i (Tweet.primary_key r)
    | None -> Alcotest.fail "routed point query missed"
  done

let test_partitioned_queries_match_model () =
  let p = mk_partitioned 3 in
  let model = ref IntMap.empty in
  for i = 1 to 300 do
    let r = tw ~user:(i mod 40) ~at:i i in
    P.upsert p r;
    model := IntMap.add i r !model
  done;
  (* updates + deletes *)
  for i = 1 to 100 do
    let r = tw ~user:((i + 5) mod 40) ~at:(300 + i) i in
    P.upsert p r;
    model := IntMap.add i r !model
  done;
  for i = 50 to 70 do
    P.delete p ~pk:i;
    model := IntMap.remove i !model
  done;
  let expect =
    IntMap.fold
      (fun k r acc -> if r.Tweet.user_id <= 10 then k :: acc else acc)
      !model []
    |> List.sort compare
  in
  let got =
    P.query_secondary p ~sec:"user_id" ~lo:0 ~hi:10 ~mode:`Assume_valid ()
    |> List.map Tweet.primary_key |> List.sort compare
  in
  Alcotest.(check (list int)) "fan-out query" expect got;
  Alcotest.(check int) "full scan count" (IntMap.cardinal !model)
    (P.full_scan p ~f:ignore);
  let time_expect =
    IntMap.fold
      (fun _ r acc -> if r.Tweet.created_at <= 150 then acc + 1 else acc)
      !model 0
  in
  Alcotest.(check int) "time range fan-out" time_expect
    (P.query_time_range p ~tlo:0 ~thi:150 ~f:ignore)

let test_partitioned_speedup () =
  (* Same stream into 1 vs 4 partitions: parallel completion time should
     shrink near-linearly (Sec. 6.1's near-linear speedup claim). *)
  let run n =
    let p = mk_partitioned n in
    let stream =
      Lsm_workload.Streams.upsert_stream ~seed:31 ~update_ratio:0.3
        ~distribution:`Uniform ()
    in
    for _ = 1 to 4000 do
      match Lsm_workload.Streams.next stream with
      | Lsm_workload.Streams.Upsert r -> P.upsert p r
      | _ -> ()
    done;
    P.sim_time_s p
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 partitions %.3fs vs 1 partition %.3fs" t4 t1)
    true
    (t4 *. 2.5 < t1)

(* The partitioned layer must answer exactly like one big partition. *)
let prop_partitioned_equals_single =
  qtest ~count:30 "partitioned = single partition"
    QCheck2.Gen.(list_size (int_range 1 150) rop_gen)
    (fun ops ->
      let run parts =
        let p = mk_partitioned parts in
        List.iteri
          (fun i op ->
            match op with
            | RUp (k, u) -> P.upsert p (tw ~user:u ~at:i k)
            | RDel k -> P.delete p ~pk:k
            | RFlush | RCkpt -> P.flush_now p)
          ops;
        ( P.query_secondary p ~sec:"user_id" ~lo:0 ~hi:30 ~mode:`Assume_valid ()
          |> List.map Tweet.primary_key |> List.sort compare,
          P.full_scan p ~f:ignore )
      in
      run 1 = run 5)

let () =
  Alcotest.run "lsm_integration"
    [
      ( "txn",
        [
          Alcotest.test_case "commit visible" `Quick test_txn_commit_visible;
          Alcotest.test_case "abort restores memory" `Quick
            test_txn_abort_restores_memory;
          Alcotest.test_case "abort unsets bitmap bit" `Quick
            test_txn_abort_unsets_bitmap_bit;
          Alcotest.test_case "multi-op abort" `Quick test_txn_abort_multi_op_reverse;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "basic" `Quick test_recovery_basic;
          Alcotest.test_case "checkpointed bits" `Quick
            test_recovery_checkpoint_bits;
          Alcotest.test_case "deletes" `Quick test_recovery_deletes;
          Alcotest.test_case "eager rejected" `Quick test_txn_requires_lazy_strategy;
          Alcotest.test_case "validation strategy" `Quick
            test_recovery_validation_strategy;
          Alcotest.test_case "torn tail" `Quick test_recovery_torn_tail;
          prop_recovery_restores_committed_state;
          prop_crash_twice;
          prop_truncation_keeps_committed;
          Alcotest.test_case "sharded timestamp validation" `Quick
            test_sharded_validation;
          Alcotest.test_case "wal words after 20k upserts" `Quick
            test_wal_words_bounded;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "routing" `Quick test_partitioned_routing;
          Alcotest.test_case "queries = model" `Quick
            test_partitioned_queries_match_model;
          Alcotest.test_case "near-linear speedup" `Quick test_partitioned_speedup;
          prop_partitioned_equals_single;
        ] );
    ]
