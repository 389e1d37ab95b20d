(* Tests for Lsm_txn (locks, WAL, side-files) and the
   concurrent-merge protocols of Sec. 5.3 (Lsm_core.Concurrent_merge). *)

module Lt = Lsm_txn.Lock_table
module Wal = Lsm_txn.Wal
module Sf = Lsm_txn.Side_file

(* ------------------------------------------------------------------ *)
(* Lock table *)

let test_lock_s_compat () =
  let t = Lt.create () in
  Alcotest.(check bool) "s1" true (Lt.acquire t ~owner:1 ~key:7 Lt.S = `Granted);
  Alcotest.(check bool) "s2" true (Lt.acquire t ~owner:2 ~key:7 Lt.S = `Granted);
  Alcotest.(check bool) "x conflicts" true
    (Lt.acquire t ~owner:3 ~key:7 Lt.X = `Conflict)

let test_lock_x_exclusive () =
  let t = Lt.create () in
  Alcotest.(check bool) "x" true (Lt.acquire t ~owner:1 ~key:7 Lt.X = `Granted);
  Alcotest.(check bool) "x2 refused" true
    (Lt.acquire t ~owner:2 ~key:7 Lt.X = `Conflict);
  Alcotest.(check bool) "s refused" true
    (Lt.acquire t ~owner:2 ~key:7 Lt.S = `Conflict);
  Alcotest.(check bool) "reentrant" true
    (Lt.acquire t ~owner:1 ~key:7 Lt.X = `Granted);
  Lt.release t ~owner:1 ~key:7;
  Alcotest.(check bool) "x after release" true
    (Lt.acquire t ~owner:2 ~key:7 Lt.X = `Granted)

let test_lock_upgrade () =
  let t = Lt.create () in
  Alcotest.(check bool) "s" true (Lt.acquire t ~owner:1 ~key:7 Lt.S = `Granted);
  Alcotest.(check bool) "upgrade sole holder" true
    (Lt.acquire t ~owner:1 ~key:7 Lt.X = `Granted);
  Alcotest.(check bool) "holds X" true (Lt.holds t ~owner:1 ~key:7 = Some Lt.X)

let test_lock_counts_and_cleanup () =
  let t = Lt.create () in
  ignore (Lt.acquire t ~owner:1 ~key:1 Lt.S);
  ignore (Lt.acquire t ~owner:1 ~key:2 Lt.X);
  Alcotest.(check int) "outstanding" 2 (Lt.outstanding t);
  Lt.release t ~owner:1 ~key:1;
  Lt.release t ~owner:1 ~key:2;
  Alcotest.(check int) "cleaned" 0 (Lt.outstanding t);
  Alcotest.(check int) "acquisitions" 2 (Lt.acquisitions t);
  Alcotest.(check int) "releases" 2 (Lt.releases t)

(* ------------------------------------------------------------------ *)
(* WAL: LSNs, the replay stream, checkpoints, torn tails.  Recovery over
   real components is tested in test_integration.ml. *)

let wal_env () =
  Lsm_sim.Env.create ~cache_bytes:(1024 * 64)
    (Lsm_sim.Device.custom ~name:"wal" ~page_size:1024 ~seek_us:1000.0
       ~read_us_per_page:100.0 ~write_us_per_page:100.0)

let payloads_after w ~lsn =
  let acc = ref [] in
  Wal.iter_after w ~lsn (fun ~txn:_ p -> acc := p :: !acc);
  List.rev !acc

let test_wal_basic () =
  let w = Wal.create (wal_env ()) in
  let t1 = Wal.begin_txn w in
  let l1 = Wal.log w ~txn:t1 "upsert 5" in
  let l2 = Wal.log w ~txn:t1 "delete 6" in
  Alcotest.(check bool) "lsn monotone" true (l2 > l1);
  Wal.commit w ~txn:t1;
  Alcotest.(check bool) "committed" true (Wal.txn_state w ~txn:t1 = Some Wal.Committed);
  Alcotest.(check int) "2 records" 2 (Wal.length w);
  Alcotest.(check (list string)) "replay stream, oldest first"
    [ "upsert 5"; "delete 6" ]
    (payloads_after w ~lsn:0);
  Wal.checkpoint w;
  Alcotest.(check int) "checkpoint at the last LSN" l2 (Wal.checkpoint_lsn w);
  Alcotest.(check int) "nothing after ckpt" 0
    (List.length (payloads_after w ~lsn:(Wal.checkpoint_lsn w)))

(* Tearing is only meaningful mid-write: an empty log has no tail, and a
   discard with a stale marker (record already gone) is a no-op. *)
let test_torn_tail_edge_cases () =
  let w = Wal.create (wal_env ()) in
  Wal.tear_tail w;
  Alcotest.(check bool) "empty log: nothing to tear" true
    (Wal.torn_tail w = None);
  Alcotest.(check bool) "empty log: nothing to discard" true
    (Wal.discard_torn_tail w = None);
  let t1 = Wal.begin_txn w in
  ignore (Wal.log w ~txn:t1 1);
  Wal.tear_tail w;
  (match Wal.discard_torn_tail w with
  | Some r -> Alcotest.(check int) "discarded the tail record" 1 r.Wal.payload
  | None -> Alcotest.fail "expected the torn record back");
  Alcotest.(check bool) "marker cleared" true (Wal.torn_tail w = None);
  Alcotest.(check int) "record gone" 0 (Wal.length w);
  Alcotest.(check bool) "second discard no-op" true
    (Wal.discard_torn_tail w = None)

(* The record columns and the state bytes against the list and hash
   tables they replaced: random appends, checkpoints, truncations at a
   random settled threshold, torn-tail discards, and transactions begun,
   committed, aborted, synced and crashed under group commit.  After every
   step the replay streams, [length], [retained], every transaction's
   state and durability, and the open group must agree. *)

type lop =
  | LLog
  | LCkpt
  | LTrunc of int
  | LTear
  | LBegin
  | LCommit of int
  | LAbort of int
  | LSync
  | LCrash

let lop_gen =
  QCheck2.Gen.(
    frequency
      [
        (10, return LLog);
        (2, return LCkpt);
        (3, map (fun k -> LTrunc k) (int_range 0 12));
        (1, return LTear);
        (4, return LBegin);
        (4, map (fun i -> LCommit i) (int_range 0 40));
        (2, map (fun i -> LAbort i) (int_range 0 40));
        (1, return LSync);
        (1, return LCrash);
      ])

type log_model = {
  mutable recs : (int * int * int) list;  (** (lsn, txn, payload), oldest first *)
  mutable next_lsn : int;
  mutable appended : int;
  mutable ckpt : int;
  mutable txns : int;
  states : (int, Wal.txn_state) Hashtbl.t;
  durable : (int, unit) Hashtbl.t;
  mutable group : int list;  (** newest first *)
}

let prop_wal_columns_match_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"columns = list model"
       QCheck2.Gen.(pair (int_range 1 4) (list_size (int_range 1 400) lop_gen))
       (fun (batch, ops) ->
         let w = Wal.create (wal_env ()) in
         Wal.set_group_commit w ~batch;
         let m =
           {
             recs = [];
             next_lsn = 1;
             appended = 0;
             ckpt = 0;
             txns = 0;
             states = Hashtbl.create 16;
             durable = Hashtbl.create 16;
             group = [];
           }
         in
         let seal () =
           List.iter (fun id -> Hashtbl.replace m.durable id ()) m.group;
           m.group <- []
         in
         let pick i = if m.txns = 0 then 1 else 1 + (i mod m.txns) in
         let step = function
           | LLog ->
               let txn = max 1 m.txns in
               let p = m.appended in
               let lsn = Wal.log w ~txn p in
               if lsn <> m.next_lsn then QCheck2.Test.fail_report "lsn";
               m.recs <- m.recs @ [ (lsn, txn, p) ];
               m.next_lsn <- lsn + 1;
               m.appended <- m.appended + 1
           | LCkpt ->
               Wal.checkpoint w;
               m.ckpt <- m.next_lsn - 1
           | LTrunc k ->
               let limit = m.appended - k in
               Wal.truncate w ~settled:(fun p -> p <= limit);
               let rec drop = function
                 | (lsn, _, p) :: rest when lsn <= m.ckpt && p <= limit -> drop rest
                 | l -> l
               in
               m.recs <- drop m.recs
           | LTear ->
               Wal.tear_tail w;
               ignore (Wal.discard_torn_tail w);
               (match List.rev m.recs with
               | _ :: rest ->
                   m.recs <- List.rev rest;
                   m.appended <- m.appended - 1
               | [] -> ())
           | LBegin ->
               let id = Wal.begin_txn w in
               m.txns <- m.txns + 1;
               if id <> m.txns then QCheck2.Test.fail_report "txn id";
               Hashtbl.replace m.states id Wal.Active
           | LCommit i ->
               let id = pick i in
               Wal.commit w ~txn:id;
               Hashtbl.replace m.states id Wal.Committed;
               m.group <- id :: m.group;
               if List.length m.group >= batch then seal ()
           | LAbort i ->
               let id = pick i in
               Wal.abort w ~txn:id;
               Hashtbl.replace m.states id Wal.Aborted
           | LSync ->
               Wal.sync w;
               seal ()
           | LCrash ->
               ignore (Wal.crash w);
               List.iter (fun id -> Hashtbl.replace m.states id Wal.Aborted) m.group;
               m.group <- []
         in
         let stream ~lsn =
           let acc = ref [] in
           Wal.iter_after w ~lsn (fun ~txn p -> acc := (txn, p) :: !acc);
           List.rev !acc
         in
         let model_stream ~lsn =
           List.filter_map
             (fun (l, txn, p) -> if l > lsn then Some (txn, p) else None)
             m.recs
         in
         List.for_all
           (fun op ->
             step op;
             stream ~lsn:0 = model_stream ~lsn:0
             && stream ~lsn:m.ckpt = model_stream ~lsn:m.ckpt
             && Wal.length w = m.appended
             && Wal.retained w = List.length m.recs
             && Wal.check w = Ok ()
             && Wal.pending_group w = List.rev m.group
             && List.for_all
                  (fun id ->
                    Wal.txn_state w ~txn:id = Hashtbl.find_opt m.states id
                    && Wal.txn_durable w ~txn:id
                       = (Hashtbl.find_opt m.states id = Some Wal.Committed
                         && Hashtbl.mem m.durable id))
                  (List.init (m.txns + 3) (fun i -> i - 1)))
           ops))

(* A transaction's state and durability take one byte: 65,536
   transactions grow the log by at most 8,192 words plus the column's
   header.  No record is logged, and the environment the log charges is
   not counted. *)
let test_wal_state_bytes () =
  let env = wal_env () in
  let w = Wal.create env in
  let words () =
    Obj.reachable_words (Obj.repr w) - Obj.reachable_words (Obj.repr env)
  in
  let before = words () in
  let n = 65_536 in
  for i = 1 to n do
    let id = Wal.begin_txn w in
    if i mod 3 = 0 then Wal.abort w ~txn:id else Wal.commit w ~txn:id
  done;
  Alcotest.(check bool) "last txn durable" true (Wal.txn_durable w ~txn:n);
  let grown = words () - before in
  let word_bytes = Sys.word_size / 8 in
  if grown * word_bytes > n + (4 * word_bytes) then
    Alcotest.failf "%d transactions grew the log by %d words (over 1 byte each)"
      n grown

(* ------------------------------------------------------------------ *)
(* Side-file *)

let test_side_file () =
  let sf = Sf.create () in
  Alcotest.(check bool) "append" true (Sf.append sf 5);
  Alcotest.(check bool) "append" true (Sf.append sf 3);
  Alcotest.(check bool) "append dup" true (Sf.append sf 5);
  Alcotest.(check int) "len" 3 (Sf.length sf);
  Sf.close sf;
  Alcotest.(check bool) "closed refuses" false (Sf.append sf 9);
  let cost = ref 0 in
  Alcotest.(check (array int)) "sorted dedup" [| 3; 5 |] (Sf.sorted_keys ~cost sf)

(* ------------------------------------------------------------------ *)
(* Concurrent merge (Fig. 23) *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module CM = Lsm_core.Concurrent_merge.Make (Lsm_workload.Tweet.Record) (D)
module Tweet = Lsm_workload.Tweet

let tw ?(user = 0) ?(at = 1) id =
  { Tweet.id; user_id = user; location = 0; created_at = at; msg_len = 68 }

let mk_cm_dataset () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  let env = Lsm_sim.Env.create ~cache_bytes:(1024 * 256) device in
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      env
      { D.default_config with strategy = Lsm_core.Strategy.mutable_bitmap }
  in
  D.set_auto_maintenance d false;
  (* 4 components of 150 records each; later batches update some earlier
     keys so pre-existing bitmap marks exist. *)
  let model = Hashtbl.create 1024 in
  for b = 0 to 3 do
    for i = 1 to 150 do
      let id = (b * 150) + i in
      let r = tw ~user:(id mod 100) ~at:id id in
      D.upsert d r;
      Hashtbl.replace model id r
    done;
    (* update a few keys from previous batches *)
    if b > 0 then
      for i = 1 to 20 do
        let id = ((b - 1) * 150) + i in
        let r = tw ~user:((id + 7) mod 100) ~at:(1000 + id) id in
        D.upsert d r;
        Hashtbl.replace model id r
      done;
    D.flush_memory d
  done;
  (d, model)

let run_method method_ =
  let d, model = mk_cm_dataset () in
  let wrng = Lsm_util.Rng.create 77 in
  let next_write () =
    (* Half the writer ops update keys inside the merging components. *)
    if Lsm_util.Rng.bool wrng then begin
      let id = 1 + Lsm_util.Rng.int wrng 600 in
      let r = tw ~user:(Lsm_util.Rng.int wrng 100) ~at:(2000 + id) id in
      Hashtbl.replace model id r;
      CM.Upsert r
    end
    else begin
      let id = 10_000 + Lsm_util.Rng.int wrng 1000 in
      let r = tw ~user:(Lsm_util.Rng.int wrng 100) ~at:(3000 + id) id in
      Hashtbl.replace model id r;
      CM.Upsert r
    end
  in
  let res = CM.run d ~method_ ~next_write ~writer_ops_per_row:0.25 () in
  (d, model, res)

let check_consistency d (model : (int, Tweet.t) Hashtbl.t) name =
  (* Every model record visible with the right contents. *)
  Hashtbl.iter
    (fun id r ->
      match D.point_query d id with
      | Some got ->
          Alcotest.(check int) (name ^ ": user of " ^ string_of_int id)
            r.Tweet.user_id got.Tweet.user_id
      | None -> Alcotest.fail (name ^ ": lost record " ^ string_of_int id))
    model;
  (* No resurrected stale versions: the non-reconciling bitmap scan must
     count each live record exactly once. *)
  let n = D.query_time_range d ~tlo:0 ~thi:max_int ~f:ignore in
  Alcotest.(check int) (name ^ ": live count") (Hashtbl.length model) n

let test_cm_lock_correct () =
  let d, model, res = run_method CM.Lock in
  Alcotest.(check bool) "writers ran" true (res.CM.writer_ops > 50);
  Alcotest.(check bool) "locks taken" true (res.CM.lock_acquisitions > 500);
  check_consistency d model "lock"

let test_cm_side_file_correct () =
  let d, model, res = run_method CM.Side_file in
  Alcotest.(check bool) "writers ran" true (res.CM.writer_ops > 50);
  check_consistency d model "side-file"

let test_cm_overhead_ordering () =
  let _, _, base = run_method CM.Baseline in
  let _, _, side = run_method CM.Side_file in
  let _, _, lock = run_method CM.Lock in
  Alcotest.(check bool)
    (Printf.sprintf "side-file %.0f ~ baseline %.0f (within 25%%)"
       side.CM.merge_time_us base.CM.merge_time_us)
    true
    (side.CM.merge_time_us < base.CM.merge_time_us *. 1.25);
  Alcotest.(check bool)
    (Printf.sprintf "lock %.0f > side %.0f" lock.CM.merge_time_us
       side.CM.merge_time_us)
    true
    (lock.CM.merge_time_us > side.CM.merge_time_us)

let test_cm_components_after () =
  let d, _, _ = run_method CM.Side_file in
  Alcotest.(check int) "primary merged to 1" 1
    (D.Prim.component_count (D.primary d));
  match D.pk_index d with
  | Some pk ->
      Alcotest.(check int) "pk merged to 1" 1 (D.Pk.component_count pk);
      (* The twin shares the primary's key, timestamp and anti-matter
         columns, and keeps its unit values in one slot. *)
      let pc = (D.Prim.components (D.primary d)).(0)
      and kc = (D.Pk.components pk).(0) in
      Alcotest.(check bool) "twin shares the columns" true
        (Lsm_btree.Disk_btree.keys kc.D.Pk.tree
         == Lsm_btree.Disk_btree.keys pc.D.Prim.tree
        && kc.D.Pk.tss == pc.D.Prim.tss
        && kc.D.Pk.dels == pc.D.Prim.dels);
      Alcotest.(check int) "one unit slot" 1 (Array.length kc.D.Pk.vals)
  | None -> Alcotest.fail "pk index"

(* The builder installs like a scheduled merge — flush provenance
   included — so the lockstep merges that follow still find each primary
   component's pk-index counterpart and the shared-bitmap pair stays
   aligned. *)
let test_cm_then_merges_aligned method_ () =
  let d, model, _ = run_method method_ in
  let name = CM.method_name method_ in
  let pk =
    match D.pk_index d with Some pk -> pk | None -> Alcotest.fail "pk index"
  in
  let rng = Lsm_util.Rng.create 5 in
  for round = 1 to 6 do
    for _ = 1 to 150 do
      let id = 1 + Lsm_util.Rng.int rng 600 in
      let r =
        tw ~user:(Lsm_util.Rng.int rng 100) ~at:(5000 + (1000 * round) + id) id
      in
      D.upsert d r;
      Hashtbl.replace model id r
    done;
    D.flush_now d;
    Alcotest.(check int)
      (Printf.sprintf "%s round %d: pk components = primary" name round)
      (D.Prim.component_count (D.primary d))
      (D.Pk.component_count pk)
  done;
  check_consistency d model name

let prop_cm_protocols_lose_nothing =
  (* Random batch layouts, writer mixes and interleaving rates: both
     protected protocols keep every committed record exactly once. *)
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25 ~name:"cm protocols lose no updates"
       QCheck2.Gen.(
         tup4 (int_range 2 5) (int_range 50 200) (int_range 0 100)
           (int_range 1 8))
       (fun (comps, per_comp, upd_pct, rate8) ->
         List.for_all
           (fun method_ ->
             let device =
               Lsm_sim.Device.custom ~name:"t" ~page_size:1024 ~seek_us:1000.0
                 ~read_us_per_page:100.0 ~write_us_per_page:100.0
             in
             let env = Lsm_sim.Env.create ~cache_bytes:(1024 * 256) device in
             let d =
               D.create ~filter_key:Tweet.created_at
                 ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
                 env
                 { D.default_config with strategy = Lsm_core.Strategy.mutable_bitmap }
             in
             D.set_auto_maintenance d false;
             let model = Hashtbl.create 256 in
             let next = ref 0 in
             for _b = 1 to comps do
               for _ = 1 to per_comp do
                 incr next;
                 let r = tw ~user:(!next mod 97) ~at:!next !next in
                 D.upsert d r;
                 Hashtbl.replace model !next r
               done;
               D.flush_memory d
             done;
             let max_id = !next in
             let wrng = Lsm_util.Rng.create (comps * 1000 + per_comp) in
             let next_write () =
               if Lsm_util.Rng.int wrng 100 < upd_pct then begin
                 let id = 1 + Lsm_util.Rng.int wrng max_id in
                 let r = tw ~user:(Lsm_util.Rng.int wrng 97) ~at:(max_id + id) id in
                 Hashtbl.replace model id r;
                 CM.Upsert r
               end
               else begin
                 incr next;
                 let r = tw ~user:(!next mod 97) ~at:!next !next in
                 Hashtbl.replace model !next r;
                 CM.Upsert r
               end
             in
             let _ =
               CM.run d ~method_ ~next_write
                 ~writer_ops_per_row:(Float.of_int rate8 /. 8.0)
                 ()
             in
             (* Every record visible with the right value, counted once. *)
             Hashtbl.fold
               (fun id r acc ->
                 acc
                 && match D.point_query d id with
                    | Some got -> got.Tweet.user_id = r.Tweet.user_id
                    | None -> false)
               model true
             && D.query_time_range d ~tlo:0 ~thi:max_int ~f:ignore
                = Hashtbl.length model)
           [ CM.Lock; CM.Side_file ]))

let () =
  Alcotest.run "lsm_txn"
    [
      ( "locks",
        [
          Alcotest.test_case "s compat" `Quick test_lock_s_compat;
          Alcotest.test_case "x exclusive" `Quick test_lock_x_exclusive;
          Alcotest.test_case "upgrade" `Quick test_lock_upgrade;
          Alcotest.test_case "counts + cleanup" `Quick test_lock_counts_and_cleanup;
        ] );
      ( "wal",
        [
          Alcotest.test_case "basic" `Quick test_wal_basic;
          Alcotest.test_case "torn tail edge cases" `Quick
            test_torn_tail_edge_cases;
          prop_wal_columns_match_model;
          Alcotest.test_case "state: one byte per txn" `Quick
            test_wal_state_bytes;
        ] );
      ("side-file", [ Alcotest.test_case "basic" `Quick test_side_file ]);
      ( "concurrent-merge",
        [
          Alcotest.test_case "lock method correct" `Quick test_cm_lock_correct;
          Alcotest.test_case "side-file method correct" `Quick
            test_cm_side_file_correct;
          Alcotest.test_case "overhead ordering" `Quick test_cm_overhead_ordering;
          Alcotest.test_case "components after" `Quick test_cm_components_after;
          Alcotest.test_case "lock: later merges stay aligned" `Quick
            (test_cm_then_merges_aligned CM.Lock);
          Alcotest.test_case "side-file: later merges stay aligned" `Quick
            (test_cm_then_merges_aligned CM.Side_file);
          Alcotest.test_case "baseline: later merges stay aligned" `Quick
            (test_cm_then_merges_aligned CM.Baseline);
          prop_cm_protocols_lose_nothing;
        ] );
    ]
