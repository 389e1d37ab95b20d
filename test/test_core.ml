(* Tests for Lsm_core.Dataset: ingestion under every maintenance strategy,
   cross-strategy query equivalence, repair correctness, filter queries.

   The central property: whatever the maintenance strategy and whenever
   flushes/merges/repairs happen, queries return exactly what the
   reference model (Lsm_faultsim.Model) says they should. *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(1024 * 128) device

let secondaries =
  [
    Lsm_core.Record.secondary "user_id" Tweet.user_id;
    Lsm_core.Record.secondary "location" Tweet.location;
  ]

let mk_dataset ?(strategy = Strategy.eager) ?(mem_budget = 8 * 1024)
    ?(use_pk_index = true) env =
  D.create ~filter_key:Tweet.created_at ~secondaries env
    { D.default_config with strategy; mem_budget; use_pk_index }

(* A tweet with controlled fields for deterministic tests. *)
let tw ?(user = 0) ?(loc = 0) ?(at = 0) id =
  { Tweet.id; user_id = user; location = loc; created_at = at; msg_len = 100 }

module Model = Lsm_faultsim.Model.Make (struct
  type t = Tweet.t

  let pk = Tweet.primary_key
end)

let pks records = List.map Tweet.primary_key records |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Deterministic unit tests *)

let test_insert_and_point_query () =
  let env = mk_env () in
  let d = mk_dataset env in
  Alcotest.(check bool) "inserted" true (D.insert d (tw ~user:5 1) = `Inserted);
  Alcotest.(check bool) "dup" true (D.insert d (tw ~user:9 1) = `Duplicate);
  (match D.point_query d 1 with
  | Some r -> Alcotest.(check int) "original kept" 5 r.Tweet.user_id
  | None -> Alcotest.fail "expected record");
  Alcotest.(check (option reject)) "missing" None
    (Option.map ignore (D.point_query d 2))

let test_upsert_replaces () =
  let env = mk_env () in
  let d = mk_dataset env in
  D.upsert d (tw ~user:5 1);
  D.upsert d (tw ~user:6 1);
  match D.point_query d 1 with
  | Some r -> Alcotest.(check int) "newest" 6 r.Tweet.user_id
  | None -> Alcotest.fail "expected record"

let test_delete_removes () =
  let env = mk_env () in
  let d = mk_dataset env in
  D.upsert d (tw 1);
  D.delete d ~pk:1;
  Alcotest.(check bool) "gone" true (D.point_query d 1 = None);
  (* Deleting a nonexistent key is a no-op. *)
  D.delete d ~pk:42;
  Alcotest.(check bool) "still empty" true (D.point_query d 42 = None)

let test_running_example () =
  (* The UserLocation running example of Figs. 2-4: upsert (101, NY, 2018)
     over (101, CA, 2015); a location query for CA must return only 102. *)
  List.iter
    (fun strategy ->
      let env = mk_env () in
      let d = mk_dataset ~strategy env in
      D.set_auto_maintenance d false;
      let ca = 10 and ny = 20 and ma = 30 in
      D.upsert d (tw ~loc:ca ~at:2015 101);
      D.upsert d (tw ~loc:ca ~at:2016 102);
      D.flush_now d;
      D.upsert d (tw ~loc:ma ~at:2017 103);
      D.upsert d (tw ~loc:ny ~at:2018 101);
      let mode = Strategy.query_mode strategy in
      let got = D.query_secondary d ~sec:"location" ~lo:ca ~hi:ca ~mode () in
      Alcotest.(check (list int))
        (Strategy.name strategy ^ ": only 102")
        [ 102 ] (pks got);
      (* Q2: Time < 2017 must see only (102, CA, 2016) — the memory filter
         handling distinguishes the strategies here. *)
      let matches = ref [] in
      let n =
        D.query_time_range d ~tlo:0 ~thi:2016 ~f:(fun r ->
            matches := Tweet.primary_key r :: !matches)
      in
      Alcotest.(check int) (Strategy.name strategy ^ ": Q2 count") 1 n;
      Alcotest.(check (list int))
        (Strategy.name strategy ^ ": Q2 keys")
        [ 102 ] (List.sort compare !matches))
    [
      Strategy.eager;
      Strategy.validation;
      Strategy.validation_no_repair;
      Strategy.mutable_bitmap;
      Strategy.deleted_key_btree;
    ]

let test_eager_filter_widening () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.eager env in
  D.set_auto_maintenance d false;
  D.upsert d (tw ~at:2015 1);
  D.flush_now d;
  (* Upsert moves record 1 to time 2018; the old version (2015) is deleted.
     A query for old times must not resurrect it. *)
  D.upsert d (tw ~at:2018 1);
  let n = D.query_time_range d ~tlo:0 ~thi:2016 ~f:ignore in
  Alcotest.(check int) "old version invisible" 0 n

let test_index_only_queries () =
  List.iter
    (fun strategy ->
      let env = mk_env () in
      let d = mk_dataset ~strategy env in
      D.set_auto_maintenance d false;
      D.upsert d (tw ~user:10 1);
      D.upsert d (tw ~user:20 2);
      D.flush_now d;
      D.upsert d (tw ~user:30 1);
      (* key 1 moved out of [5,25]; only key 2 remains *)
      let mode = Strategy.query_mode strategy in
      let got = D.query_secondary_keys d ~sec:"user_id" ~lo:5 ~hi:25 ~mode () in
      Alcotest.(check (list (pair int int)))
        (Strategy.name strategy)
        [ (20, 2) ]
        (List.sort compare got))
    [
      Strategy.eager;
      Strategy.validation_no_repair;
      Strategy.mutable_bitmap;
      Strategy.deleted_key_btree;
    ]

(* The one step where the strategies differ: how a write retires the
   key's old version.  Upsert over a version on disk, then delete a key
   that never existed, and observe what each strategy wrote.  Columns:
   secondary anti-matter plus a widened memory filter (Eager), a flipped
   pk bit (Mutable-bitmap), a deleted-key entry (Deleted-key), and
   whether a delete of an absent key is blind. *)
let write_step_table =
  [
    (Strategy.eager, true, false, false, false);
    (Strategy.validation, false, false, false, true);
    (Strategy.validation_no_repair, false, false, false, true);
    (Strategy.validation_bloom_opt, false, false, false, true);
    (Strategy.mutable_bitmap, false, true, false, true);
    (Strategy.deleted_key_btree, false, false, true, true);
  ]

let test_write_step_per_strategy () =
  List.iter
    (fun (strategy, antimatter, bit_flipped, del_keyed, blind_delete) ->
      let name what = Strategy.name strategy ^ ": " ^ what in
      let env = mk_env () in
      let d = mk_dataset ~strategy env in
      D.set_auto_maintenance d false;
      D.upsert d (tw ~user:5 ~loc:7 ~at:2015 1);
      D.flush_now d;
      D.upsert d (tw ~user:6 ~loc:7 ~at:2018 1);
      let sec_mem name (sk, pk) =
        D.Sec.mem_find (D.secondary d name).D.tree sk pk
      in
      let is_del = function
        | Some e -> not (Lsm_core.Dataset.Entry.is_put e)
        | None -> false
      in
      Alcotest.(check bool)
        (name "old user_id anti-mattered")
        antimatter
        (is_del (sec_mem "user_id" (5, 1)));
      Alcotest.(check bool)
        (name "unchanged location left alone")
        false
        (is_del (sec_mem "location" (7, 1)));
      Alcotest.(check (option (pair int int)))
        (name "memory filter")
        (Some ((if antimatter then 2015 else 2018), 2018))
        (D.Prim.mem_filter (D.primary d));
      let pkt = Option.get (D.pk_index d) in
      (match (D.Pk.disk_find pkt 1, D.Prim.disk_find (D.primary d) 1) with
      | Some (kc, kpos), Some (pc, ppos) ->
          Alcotest.(check bool)
            (name "pk bit flipped")
            bit_flipped
            (not (D.Pk.row_valid kc kpos));
          Alcotest.(check bool)
            (name "primary sees the bit")
            bit_flipped
            (not (D.Prim.row_valid pc ppos))
      | _ -> Alcotest.fail (name "old version not on disk"));
      Array.iter
        (fun s ->
          Alcotest.(check bool)
            (name ("del tree of " ^ s.D.sec_name))
            del_keyed
            (match s.D.del_tree with
            | Some dt -> D.Pk.mem_find dt 1 1 <> None
            | None -> false))
        (D.secondaries d);
      let deletes = (D.stats d).D.n_deletes in
      D.delete d ~pk:42;
      Alcotest.(check bool)
        (name "pk tombstone for an absent key")
        blind_delete
        (D.Pk.mem_find pkt 42 42 <> None);
      Alcotest.(check int)
        (name "n_deletes")
        (deletes + if blind_delete then 1 else 0)
        (D.stats d).D.n_deletes)
    write_step_table

let test_insert_without_pk_index () =
  let env = mk_env () in
  let d = mk_dataset ~use_pk_index:false env in
  Alcotest.(check bool) "ok" true (D.insert d (tw 1) = `Inserted);
  D.flush_now d;
  Alcotest.(check bool) "dup via primary" true (D.insert d (tw 1) = `Duplicate)

(* ------------------------------------------------------------------ *)
(* Cross-strategy model equivalence property *)

type op = Ins of int * int * int | Ups of int * int * int | Del of int

let op_gen =
  (* Small key space to force collisions, updates and deletes. *)
  QCheck2.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun k u t -> Ins (k, u, t))
            (int_range 1 40) (int_range 0 100) (int_range 1 1000) );
        ( 5,
          map3
            (fun k u t -> Ups (k, u, t))
            (int_range 1 40) (int_range 0 100) (int_range 1 1000) );
        (2, map (fun k -> Del k) (int_range 1 40));
      ])

let run_ops d ops =
  List.iter
    (fun op ->
      match op with
      | Ins (k, u, at) -> ignore (D.insert d (tw ~user:u ~loc:(u mod 7) ~at k))
      | Ups (k, u, at) -> D.upsert d (tw ~user:u ~loc:(u mod 7) ~at k)
      | Del k -> D.delete d ~pk:k)
    ops

let run_model ops =
  let m = Model.create () in
  List.iter
    (function
      | Ins (k, u, at) ->
          (* Insert rejects duplicates: the first version stays. *)
          if Model.point m k = None then
            Model.upsert m (tw ~user:u ~loc:(u mod 7) ~at k)
      | Ups (k, u, at) -> Model.upsert m (tw ~user:u ~loc:(u mod 7) ~at k)
      | Del k -> Model.delete m k)
    ops;
  m

let strategies_under_test =
  [
    (Strategy.eager, [ `Assume_valid; `Direct; `Timestamp ]);
    (Strategy.validation, [ `Direct; `Timestamp ]);
    (Strategy.validation_no_repair, [ `Direct; `Timestamp ]);
    (Strategy.validation_bloom_opt, [ `Direct; `Timestamp ]);
    (Strategy.mutable_bitmap, [ `Direct; `Timestamp ]);
    (Strategy.deleted_key_btree, [ `Timestamp ]);
  ]

let prop_strategies_agree_with_model =
  qtest ~count:80 "all strategies = model (sec + time + point queries)"
    QCheck2.Gen.(
      pair (list_size (int_range 1 150) op_gen)
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (ops, (b1, b2)) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let model = run_model ops in
      let expected_sec = pks (Model.range_by model Tweet.user_id ~lo ~hi) in
      let expected_time =
        pks (Model.range_by model Tweet.created_at ~lo:100 ~hi:700)
      in
      List.for_all
        (fun (strategy, modes) ->
          let env = mk_env () in
          (* Tiny budget: many flushes and merges mid-stream. *)
          let d = mk_dataset ~strategy ~mem_budget:2048 env in
          run_ops d ops;
          (* Secondary queries in every supported validation mode. *)
          List.for_all
            (fun mode ->
              pks (D.query_secondary d ~sec:"user_id" ~lo ~hi ~mode ())
              = expected_sec)
            modes
          (* Time-range query. *)
          && (let got = ref [] in
              ignore
                (D.query_time_range d ~tlo:100 ~thi:700 ~f:(fun r ->
                     got := Tweet.primary_key r :: !got));
              List.sort compare !got = expected_time)
          (* Point queries. *)
          && List.for_all
               (fun k ->
                 match (D.point_query d k, Model.point model k) with
                 | Some r, Some r' -> r.Tweet.user_id = r'.Tweet.user_id
                 | None, None -> true
                 | _ -> false)
               [ 1; 5; 10; 20; 40 ]
          (* Full scan count. *)
          && D.full_scan d ~f:ignore = Model.count model)
        strategies_under_test)

let prop_repair_preserves_queries =
  qtest ~count:40 "standalone + primary repair never change results"
    QCheck2.Gen.(list_size (int_range 1 120) op_gen)
    (fun ops ->
      let model = run_model ops in
      let expected = pks (Model.range_by model Tweet.user_id ~lo:0 ~hi:50) in
      List.for_all
        (fun repair ->
          let env = mk_env () in
          let d =
            mk_dataset ~strategy:Strategy.validation_no_repair ~mem_budget:2048
              env
          in
          run_ops d ops;
          repair d;
          pks (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:50 ~mode:`Timestamp ())
          = expected
          && pks (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:50 ~mode:`Direct ())
             = expected)
        [
          (fun d -> D.standalone_repair d);
          (fun d -> D.primary_repair d ~with_merge:false);
          (fun d -> D.primary_repair d ~with_merge:true);
          (fun d ->
            D.standalone_repair d;
            D.flush_now d;
            D.standalone_repair d);
        ])

let prop_index_only_agrees =
  qtest ~count:40 "index-only = model for every strategy"
    QCheck2.Gen.(list_size (int_range 1 120) op_gen)
    (fun ops ->
      let model = run_model ops in
      let expected = Model.keys_by model Tweet.user_id ~lo:10 ~hi:60 in
      List.for_all
        (fun strategy ->
          let env = mk_env () in
          let d = mk_dataset ~strategy ~mem_budget:2048 env in
          run_ops d ops;
          let mode = Strategy.query_mode strategy in
          List.sort compare
            (D.query_secondary_keys d ~sec:"user_id" ~lo:10 ~hi:60 ~mode ())
          = expected)
        [
          Strategy.eager;
          Strategy.validation;
          Strategy.validation_no_repair;
          Strategy.mutable_bitmap;
          Strategy.deleted_key_btree;
        ])

(* ------------------------------------------------------------------ *)
(* Repair behaviour details *)

let test_repair_sets_bitmap_bits () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.validation_no_repair env in
  D.set_auto_maintenance d false;
  D.upsert d (tw ~user:10 1);
  D.upsert d (tw ~user:20 2);
  D.flush_now d;
  (* Update both records' user ids; old secondary entries become obsolete. *)
  D.upsert d (tw ~user:30 1);
  D.upsert d (tw ~user:40 2);
  D.flush_now d;
  let sec = (D.secondaries d).(0) in
  let comps = D.Sec.components sec.D.tree in
  let total_invalid () =
    Array.fold_left
      (fun acc c ->
        match c.D.Sec.bitmap with
        | Some b -> acc + Lsm_util.Bitset.count b
        | None -> acc)
      0 comps
  in
  Alcotest.(check int) "nothing invalidated yet" 0 (total_invalid ());
  D.standalone_repair d;
  Alcotest.(check int) "two obsolete entries marked" 2 (total_invalid ());
  (* repairedTS advanced. *)
  Array.iter
    (fun c ->
      Alcotest.(check bool) "repairedTS advanced" true (c.D.Sec.repaired_ts > 0))
    (D.Sec.components sec.D.tree)

let test_repaired_ts_prunes_validation () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.validation env in
  D.set_auto_maintenance d false;
  for i = 1 to 20 do
    D.upsert d (tw ~user:i i)
  done;
  D.flush_now d;
  D.standalone_repair d;
  (* After repair, validating entries from the repaired component should
     not probe any pk components (all have maxTS <= repairedTS). *)
  let st = Lsm_sim.Env.stats env in
  let before = st.Lsm_sim.Io_stats.bloom_probes in
  let got = D.query_secondary_keys d ~sec:"user_id" ~lo:1 ~hi:20 ~mode:`Timestamp () in
  Alcotest.(check int) "all 20 keys" 20 (List.length got);
  Alcotest.(check int) "no bloom probes needed" before
    st.Lsm_sim.Io_stats.bloom_probes

let test_merge_repair_on_merge () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.validation env in
  D.set_auto_maintenance d false;
  D.upsert d (tw ~user:10 1);
  D.flush_now d;
  D.upsert d (tw ~user:20 1);
  D.flush_now d;
  (* Force a merge of the secondary's two components; repair_on_merge must
     drop/invalidate the obsolete (10, 1) entry. *)
  let before = (D.stats d).D.n_repairs in
  let sec = (D.secondaries d).(0) in
  if D.Sec.component_count sec.D.tree >= 2 then begin
    let merged =
      D.Sec.merge sec.D.tree ~first:0
        ~last:(D.Sec.component_count sec.D.tree - 1)
    in
    (* call the repair path as run_merges would *)
    ignore merged
  end;
  D.flush_now d;
  ignore before;
  let got = D.query_secondary_keys d ~sec:"user_id" ~lo:5 ~hi:15 ~mode:`Timestamp () in
  Alcotest.(check (list (pair int int))) "obsolete filtered" [] got

let test_deleted_key_strategy_records_deletes () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.deleted_key_btree env in
  D.set_auto_maintenance d false;
  D.upsert d (tw ~user:10 1);
  D.flush_now d;
  D.upsert d (tw ~user:20 1);
  let sec = (D.secondaries d).(0) in
  match sec.D.del_tree with
  | None -> Alcotest.fail "deleted-key strategy must attach del trees"
  | Some del ->
      Alcotest.(check bool) "pk recorded as superseded" true
        (D.Pk.lookup_one del 1 <> None)

(* Every positive Bloom probe whose search then misses is a false
   positive, counted the same whether repair runs the Bloom-filter
   optimization or not.  Unique keys and a leaky filter make false
   positives certain. *)
let test_bloom_opt_repair_counts_fps () =
  let fps ~bloom_opt =
    let env = mk_env () in
    let d =
      D.create ~filter_key:Tweet.created_at ~secondaries env
        {
          D.default_config with
          strategy = Strategy.validation;
          mem_budget = 1 lsl 30;
          bloom = Some { Lsm_tree.Config.default_bloom with fpr = 0.5 };
        }
    in
    for f = 0 to 5 do
      for i = 1 to 200 do
        let id = (f * 200) + i in
        D.upsert d (tw ~user:id ~loc:id id)
      done;
      D.flush_memory d
    done;
    let st = Lsm_sim.Env.stats env in
    let before = st.Lsm_sim.Io_stats.bloom_fps in
    D.standalone_repair ~bloom_opt d;
    st.Lsm_sim.Io_stats.bloom_fps - before
  in
  Alcotest.(check bool) "baseline repair counts fps" true (fps ~bloom_opt:false > 0);
  Alcotest.(check bool) "bloom-opt repair counts fps" true (fps ~bloom_opt:true > 0)

(* [D.trees] lists every tree once, in flush order, and the per-shard
   memory walk agrees with the whole-memory one. *)
let test_tree_walk () =
  List.iter
    (fun strategy ->
      List.iter
        (fun mem_shards ->
          let d =
            D.create ~filter_key:Tweet.created_at ~secondaries (mk_env ())
              { D.default_config with strategy; mem_shards; mem_budget = 8 * 1024 }
          in
          let label =
            Printf.sprintf "%s, %d shards" (Strategy.name strategy) mem_shards
          in
          let del name =
            if strategy = Strategy.deleted_key_btree then [ "del:" ^ name ] else []
          in
          Alcotest.(check (list string))
            (label ^ ": trees")
            ([ "primary"; "pk-index"; "sec:user_id" ] @ del "user_id"
            @ ("sec:location" :: del "location"))
            (Array.to_list
               (Array.map (fun (tr : Lsm_tree.tree) -> tr.name) (D.trees d)));
          let rng = Random.State.make [| mem_shards |] in
          for i = 1 to 300 do
            let pk = Random.State.int rng 60 in
            if Random.State.int rng 5 = 0 then D.delete d ~pk
            else D.upsert d (tw ~user:(Random.State.int rng 9) ~at:i pk);
            let shards = List.init (D.mem_shards d) (D.mem_shard_bytes d) in
            Alcotest.(check int)
              (label ^ ": shard bytes sum to memory bytes")
              (D.total_mem_bytes d)
              (List.fold_left ( + ) 0 shards)
          done;
          (* Every write's budget check runs this walk: it must not
             allocate. *)
          let w0 = Gc.minor_words () in
          for _ = 1 to 1000 do
            ignore (Sys.opaque_identity (D.total_mem_bytes d))
          done;
          let words = Gc.minor_words () -. w0 in
          if words > 16.0 then
            Alcotest.failf "%s: total_mem_bytes allocated %.0f words" label words)
        [ 1; 3 ])
    Strategy.
      [
        eager;
        validation;
        validation_no_repair;
        validation_bloom_opt;
        mutable_bitmap;
        deleted_key_btree;
      ]

(* ------------------------------------------------------------------ *)
(* Partitioned cluster (Sec. 2.2): routing, isolation, equivalence *)

module P = Lsm_core.Partitioned.Make (Lsm_workload.Tweet.Record)

let mk_cluster ?(strategy = Strategy.validation) ?(partitions = 4)
    ?(mem_budget = 4 * 1024) () =
  P.create ~filter_key:Tweet.created_at ~secondaries
    ~mk_env:(fun _ -> mk_env ())
    ~partitions
    { D.default_config with strategy; mem_budget }

let test_route_stable_and_total () =
  let p = mk_cluster () in
  let seen = Array.make 4 false in
  for pk = 0 to 999 do
    let r = P.route p pk in
    Alcotest.(check bool) "partition in range" true (r >= 0 && r < 4);
    Alcotest.(check int) "route is stable" r (P.route p pk);
    seen.(r) <- true
  done;
  Alcotest.(check bool) "every partition owns some keys" true
    (Array.for_all Fun.id seen)

(* A point query must touch exactly the owning partition: no simulated
   time and no I/O-stat movement (reads, cache, bloom, comparisons) on
   any other node. *)
let test_point_query_touches_owner_only () =
  let p = mk_cluster () in
  for i = 1 to 200 do
    P.upsert p (tw ~user:i ~at:i i)
  done;
  P.flush_now p;
  let snap i =
    let s = Lsm_sim.Env.stats (P.env p i) in
    ( s.Lsm_sim.Io_stats.pages_read + s.Lsm_sim.Io_stats.cache_hits
      + s.Lsm_sim.Io_stats.cache_misses + s.Lsm_sim.Io_stats.bloom_probes
      + s.Lsm_sim.Io_stats.comparisons,
      Lsm_sim.Env.now_us (P.env p i) )
  in
  List.iter
    (fun pk ->
      let owner = P.route p pk in
      let before = Array.init 4 snap in
      ignore (P.point_query p pk);
      Array.iteri
        (fun i b ->
          if i <> owner then
            Alcotest.(check (pair int (float 0.0)))
              (Printf.sprintf "partition %d idle for pk %d" i pk)
              b (snap i))
        before;
      Alcotest.(check bool)
        (Printf.sprintf "owner %d did the work for pk %d" owner pk)
        true
        (fst (snap owner) > fst before.(owner)))
    [ 1; 2; 3; 5; 17; 100 ]

let test_batch_matches_point_queries () =
  let p = mk_cluster () in
  for i = 1 to 300 do
    P.upsert p (tw ~user:(i mod 50) ~at:i i)
  done;
  P.flush_now p;
  (* Present and absent keys, spread over all partitions. *)
  let keys = Array.init 80 (fun i -> i * 7 mod 320) in
  let got = Hashtbl.create 64 in
  P.point_query_batch p keys ~emit:(fun pk r -> Hashtbl.replace got pk r);
  Alcotest.(check int) "emit fires once per key" (Array.length keys)
    (Hashtbl.length got);
  Array.iter
    (fun pk ->
      match Hashtbl.find_opt got pk with
      | None -> Alcotest.failf "emit missed pk %d" pk
      | Some r ->
          Alcotest.(check bool)
            (Printf.sprintf "batch = point for pk %d" pk)
            true
            (r = P.point_query p pk))
    keys

let run_ops_p p ops =
  List.iter
    (fun op ->
      match op with
      | Ins (k, u, at) -> ignore (P.insert p (tw ~user:u ~loc:(u mod 7) ~at k))
      | Ups (k, u, at) -> P.upsert p (tw ~user:u ~loc:(u mod 7) ~at k)
      | Del k -> P.delete p ~pk:k)
    ops

let prop_partitioned_equals_single =
  qtest ~count:40 "partitioned N=4 = single dataset (point/sec/time/scan)"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) op_gen)
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (ops, (b1, b2)) ->
      let lo = min b1 b2 and hi = max b1 b2 in
      let env = mk_env () in
      let d = mk_dataset ~strategy:Strategy.validation ~mem_budget:2048 env in
      run_ops d ops;
      let p = mk_cluster ~mem_budget:2048 () in
      run_ops_p p ops;
      List.for_all
        (fun k -> P.point_query p k = D.point_query d k)
        (List.init 40 (fun i -> i + 1))
      && pks (P.query_secondary p ~sec:"user_id" ~lo ~hi ~mode:`Timestamp ())
         = pks (D.query_secondary d ~sec:"user_id" ~lo ~hi ~mode:`Timestamp ())
      && P.full_scan p ~f:ignore = D.full_scan d ~f:ignore
      &&
      let got_p = ref [] and got_d = ref [] in
      ignore
        (P.query_time_range p ~tlo:100 ~thi:700 ~f:(fun r ->
             got_p := Tweet.primary_key r :: !got_p));
      ignore
        (D.query_time_range d ~tlo:100 ~thi:700 ~f:(fun r ->
             got_d := Tweet.primary_key r :: !got_d));
      List.sort compare !got_p = List.sort compare !got_d)

(* ------------------------------------------------------------------ *)
(* Ingestion cost sanity: the paper's headline claims, in miniature *)

let ingest_n strategy n =
  let env = mk_env () in
  let d = mk_dataset ~strategy ~mem_budget:(16 * 1024) env in
  let stream =
    Lsm_workload.Streams.upsert_stream ~seed:99 ~update_ratio:0.5
      ~distribution:`Uniform ()
  in
  for _ = 1 to n do
    match Lsm_workload.Streams.next stream with
    | Lsm_workload.Streams.Upsert r -> D.upsert d r
    | _ -> ()
  done;
  Lsm_sim.Env.now_us env

let test_validation_ingests_faster_than_eager () =
  let eager = ingest_n Strategy.eager 1500 in
  let validation = ingest_n Strategy.validation_no_repair 1500 in
  Alcotest.(check bool)
    (Printf.sprintf "validation %.0fus < eager %.0fus" validation eager)
    true (validation < eager)

let test_mutable_bitmap_cheaper_than_eager () =
  let eager = ingest_n Strategy.eager 1500 in
  let mb = ingest_n Strategy.mutable_bitmap 1500 in
  Alcotest.(check bool)
    (Printf.sprintf "mutable-bitmap %.0fus < eager %.0fus" mb eager)
    true (mb < eager)

(* Allocation budget of timestamp validation: minor words per secondary
   entry of an index-only, timestamp-validated query (Fig. 17) over a
   Validation dataset of 3,000 upserts, half of them updates, flushed
   and merged into several components with memory left over.  The
   entries are searched, sorted, validated in place and listed: the
   search's entry record and list cell, the sorted array, each probe's
   skip closure, and each valid entry's output pair and list cell make
   up most of the 25.8 words. *)
let test_validate_alloc_budget () =
  let env = mk_env () in
  let d = mk_dataset ~strategy:Strategy.validation_no_repair env in
  let stream =
    Lsm_workload.Streams.upsert_stream ~seed:7 ~update_ratio:0.5
      ~distribution:`Uniform ()
  in
  for _ = 1 to 3_000 do
    match Lsm_workload.Streams.next stream with
    | Lsm_workload.Streams.Upsert r -> D.upsert d r
    | _ -> ()
  done;
  let query mode =
    D.query_secondary_keys d ~sec:"user_id" ~lo:0 ~hi:max_int ~mode ()
  in
  let entries = List.length (query `Assume_valid) in
  ignore (query `Timestamp);
  let w0 = Gc.minor_words () in
  let valid = List.length (query `Timestamp) in
  let words = (Gc.minor_words () -. w0) /. Float.of_int entries in
  let budget = 27.0 in
  Printf.printf "%d entries, %d valid: %.3f minor words per entry (budget %.1f)\n"
    entries valid words budget;
  Alcotest.(check bool) "some entries discarded" true (valid < entries);
  if words > budget then
    Alcotest.failf "%.3f minor words per validated entry, budget %.1f" words
      budget

let () =
  Alcotest.run "lsm_core"
    [
      ( "basic",
        [
          Alcotest.test_case "insert + point query" `Quick
            test_insert_and_point_query;
          Alcotest.test_case "upsert replaces" `Quick test_upsert_replaces;
          Alcotest.test_case "delete removes" `Quick test_delete_removes;
          Alcotest.test_case "running example (Figs. 2-4)" `Quick
            test_running_example;
          Alcotest.test_case "eager filter widening" `Quick
            test_eager_filter_widening;
          Alcotest.test_case "index-only queries" `Quick test_index_only_queries;
          Alcotest.test_case "write step per strategy" `Quick
            test_write_step_per_strategy;
          Alcotest.test_case "insert without pk index" `Quick
            test_insert_without_pk_index;
          Alcotest.test_case "one walk over the trees" `Quick test_tree_walk;
        ] );
      ( "model",
        [
          prop_strategies_agree_with_model;
          prop_repair_preserves_queries;
          prop_index_only_agrees;
        ] );
      ( "repair",
        [
          Alcotest.test_case "repair sets bitmap bits" `Quick
            test_repair_sets_bitmap_bits;
          Alcotest.test_case "repairedTS prunes validation" `Quick
            test_repaired_ts_prunes_validation;
          Alcotest.test_case "merge repair cleans" `Quick test_merge_repair_on_merge;
          Alcotest.test_case "deleted-key records deletes" `Quick
            test_deleted_key_strategy_records_deletes;
          Alcotest.test_case "bloom-opt repair counts false positives" `Quick
            test_bloom_opt_repair_counts_fps;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "route stable and total" `Quick
            test_route_stable_and_total;
          Alcotest.test_case "point query touches owner only" `Quick
            test_point_query_touches_owner_only;
          Alcotest.test_case "batch = point queries" `Quick
            test_batch_matches_point_queries;
          prop_partitioned_equals_single;
        ] );
      ( "cost",
        [
          Alcotest.test_case "validation faster than eager" `Quick
            test_validation_ingests_faster_than_eager;
          Alcotest.test_case "mutable-bitmap faster than eager" `Quick
            test_mutable_bitmap_cheaper_than_eager;
          Alcotest.test_case "timestamp validation: minor words per entry"
            `Quick test_validate_alloc_budget;
        ] );
    ]
