(* Edge-case coverage: boundary behaviour of the disk B+-tree, LSM lookup
   paths (pID hints, disk_find, filterless trees), and dataset corner
   cases (delete-then-reinsert, missing filter key, stats counters). *)

module Dbt = Lsm_btree.Disk_btree
module L = Lsm_tree.Make (Lsm_util.Keys.Int_value)
module Entry = Lsm_tree.Entry
module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env ?(page = 256) () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:page ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(page * 64) device

(* ------------------------------------------------------------------ *)
(* Disk B+-tree boundaries *)

let test_dbt_single_row () =
  let env = mk_env () in
  let t = Dbt.build env ~size_of:(fun _ -> 32) [| 5 |] [||] in
  Alcotest.(check int) "one leaf" 1 (Dbt.leaf_pages t);
  Alcotest.(check int) "hit" 0 (Dbt.find env t 5 0);
  Alcotest.(check int) "below" (-1) (Dbt.find env t 4 0);
  Alcotest.(check int) "above" (-1) (Dbt.find env t 6 0);
  Alcotest.(check int) "lb below" 0 (Dbt.lower_bound_row env t 4 0);
  Alcotest.(check int) "lb above" 1 (Dbt.lower_bound_row env t 6 0)

let test_dbt_rows_bigger_than_page () =
  (* Rows larger than a page: one row per leaf, no crash. *)
  let env = mk_env ~page:64 () in
  let t = Dbt.build env ~size_of:(fun _ -> 200) (Array.init 10 Fun.id) [||] in
  Alcotest.(check int) "one leaf per row" 10 (Dbt.leaf_pages t);
  for i = 0 to 9 do
    Alcotest.(check int) "found" i (Dbt.find env t i 0)
  done

let test_dbt_cursor_descending () =
  (* Stateful cursors must stay correct when queried backwards. *)
  let env = mk_env () in
  let t =
    Dbt.build env ~size_of:(fun _ -> 32) (Array.init 500 (fun i -> i * 2)) [||]
  in
  let c = Dbt.Cursor.create t in
  let ok = ref true in
  for i = 499 downto 0 do
    if Dbt.Cursor.find env c (i * 2) 0 <> i then ok := false
  done;
  Alcotest.(check bool) "descending queries" true !ok

let test_dbt_scan_seek_past_end () =
  let env = mk_env () in
  let t = Dbt.build env ~size_of:(fun _ -> 32) (Array.init 10 Fun.id) [||] in
  let s = Dbt.Scan.seek env t (Some 100) 0 in
  Alcotest.(check int) "empty scan" (-1) (Dbt.Scan.next env s)

let prop_dbt_lower_bound_row =
  qtest "lower_bound_row = model"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_range 0 300))
        (int_range (-5) 305))
    (fun (keys, q) ->
      let env = mk_env () in
      let keys = List.sort_uniq compare keys |> Array.of_list in
      let t = Dbt.build env ~size_of:(fun _ -> 24) keys [||] in
      let expect =
        let rec go i = if i < Array.length keys && keys.(i) < q then go (i + 1) else i in
        go 0
      in
      Dbt.lower_bound_row env t q 0 = expect)

(* ------------------------------------------------------------------ *)
(* LSM lookup paths *)

let mk_tree ?(bloom = true) env =
  L.create env
    (Lsm_tree.Config.make
       ~bloom:(if bloom then Some Lsm_tree.Config.default_bloom else None)
       "t")

let test_disk_find_ignores_mem () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 (Entry.Put 20);
  (match L.disk_find t 1 with
  | Some (c, pos) ->
      Alcotest.(check int) "disk version, not mem" 1 c.L.tss.(pos)
  | None -> Alcotest.fail "disk hit expected");
  Alcotest.(check bool) "mem-only key invisible to disk_find" true
    (L.disk_find t 99 = None)

let test_filterless_tree_no_probes () =
  let env = mk_env () in
  let t = mk_tree ~bloom:false env in
  for i = 1 to 50 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  Lsm_sim.Env.reset_measurement env;
  ignore (L.lookup_one t 25);
  ignore (L.lookup_one t 99);
  Alcotest.(check int) "no bloom probes" 0
    (Lsm_sim.Env.stats env).Lsm_sim.Io_stats.bloom_probes

let prop_hints_preserve_results =
  (* pID hints built from each entry's true timestamp must never change
     lookup results (they may only skip components that cannot hold the
     sought version). *)
  qtest ~count:60 "pID hints never change lookup results"
    QCheck2.Gen.(list_size (int_range 1 150) (pair (int_range 0 50) (int_range 0 999)))
    (fun writes ->
      let env = mk_env () in
      let t = mk_tree env in
      let ts = ref 0 in
      let newest = Hashtbl.create 64 in
      List.iteri
        (fun i (k, v) ->
          incr ts;
          L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put v);
          Hashtbl.replace newest k !ts;
          if i mod 17 = 0 then L.flush t)
        writes;
      L.flush t;
      if L.component_count t >= 3 then ignore (L.merge t ~first:0 ~last:1);
      let keys =
        Hashtbl.fold (fun k _ acc -> k :: acc) newest [] |> List.sort compare
      in
      let qk_hints =
        Array.of_list
          (List.map (fun k -> { L.qkey = k; hint_ts = Hashtbl.find newest k }) keys)
      in
      let qk_plain =
        Array.of_list (List.map (fun k -> { L.qkey = k; hint_ts = 0 }) keys)
      in
      let collect use_hints qks =
        let out = Hashtbl.create 64 in
        L.lookup_batch t
          { L.default_lookup_opts with use_hints }
          qks
          ~emit:(fun k v -> Hashtbl.replace out k v);
        out
      in
      let a = collect true qk_hints and b = collect false qk_plain in
      List.for_all (fun k -> Hashtbl.find a k = Hashtbl.find b k) keys)

let test_hints_skip_components () =
  (* With hints, old components are not even Bloom-probed. *)
  let env = mk_env () in
  let t = mk_tree env in
  for i = 1 to 20 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  for i = 21 to 40 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  let st = Lsm_sim.Env.stats env in
  let run use_hints =
    let before = st.Lsm_sim.Io_stats.bloom_probes in
    L.lookup_batch t
      { L.default_lookup_opts with use_hints }
      [| { L.qkey = 30; hint_ts = 30 } |]
      ~emit:(fun _ _ -> ());
    st.Lsm_sim.Io_stats.bloom_probes - before
  in
  let with_hints = run true and without = run false in
  Alcotest.(check bool)
    (Printf.sprintf "fewer probes with hints (%d <= %d)" with_hints without)
    true
    (with_hints <= without)

(* ------------------------------------------------------------------ *)
(* Dataset corner cases *)

let tw ?(user = 0) ?(at = 1) id =
  { Tweet.id; user_id = user; location = 0; created_at = at; msg_len = 68 }

let mk_dataset ?(strategy = Strategy.eager) ?(no_filter = false) () =
  let env = mk_env ~page:1024 () in
  let filter_key = if no_filter then None else Some Tweet.created_at in
  D.create ?filter_key
    ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
    env
    { D.default_config with strategy; mem_budget = 8 * 1024 }

let test_delete_then_reinsert () =
  List.iter
    (fun strategy ->
      let d = mk_dataset ~strategy () in
      ignore (D.insert d (tw ~user:1 7));
      D.flush_now d;
      D.delete d ~pk:7;
      D.flush_now d;
      Alcotest.(check bool) "gone" true (D.point_query d 7 = None);
      Alcotest.(check bool)
        (Strategy.name strategy ^ ": reinsert accepted")
        true
        (D.insert d (tw ~user:2 7) = `Inserted);
      match D.point_query d 7 with
      | Some r -> Alcotest.(check int) "new record" 2 r.Tweet.user_id
      | None -> Alcotest.fail "reinserted record missing")
    [ Strategy.eager; Strategy.validation; Strategy.mutable_bitmap ]

let test_no_filter_key_raises () =
  let d = mk_dataset ~no_filter:true () in
  D.upsert d (tw 1);
  Alcotest.check_raises "no filter key"
    (Invalid_argument "query_time_range: dataset has no filter key") (fun () ->
      ignore (D.query_time_range d ~tlo:0 ~thi:10 ~f:ignore))

let test_stats_counters () =
  let d = mk_dataset () in
  for i = 1 to 200 do
    D.upsert d (tw ~user:i ~at:i i)
  done;
  D.delete d ~pk:1;
  ignore (D.insert d (tw 1));
  ignore (D.insert d (tw 2)) (* duplicate *);
  let s = D.stats d in
  Alcotest.(check int) "upserts" 200 s.D.n_upserts;
  Alcotest.(check int) "deletes" 1 s.D.n_deletes;
  Alcotest.(check int) "inserts" 1 s.D.n_inserts;
  Alcotest.(check int) "duplicates" 1 s.D.n_duplicates;
  Alcotest.(check bool) "flushed" true (s.D.n_flushes > 0);
  Alcotest.(check bool) "merged" true (s.D.n_merges > 0)

let test_deleted_key_direct_mode () =
  (* Direct validation never needs the deleted-key structures: it fetches
     records and re-checks — must be correct under this strategy too. *)
  let d = mk_dataset ~strategy:Strategy.deleted_key_btree () in
  D.upsert d (tw ~user:10 1);
  D.flush_now d;
  D.upsert d (tw ~user:20 1);
  D.upsert d (tw ~user:10 2);
  let got =
    D.query_secondary d ~sec:"user_id" ~lo:10 ~hi:10 ~mode:`Direct ()
    |> List.map Tweet.primary_key |> List.sort compare
  in
  Alcotest.(check (list int)) "only key 2" [ 2 ] got

let test_secondary_unknown_name () =
  let d = mk_dataset () in
  Alcotest.check_raises "unknown index"
    (Invalid_argument "Dataset: no secondary index named nope") (fun () ->
      ignore (D.query_secondary d ~sec:"nope" ~lo:0 ~hi:1 ~mode:`Assume_valid ()))

let test_empty_dataset_queries () =
  let d = mk_dataset () in
  Alcotest.(check bool) "point" true (D.point_query d 1 = None);
  Alcotest.(check (list reject)) "secondary" []
    (List.map ignore (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:10 ~mode:`Assume_valid ()));
  Alcotest.(check int) "scan" 0 (D.full_scan d ~f:ignore);
  Alcotest.(check int) "time range" 0 (D.query_time_range d ~tlo:0 ~thi:10 ~f:ignore)

let () =
  Alcotest.run "lsm_edge"
    [
      ( "disk-btree",
        [
          Alcotest.test_case "single row" `Quick test_dbt_single_row;
          Alcotest.test_case "rows bigger than page" `Quick
            test_dbt_rows_bigger_than_page;
          Alcotest.test_case "cursor descending" `Quick test_dbt_cursor_descending;
          Alcotest.test_case "seek past end" `Quick test_dbt_scan_seek_past_end;
          prop_dbt_lower_bound_row;
        ] );
      ( "lsm-lookup",
        [
          Alcotest.test_case "disk_find ignores mem" `Quick
            test_disk_find_ignores_mem;
          Alcotest.test_case "filterless no probes" `Quick
            test_filterless_tree_no_probes;
          prop_hints_preserve_results;
          Alcotest.test_case "hints skip components" `Quick
            test_hints_skip_components;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "delete then reinsert" `Quick test_delete_then_reinsert;
          Alcotest.test_case "missing filter key" `Quick test_no_filter_key_raises;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "deleted-key + direct" `Quick
            test_deleted_key_direct_mode;
          Alcotest.test_case "unknown secondary" `Quick test_secondary_unknown_name;
          Alcotest.test_case "empty dataset" `Quick test_empty_dataset_queries;
        ] );
    ]
