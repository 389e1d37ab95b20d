(* Differential suite for REMIX-style sorted views (Sorted_view): every
   scan served from a view must be byte-identical — (key, ts, value,
   src_repaired) — to the k-way heap merge it replaces, at the tree
   level across random specs and bitmap invalidations, and at the
   dataset level across maintenance strategies, under quarantine, and
   after healing.  A deterministic fixture also pins the point of the
   exercise: the view scan must cost at most half the heap scan (in
   charged comparisons and simulated time) at 8 components. *)

module L = Lsm_tree.Make (Lsm_util.Keys.Int_value)
module Entry = Lsm_tree.Entry
module Env = Lsm_sim.Env
module Io = Lsm_sim.Io_stats

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env ?(cache_bytes = 1024 * 1024) () =
  let device =
    Lsm_sim.Device.custom ~name:"view-test" ~page_size:256 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Env.create ~cache_bytes device

let mk_tree env =
  L.create env (Lsm_tree.Config.make ~validity_bitmap:true "view-t")

(* ------------------------------------------------------------------ *)
(* Tree-level differential: random ops + random spec, view vs heap *)

type op = Put of int | Del of int | Flush

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map (fun k -> Put k) (int_range 1 40));
        (2, map (fun k -> Del k) (int_range 1 40));
        (2, return Flush);
      ])

let apply_ops t ops =
  let ts = ref 0 in
  List.iter
    (fun op ->
      incr ts;
      match op with
      | Put k -> L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put (k * 1000 + !ts))
      | Del k -> L.write t ~key:k ~pk:k ~ts:!ts Entry.Del
      | Flush -> L.flush t)
    ops

(* Invalidate a deterministic pseudo-random sprinkling of rows, driven by
   a seed so the qcheck case is reproducible. *)
let sprinkle_invalid t seed =
  let rng = Lsm_util.Rng.create seed in
  Array.iter
    (fun c ->
      let n = L.component_rows c in
      for _ = 1 to n / 4 do
        L.invalidate c (Lsm_util.Rng.int rng n)
      done)
    (L.components t)

let spec_gen =
  QCheck2.Gen.(
    let key_opt = opt (int_range 0 45) in
    map
      (fun ((lo, hi), (respect_bitmap, emit_del), (include_mem, only_mask)) ->
        (lo, hi, respect_bitmap, emit_del, include_mem, only_mask))
      (triple (pair key_opt key_opt) (pair bool bool)
         (pair bool (opt (list_size (int_range 0 6) bool)))))

(* The rows a scan emits, as (key, ts, value, src_repaired), [None] for
   anti-matter, which it reports only with [emit_del]. *)
let collect ?(emit_del = false) t spec =
  let acc = ref [] in
  let on_del key _ ts ~src_repaired =
    acc := (key, ts, None, src_repaired) :: !acc
  in
  L.scan t spec
    ?on_del:(if emit_del then Some on_del else None)
    ~f:(fun key _ ts value ~src_repaired ->
      acc := (key, ts, Some value, src_repaired) :: !acc);
  List.rev !acc

let spec_of t (lo, hi, respect_bitmap, emit_del, include_mem, only_mask) =
  let comps = L.components t in
  let only =
    Option.map
      (fun mask ->
        List.filteri
          (fun i _ -> match List.nth_opt mask i with Some b -> b | None -> false)
          (Array.to_list comps))
      only_mask
  in
  {
    L.lo;
    lo_pk = min_int;
    hi = (match (lo, hi) with Some l, Some h when h < l -> Some l | _ -> hi);
    hi_pk = max_int;
    reconcile = true;
    respect_bitmap;
    include_mem;
    only;
    filter = None;
  },
  emit_del

let prop_tree_view_equals_heap =
  qtest ~count:200 "tree scan: view == heap (random specs, bitmaps)"
    QCheck2.Gen.(
      triple (list_size (int_range 1 150) op_gen) spec_gen (int_range 0 9999))
    (fun (ops, rawspec, seed) ->
      let t = mk_tree (mk_env ()) in
      apply_ops t ops;
      sprinkle_invalid t seed;
      let spec, emit_del = spec_of t rawspec in
      L.set_sorted_views t false;
      let want = collect ~emit_del t spec in
      L.set_sorted_views t true;
      (* Unrestricted warm-up scan so [only]-restricted specs can also be
         served from a fresh view rather than always falling back. *)
      ignore (collect t L.full_scan_spec);
      let got = collect ~emit_del t spec in
      if got <> want then
        QCheck2.Test.fail_reportf
          "view scan diverged (%d vs %d rows, %d comps)" (List.length got)
          (List.length want) (L.component_count t)
      else true)

(* ------------------------------------------------------------------ *)
(* Dataset-level differential: strategies, quarantine, heal *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet

type dop = Ups of int * int * int | Ddel of int | Dflush

let dop_gen =
  QCheck2.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun k u at -> Ups (k, u, at))
            (int_range 1 60) (int_range 0 20) (int_range 1 1000) );
        (2, map (fun k -> Ddel k) (int_range 1 60));
        (1, return Dflush);
      ])

let tw ~pk ~user ~at =
  { Tweet.id = pk; user_id = user; location = user mod 7; created_at = at;
    msg_len = 100 }

let mk_denv () =
  let device =
    Lsm_sim.Device.custom ~name:"view-diff" ~page_size:1024 ~seek_us:100.0
      ~read_us_per_page:10.0 ~write_us_per_page:10.0
  in
  Env.create ~cache_bytes:(64 * 1024) device

let run_dataset ~views strategy ops =
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      (mk_denv ())
      { D.default_config with strategy; mem_budget = 2048 }
  in
  D.set_sorted_views d views;
  List.iter
    (function
      | Ups (k, u, at) -> D.upsert d (tw ~pk:k ~user:u ~at)
      | Ddel k -> D.delete d ~pk:k
      | Dflush -> D.flush_now d)
    ops;
  d

let observe d mode =
  let scanned = ref [] in
  let n = D.full_scan d ~f:(fun r -> scanned := Tweet.primary_key r :: !scanned) in
  ( List.init 60 (fun i -> D.point_query d (i + 1)),
    n,
    List.sort compare !scanned,
    List.sort compare
      (List.map Tweet.primary_key
         (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:12 ~mode ())),
    D.query_time_range d ~tlo:200 ~thi:800 ~f:(fun _ -> ()) )

let quarantine_everything d =
  Array.iter (fun c -> D.Prim.quarantine (D.primary d) c)
    (D.Prim.components (D.primary d));
  (match D.pk_index d with
  | Some pk -> Array.iter (fun c -> D.Pk.quarantine pk c) (D.Pk.components pk)
  | None -> ());
  Array.iter
    (fun (s : D.sec_index) ->
      Array.iter (fun c -> D.Sec.quarantine s.D.tree c) (D.Sec.components s.D.tree);
      Option.iter
        (fun del -> Array.iter (fun c -> D.Pk.quarantine del c) (D.Pk.components del))
        s.D.del_tree)
    (D.secondaries d)

let strategies_under_test =
  [
    (Strategy.eager, `Assume_valid);
    (Strategy.validation, `Timestamp);
    (Strategy.mutable_bitmap, `Direct);
    (Strategy.deleted_key_btree, `Timestamp);
  ]

let prop_dataset_view_equals_heap =
  qtest ~count:40 "dataset: views on == views off (+quarantine, +heal)"
    QCheck2.Gen.(list_size (int_range 1 120) dop_gen)
    (fun ops ->
      List.for_all
        (fun (strategy, mode) ->
          let dv = run_dataset ~views:true strategy ops in
          let dh = run_dataset ~views:false strategy ops in
          let healthy = observe dv mode in
          if healthy <> observe dh mode then
            QCheck2.Test.fail_reportf "%s: views diverge on healthy data"
              (Strategy.name strategy);
          quarantine_everything dv;
          quarantine_everything dh;
          if observe dv mode <> observe dh mode then
            QCheck2.Test.fail_reportf "%s: views diverge under quarantine"
              (Strategy.name strategy);
          D.heal dv;
          D.heal dh;
          let healed = observe dv mode in
          if healed <> observe dh mode then
            QCheck2.Test.fail_reportf "%s: views diverge after heal"
              (Strategy.name strategy);
          if healed <> healthy then
            QCheck2.Test.fail_reportf "%s: heal changed answers"
              (Strategy.name strategy);
          true)
        strategies_under_test)

(* ------------------------------------------------------------------ *)
(* Cost: the view must at least halve the scan cost at 8 components *)

let build_overlapping_tree ncomps rows_per_comp =
  let env = mk_env () in
  let t = mk_tree env in
  let ts = ref 0 in
  for c = 0 to ncomps - 1 do
    for i = 0 to rows_per_comp - 1 do
      incr ts;
      (* ~50% of keys collide with other components' keys *)
      let key = ((i * 4) + (c * 2)) mod (rows_per_comp * 2) in
      L.write t ~key ~pk:key ~ts:!ts (Entry.Put ((key * 1000) + !ts))
    done;
    L.flush t
  done;
  (env, t)

let measure_scan env t =
  let rows = ref 0 in
  ignore (L.scan t L.full_scan_spec ~f:(fun _ _ _ _ ~src_repaired:_ -> incr rows));
  let before_cmp = (Env.stats env).Io.comparisons in
  let before_us = Env.now_us env in
  let n = ref 0 in
  L.scan t L.full_scan_spec ~f:(fun _ _ _ _ ~src_repaired:_ -> incr n);
  ( !n,
    (Env.stats env).Io.comparisons - before_cmp,
    Env.now_us env -. before_us )

let test_view_halves_scan_cost () =
  let env, t = build_overlapping_tree 8 2000 in
  L.set_sorted_views t false;
  let rows_h, cmp_h, us_h = measure_scan env t in
  L.set_sorted_views t true;
  let rows_v, cmp_v, us_v = measure_scan env t in
  Alcotest.(check int) "same rows" rows_h rows_v;
  Alcotest.(check int) "8 components" 8 (L.component_count t);
  Alcotest.(check bool)
    (Printf.sprintf "comparisons halved (%d vs %d)" cmp_v cmp_h)
    true
    (cmp_v * 2 <= cmp_h);
  Alcotest.(check bool)
    (Printf.sprintf "sim time halved (%.0fus vs %.0fus)" us_v us_h)
    true
    (us_v *. 2.0 <= us_h)

let test_view_lifecycle () =
  let _env, t = build_overlapping_tree 3 200 in
  Alcotest.(check bool) "no view before scan" true (L.view_info t = None);
  ignore (collect t L.full_scan_spec);
  (match L.view_info t with
  | Some (_, _, runs) -> Alcotest.(check int) "covers 3 runs" 3 runs
  | None -> Alcotest.fail "scan should have built a view");
  (* A component-list change invalidates; the next scan rebuilds. *)
  L.write t ~key:1 ~pk:1 ~ts:99_999 (Entry.Put 1);
  L.flush t;
  Alcotest.(check bool) "flush invalidates" true (L.view_info t = None);
  ignore (collect t L.full_scan_spec);
  (match L.view_info t with
  | Some (_, _, runs) -> Alcotest.(check int) "rebuilt over 4 runs" 4 runs
  | None -> Alcotest.fail "rescan should have rebuilt the view");
  L.set_sorted_views t false;
  Alcotest.(check bool) "disable drops" true (L.view_info t = None)

let () =
  Alcotest.run "lsm_view"
    [
      ( "differential",
        [ prop_tree_view_equals_heap; prop_dataset_view_equals_heap ] );
      ( "cost",
        [
          Alcotest.test_case "view halves 8-comp scan" `Quick
            test_view_halves_scan_cost;
          Alcotest.test_case "lifecycle" `Quick test_view_lifecycle;
        ] );
    ]
