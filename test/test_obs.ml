(* Tests for Lsm_obs: histogram bucketing and quantiles, tracer ring
   wraparound and self-time arithmetic, the metrics registry, Chrome
   trace export — and the end-to-end reconciliation property: with
   observability enabled, the I/O counters attributed to top-level spans
   must account for *every* I/O the engine performed. *)

module H = Lsm_obs.Histogram
module M = Lsm_obs.Metrics
module T = Lsm_obs.Tracer
module Env = Lsm_sim.Env
module Io_stats = Lsm_sim.Io_stats
module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Naive substring check — enough for asserting JSON shape. *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check (float 0.0)) "sum" 0.0 (H.sum h);
  Alcotest.(check (float 0.0)) "p50" 0.0 (H.quantile h 0.5)

let test_hist_exact_fields () =
  let h = H.create () in
  List.iter (H.observe h) [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ];
  Alcotest.(check int) "count" 8 (H.count h);
  Alcotest.(check (float 1e-9)) "sum" 31.0 (H.sum h);
  Alcotest.(check (float 1e-9)) "mean" (31.0 /. 8.0) (H.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (H.min_value h);
  Alcotest.(check (float 1e-9)) "max" 9.0 (H.max_value h)

let test_hist_quantiles () =
  (* 1..1000: quantiles must be within the ~9% bucket resolution above
     the true rank value, never below it, and monotone in q. *)
  let h = H.create () in
  for i = 1 to 1000 do
    H.observe h (Float.of_int i)
  done;
  List.iter
    (fun q ->
      let true_v = Float.of_int (int_of_float (ceil (q *. 1000.0))) in
      let v = H.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f >= true" (q *. 100.0))
        true (v >= true_v *. 0.999);
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within 10%%" (q *. 100.0))
        true
        (v <= true_v *. 1.10))
    [ 0.5; 0.9; 0.95; 0.99 ];
  let p50 = H.quantile h 0.5
  and p95 = H.quantile h 0.95
  and p99 = H.quantile h 0.99 in
  Alcotest.(check bool) "monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check (float 1e-9)) "p100 = max" 1000.0 (H.quantile h 1.0)

let test_hist_extremes () =
  (* Values outside the octave range clamp into the edge buckets without
     losing count/sum/max exactness. *)
  let h = H.create () in
  H.observe h 0.0;
  H.observe h 1e-6;
  H.observe h 1e12;
  Alcotest.(check int) "count" 3 (H.count h);
  Alcotest.(check (float 1e-3)) "max exact" 1e12 (H.max_value h);
  Alcotest.(check (float 1e-3)) "p100 capped at max" 1e12 (H.quantile h 1.0);
  H.reset h;
  Alcotest.(check int) "reset" 0 (H.count h)

let prop_hist_quantile_bounds =
  qtest ~count:100 "quantile within resolution of a sorted sample"
    QCheck2.Gen.(list_size (int_range 1 200) (float_bound_exclusive 1e6))
    (fun xs ->
      let xs = List.map (fun x -> Float.abs x +. 1e-3) xs in
      let h = H.create () in
      List.iter (H.observe h) xs;
      let sorted = Array.of_list (List.sort compare xs) in
      let n = Array.length sorted in
      List.for_all
        (fun q ->
          let rank = max 0 (min (n - 1) (int_of_float (ceil (q *. Float.of_int n)) - 1)) in
          let true_v = sorted.(rank) in
          let v = H.quantile h q in
          v >= true_v *. 0.999 && v <= true_v *. 1.10)
        [ 0.5; 0.95; 0.99 ])

(* ------------------------------------------------------------------ *)
(* Tracer *)

(* A manual clock: spans advance it explicitly. *)
let manual () =
  let now = ref 0.0 in
  let t = T.create ~capacity:8 ~clock:(fun () -> !now) () in
  (t, now)

let test_tracer_nesting_self_time () =
  let t, now = manual () in
  T.with_span t "outer" (fun () ->
      now := !now +. 10.0;
      T.with_span t "inner" (fun () -> now := !now +. 30.0);
      now := !now +. 5.0);
  let agg name = List.assoc name (T.aggregates t) in
  Alcotest.(check (float 1e-9)) "outer total" 45.0 (agg "outer").T.a_total_us;
  Alcotest.(check (float 1e-9)) "outer self" 15.0 (agg "outer").T.a_self_us;
  Alcotest.(check (float 1e-9)) "inner total" 30.0 (agg "inner").T.a_total_us;
  Alcotest.(check (float 1e-9)) "inner self" 30.0 (agg "inner").T.a_self_us;
  Alcotest.(check (float 1e-9)) "top-level = outer" 45.0 (T.top_level_us t);
  (* Events: inner completes first, outer second. *)
  let evs = T.events t in
  Alcotest.(check int) "two events" 2 (Array.length evs);
  Alcotest.(check string) "inner first" "inner" evs.(0).T.ev_name;
  Alcotest.(check int) "inner depth" 1 evs.(0).T.ev_depth;
  Alcotest.(check int) "outer depth" 0 evs.(1).T.ev_depth

let test_tracer_ring_wraparound () =
  let t, now = manual () in
  for i = 1 to 20 do
    T.with_span t (Printf.sprintf "s%d" i) (fun () -> now := !now +. 1.0)
  done;
  Alcotest.(check int) "recorded all" 20 (T.recorded t);
  Alcotest.(check int) "dropped overflow" 12 (T.dropped t);
  let evs = T.events t in
  Alcotest.(check int) "ring holds capacity" 8 (Array.length evs);
  (* Oldest-first: the survivors are s13..s20. *)
  Array.iteri
    (fun i e ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d" i)
        (Printf.sprintf "s%d" (13 + i))
        e.T.ev_name)
    evs;
  (* Aggregates survive eviction. *)
  Alcotest.(check int) "agg names" 20 (List.length (T.aggregates t));
  Alcotest.(check (float 1e-9)) "coverage exact" 20.0 (T.top_level_us t)

let test_tracer_exception_safety () =
  let t, now = manual () in
  (try
     T.with_span t "boom" (fun () ->
         now := !now +. 7.0;
         failwith "x")
   with Failure _ -> ());
  Alcotest.(check int) "span still recorded" 1 (T.recorded t);
  Alcotest.(check (float 1e-9)) "duration kept" 7.0 (T.top_level_us t);
  (* The stack unwound: a new span is top-level again. *)
  T.with_span t "next" (fun () -> now := !now +. 1.0);
  Alcotest.(check int) "next at depth 0" 0 (T.events t).(1).T.ev_depth

let test_tracer_disabled_noop () =
  let r = T.with_span T.disabled "x" (fun () -> 42) in
  Alcotest.(check int) "value through" 42 r;
  Alcotest.(check int) "nothing recorded" 0 (T.recorded T.disabled);
  Alcotest.(check bool) "not enabled" false (T.enabled T.disabled)

let test_tracer_args_accumulate () =
  let t, now = manual () in
  let go name pages =
    T.with_span t ~args_of:(fun () -> [ ("pages", pages); ("seeks", 1) ]) name
      (fun () -> now := !now +. 1.0)
  in
  go "a" 3;
  go "b" 4;
  (* Nested spans' args must NOT double-count at top level. *)
  T.with_span t ~args_of:(fun () -> [ ("pages", 10) ]) "outer" (fun () ->
      go "inner" 10);
  Alcotest.(check (list (pair string int)))
    "top-level arg totals"
    [ ("pages", 17); ("seeks", 2) ]
    (T.top_level_args t)

let test_chrome_json_shape () =
  let t, now = manual () in
  T.with_span t ~cat:"c" ~args_of:(fun () -> [ ("n", 1) ]) "quote\"back\\slash"
    (fun () -> now := !now +. 2.5);
  let json = T.to_chrome_json t in
  Alcotest.(check bool) "has traceEvents" true (contains json "\"traceEvents\"");
  Alcotest.(check bool) "escaped quote" true
    (contains json {|quote\"back\\slash|});
  Alcotest.(check bool) "complete event" true (contains json {|"ph":"X"|});
  Alcotest.(check bool) "duration" true (contains json {|"dur":2.5|})

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_cells () =
  let m = M.create () in
  let c1 = M.counter m ~labels:[ ("a", "1"); ("b", "2") ] "ops" in
  let c2 = M.counter m ~labels:[ ("b", "2"); ("a", "1") ] "ops" in
  M.add c1 5;
  M.incr c2;
  (* Label order is irrelevant: same cell. *)
  Alcotest.(check int) "same cell" 6 (M.value c1);
  let c3 = M.counter m ~labels:[ ("a", "other") ] "ops" in
  Alcotest.(check int) "distinct labels distinct cell" 0 (M.value c3);
  let g = M.gauge m "depth" in
  M.set g 3.5;
  Alcotest.(check (float 0.0)) "gauge" 3.5 (M.gauge_value g);
  Alcotest.(check_raises) "kind mismatch"
    (Invalid_argument "Metrics.counter: depth is not a counter") (fun () ->
      ignore (M.counter m "depth"))

let test_metrics_to_lines () =
  let m = M.create () in
  M.add (M.counter m "z.last") 9;
  M.add (M.counter m "a.first") 1;
  M.observe (M.histogram m "lat") 100.0;
  let lines = M.to_lines m in
  Alcotest.(check int) "three lines" 3 (List.length lines);
  (* Sorted by name. *)
  Alcotest.(check bool) "a.first first" true
    (contains (List.nth lines 0) "a.first");
  Alcotest.(check bool) "histogram summary" true
    (contains (List.nth lines 1) "p95=")

(* ------------------------------------------------------------------ *)
(* End-to-end reconciliation: span-attributed I/O = Io_stats.diff *)

let secondaries = [ Lsm_core.Record.secondary "user_id" Tweet.user_id ]

let tw ?(user = 0) id =
  { Tweet.id; user_id = user; location = 0; created_at = id; msg_len = 100 }

type op = Insert of int * int | Upsert of int * int | Delete of int
        | Point of int | Query of int

let op_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun k u -> Insert (k, u)) (int_range 0 400) (int_range 0 50);
        map2 (fun k u -> Upsert (k, u)) (int_range 0 400) (int_range 0 50);
        map (fun k -> Delete k) (int_range 0 400);
        map (fun k -> Point k) (int_range 0 400);
        map (fun u -> Query u) (int_range 0 40);
      ])

let apply d = function
  | Insert (k, u) -> ignore (D.insert d (tw ~user:u k))
  | Upsert (k, u) -> D.upsert d (tw ~user:u k)
  | Delete k -> D.delete d ~pk:k
  | Point k -> ignore (D.point_query d k)
  | Query u ->
      ignore (D.query_secondary d ~sec:"user_id" ~lo:u ~hi:(u + 10)
                ~mode:`Timestamp ())

let prop_span_io_reconciles =
  qtest ~count:40 "top-level span I/O args = Io_stats.diff over the run"
    QCheck2.Gen.(
      pair (list_size (int_range 1 150) op_gen) (int_range 0 2))
    (fun (ops, strat) ->
      let strategy =
        List.nth
          [ Strategy.eager; Strategy.validation; Strategy.mutable_bitmap ]
          strat
      in
      let env =
        Lsm_sim.Env.create ~cache_bytes:(64 * 1024)
          (Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
             ~read_us_per_page:100.0 ~write_us_per_page:100.0)
      in
      ignore (Env.enable_obs env);
      let d =
        D.create ~filter_key:Tweet.created_at ~secondaries env
          { D.default_config with strategy; mem_budget = 2048 }
      in
      let before = Io_stats.copy (Env.stats env) in
      List.iter (apply d) ops;
      let expected = Io_stats.fields (Io_stats.diff (Env.stats env) before) in
      let attributed = T.top_level_args (Env.tracer env) in
      (* Every engine I/O happened inside some instrumented top-level
         entry point, so the attribution must be *exact*, counter by
         counter. *)
      List.for_all
        (fun (k, v) ->
          match List.assoc_opt k attributed with
          | Some v' -> v = v'
          | None -> v = 0)
        expected)

(* The disabled path really is inert: running a workload with obs off
   records nothing and allocates no events. *)
let test_disabled_records_nothing () =
  let env =
    Lsm_sim.Env.create ~cache_bytes:(64 * 1024)
      (Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
         ~read_us_per_page:100.0 ~write_us_per_page:100.0)
  in
  let d =
    D.create ~filter_key:Tweet.created_at ~secondaries env
      { D.default_config with mem_budget = 2048 }
  in
  for i = 0 to 200 do
    D.upsert d (tw ~user:(i mod 10) i)
  done;
  Alcotest.(check int) "no spans" 0 (T.recorded (Env.tracer env));
  Alcotest.(check (list string)) "no metrics" [] (M.to_lines (Env.metrics env))

(* ------------------------------------------------------------------ *)
(* Json: every machine-readable document we emit must parse back. *)

module J = Lsm_obs.Json

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("int", J.Int 42);
        ("neg", J.Int (-7));
        ("float", J.Float 2.5);
        ("str", J.Str "quote\" back\\ newline\n tab\t");
        ("null", J.Null);
        ("flags", J.List [ J.Bool true; J.Bool false ]);
        ("nested", J.Obj [ ("k", J.Str "v"); ("l", J.List [ J.Int 1 ]) ]);
        ("empty_obj", J.Obj []);
        ("empty_list", J.List []);
      ]
  in
  (match J.of_string (J.to_string doc) with
  | Error e -> Alcotest.fail ("compact: " ^ e)
  | Ok d -> Alcotest.(check bool) "compact round-trip" true (d = doc));
  match J.of_string (J.to_string ~indent:2 doc) with
  | Error e -> Alcotest.fail ("pretty: " ^ e)
  | Ok d -> Alcotest.(check bool) "pretty round-trip" true (d = doc)

let test_json_errors () =
  let bad s =
    match J.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
  in
  List.iter bad [ "{"; "[1,"; "{\"a\" 1}"; "1 trailing"; ""; "{'a':1}"; "nul" ]

let test_json_access () =
  let doc = J.Obj [ ("a", J.Int 3); ("b", J.Float 1.5); ("s", J.Str "x") ] in
  Alcotest.(check (option int)) "member int" (Some 3)
    (Option.bind (J.member "a" doc) J.to_int);
  Alcotest.(check bool)
    "to_float accepts Int" true
    (Option.bind (J.member "a" doc) J.to_float = Some 3.0);
  Alcotest.(check (option string))
    "member str" (Some "x")
    (Option.bind (J.member "s" doc) J.to_string_opt);
  Alcotest.(check bool) "missing member" true (J.member "zzz" doc = None)

(* ------------------------------------------------------------------ *)
(* Io_stats: diff/copy/reset/fields arithmetic *)

let populated_stats () =
  let env =
    Env.create ~cache_bytes:(16 * 1024)
      (Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
         ~read_us_per_page:100.0 ~write_us_per_page:100.0)
  in
  let d =
    D.create ~filter_key:Tweet.created_at ~secondaries env
      { D.default_config with mem_budget = 2048 }
  in
  for i = 0 to 300 do
    D.upsert d (tw ~user:(i mod 10) i)
  done;
  ignore (D.point_query d 17);
  (env, d)

let test_io_stats_roundtrips () =
  let env, d = populated_stats () in
  let s = Env.stats env in
  (* copy is a detached snapshot: diff against it is all zeros... *)
  let snap = Io_stats.copy s in
  List.iter
    (fun (k, v) -> Alcotest.(check int) ("zero " ^ k) 0 v)
    (Io_stats.fields (Io_stats.diff s snap));
  (* ...and after more work, diff = new fields - snapshot fields. *)
  for i = 301 to 400 do
    D.upsert d (tw ~user:(i mod 10) i)
  done;
  ignore (D.point_query d 42);
  let delta = Io_stats.fields (Io_stats.diff s snap) in
  let now = Io_stats.fields s and before = Io_stats.fields snap in
  List.iter
    (fun (k, v) ->
      let n = List.assoc k now and b = List.assoc k before in
      Alcotest.(check int) ("delta " ^ k) (n - b) v)
    delta;
  Alcotest.(check bool)
    "something happened" true
    (List.exists (fun (_, v) -> v > 0) delta);
  (* reset zeroes every field. *)
  Io_stats.reset s;
  List.iter
    (fun (k, v) -> Alcotest.(check int) ("reset " ^ k) 0 v)
    (Io_stats.fields s)

(* ------------------------------------------------------------------ *)
(* Ampstats *)

let test_ampstats_math () =
  let a = Lsm_obs.Ampstats.create () in
  Alcotest.(check bool)
    "nan before first flush" true
    (Float.is_nan (Lsm_obs.Ampstats.write_amplification a));
  Lsm_obs.Ampstats.on_flush a ~bytes:1000 ~rows:10;
  Lsm_obs.Ampstats.on_flush a ~bytes:1000 ~rows:10;
  Lsm_obs.Ampstats.on_merge a ~bytes_read:2000 ~bytes_written:1500 ~rows_in:20
    ~rows_out:15;
  Alcotest.(check (float 1e-9))
    "wa = (flushed + rewritten) / flushed"
    ((2000.0 +. 1500.0) /. 2000.0)
    (Lsm_obs.Ampstats.write_amplification a);
  let f = Lsm_obs.Ampstats.fields a in
  Alcotest.(check int) "flushes" 2 (List.assoc "flushes" f);
  Alcotest.(check int) "merges" 1 (List.assoc "merges" f);
  Alcotest.(check int) "flush_bytes" 2000 (List.assoc "flush_bytes" f);
  Alcotest.(check int) "merge_written" 1500
    (List.assoc "merge_written_bytes" f);
  (* publish mirrors into amp.* gauges *)
  let m = M.create () in
  Lsm_obs.Ampstats.publish a m;
  Alcotest.(check bool)
    "amp.* gauges present" true
    (List.exists (fun l -> contains l "amp.write_amplification")
       (M.to_lines m));
  Lsm_obs.Ampstats.reset a;
  Alcotest.(check int) "reset" 0 (List.assoc "flushes" (Lsm_obs.Ampstats.fields a))

let test_ampstats_fed_by_engine () =
  (* The engine actually feeds the accountant: enough upserts to force
     flushes (tiny budget) must leave non-trivial write amplification. *)
  let env, _d = populated_stats () in
  let a = Env.amp env in
  Alcotest.(check bool) "flushed" true (a.Lsm_obs.Ampstats.flushes > 0);
  let wa = Lsm_obs.Ampstats.write_amplification a in
  Alcotest.(check bool) "wa >= 1" true (wa >= 1.0)

(* ------------------------------------------------------------------ *)
(* Explain *)

module E = Lsm_obs.Explain

let explain_fixture () =
  let env =
    Env.create ~cache_bytes:(16 * 1024)
      (Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
         ~read_us_per_page:100.0 ~write_us_per_page:100.0)
  in
  ignore (Env.enable_explain env);
  let d =
    D.create ~filter_key:Tweet.created_at ~secondaries env
      { D.default_config with mem_budget = 2048 }
  in
  for i = 0 to 300 do
    D.upsert d (tw ~user:(i mod 10) i)
  done;
  ignore (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:5 ~mode:`Timestamp ());
  ignore (D.query_secondary d ~sec:"user_id" ~lo:0 ~hi:5 ~mode:`Direct ());
  ignore (D.point_query d 17);
  env

(* The interface invariant: a node's inclusive I/O delta equals its self
   delta plus the sum of its children's inclusive deltas — so self_io
   summed over the whole tree reproduces the root's (= the operation's
   top-level) delta. *)
let rec check_io_invariant (n : E.node) =
  let get k kvs = try List.assoc k kvs with Not_found -> 0 in
  let keys =
    List.sort_uniq compare
      (List.map fst n.E.io
      @ List.map fst n.E.self_io
      @ List.concat_map (fun c -> List.map fst c.E.io) n.E.children)
  in
  List.iter
    (fun k ->
      let children_sum =
        List.fold_left (fun acc c -> acc + get k c.E.io) 0 n.E.children
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: io = self + children (%s)" n.E.name k)
        (get k n.E.io)
        (get k n.E.self_io + children_sum))
    keys;
  List.iter check_io_invariant n.E.children

let test_explain_plans_and_invariant () =
  let env = explain_fixture () in
  let e = Env.explain env in
  let plans = E.plans e in
  Alcotest.(check bool) "recorded plans" true (plans <> []);
  List.iter
    (fun (p : E.plan) ->
      Alcotest.(check bool)
        (p.E.root.E.name ^ " executions >= 1")
        true (p.E.executions >= 1);
      check_io_invariant p.E.root)
    plans;
  (* One plan per distinct root name. *)
  let names = List.map (fun p -> p.E.root.E.name) plans in
  Alcotest.(check int)
    "distinct roots"
    (List.length (List.sort_uniq compare names))
    (List.length names);
  (* A query plan was retained and the ingest plan executed many times. *)
  Alcotest.(check bool)
    "query plan present" true
    (List.mem "query.secondary" names);
  let ingest =
    List.find (fun p -> p.E.root.E.name = "ingest.upsert") plans
  in
  Alcotest.(check bool) "ingest executions" true (ingest.E.executions > 100)

let test_explain_text_and_json () =
  let env = explain_fixture () in
  let e = Env.explain env in
  let text = E.to_text e in
  Alcotest.(check bool) "text has plans" true (contains text "plan: ");
  Alcotest.(check bool) "text has io" true (contains text "io(total):");
  let j = E.to_json e in
  Alcotest.(check (option string))
    "schema tag" (Some E.schema)
    (Option.bind (J.member "schema" j) J.to_string_opt);
  (* The emitted document parses back. *)
  match J.of_string (J.to_string ~indent:2 j) with
  | Error err -> Alcotest.fail ("explain json does not parse: " ^ err)
  | Ok j' -> (
      match Option.bind (J.member "plans" j') J.to_list with
      | None -> Alcotest.fail "no plans list"
      | Some ps ->
          Alcotest.(check bool) "plans non-empty" true (ps <> []);
          List.iter
            (fun p ->
              Alcotest.(check bool)
                "plan has name" true
                (Option.bind (J.member "name" p) J.to_string_opt <> None);
              Alcotest.(check bool)
                "plan has root" true
                (J.member "root" p <> None))
            ps)

let test_explain_disabled_inert () =
  let e = E.disabled in
  Alcotest.(check bool) "inactive" false (E.active e);
  Alcotest.(check int) "thunk runs" 7 (E.node e "x" (fun () -> 7));
  Alcotest.(check bool) "no plans" true (E.plans e = [])

(* ------------------------------------------------------------------ *)
(* Bench_json *)

module B = Lsm_harness.Bench_json

let test_bench_percentiles () =
  let samples = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (B.percentile samples 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (B.percentile samples 95.0);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (B.percentile samples 99.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (B.percentile samples 100.0);
  Alcotest.(check bool) "empty -> nan" true (Float.is_nan (B.percentile [||] 50.0))

let test_bench_percentile_edges () =
  (* n = 1: every percentile is the sample. *)
  Alcotest.(check (float 1e-9)) "n=1 p1" 7.0 (B.percentile [| 7.0 |] 1.0);
  Alcotest.(check (float 1e-9)) "n=1 p50" 7.0 (B.percentile [| 7.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "n=1 p99" 7.0 (B.percentile [| 7.0 |] 99.0);
  (* n = 2, unsorted input: nearest-rank p50 = ceil(0.5*2) = rank 1 =
     smaller sample; p51..p100 land on rank 2. *)
  Alcotest.(check (float 1e-9)) "n=2 p50" 1.0 (B.percentile [| 3.0; 1.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "n=2 p51" 3.0 (B.percentile [| 3.0; 1.0 |] 51.0);
  Alcotest.(check (float 1e-9)) "n=2 p100" 3.0 (B.percentile [| 3.0; 1.0 |] 100.0);
  (* Even/odd nearest-rank boundaries: with n = 4, p50 is rank 2; with
     n = 5, rank ceil(2.5) = 3 — the true median. *)
  let even = [| 4.0; 2.0; 3.0; 1.0 |] in
  Alcotest.(check (float 1e-9)) "n=4 p50" 2.0 (B.percentile even 50.0);
  Alcotest.(check (float 1e-9)) "n=4 p75" 3.0 (B.percentile even 75.0);
  Alcotest.(check (float 1e-9)) "n=4 p76" 4.0 (B.percentile even 76.0);
  let odd = [| 5.0; 1.0; 4.0; 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "n=5 p50" 3.0 (B.percentile odd 50.0);
  (* p0 clamps to the minimum rather than indexing below the array. *)
  Alcotest.(check (float 1e-9)) "p0 clamps" 1.0 (B.percentile odd 0.0)

let test_bench_percentile_nan () =
  (* nan samples are dropped, not sorted into an arbitrary position (the
     old polymorphic-compare bug): the statistic comes from the finite
     values alone, and is nan only when nothing finite remains. *)
  let noisy = [| Float.nan; 2.0; Float.nan; 1.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "nan dropped p50" 2.0 (B.percentile noisy 50.0);
  Alcotest.(check (float 1e-9)) "nan dropped p100" 3.0 (B.percentile noisy 100.0);
  Alcotest.(check bool)
    "all-nan -> nan" true
    (Float.is_nan (B.percentile [| Float.nan; Float.nan |] 50.0))

let bench_doc () =
  {
    B.kind = "micro";
    scale = None;
    entries =
      [
        { B.name = "a"; unit_ = "ns/run"; samples = [| 3.0; 1.0; 2.0 |] };
        { B.name = "b"; unit_ = "ns/run"; samples = [| 10.0 |] };
      ];
  }

let test_bench_roundtrip () =
  let d = bench_doc () in
  let j = B.to_json d in
  Alcotest.(check (option string))
    "schema" (Some B.schema)
    (Option.bind (J.member "schema" j) J.to_string_opt);
  match J.of_string (J.to_string ~indent:2 j) with
  | Error e -> Alcotest.fail e
  | Ok j' -> (
      match B.of_json j' with
      | Error e -> Alcotest.fail e
      | Ok d' ->
          Alcotest.(check string) "kind" d.B.kind d'.B.kind;
          Alcotest.(check int) "entries" 2 (List.length d'.B.entries);
          List.iter2
            (fun (a : B.entry) (b : B.entry) ->
              Alcotest.(check string) "name" a.B.name b.B.name;
              Alcotest.(check string) "unit" a.B.unit_ b.B.unit_;
              Alcotest.(check bool) "samples" true (a.B.samples = b.B.samples))
            d.B.entries d'.B.entries)

let test_bench_schema_rejected () =
  match B.of_json (J.Obj [ ("schema", J.Str "something/else") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted wrong schema"

let test_bench_compare () =
  let old_d = bench_doc () in
  let new_d =
    {
      old_d with
      B.entries =
        [
          (* p50 2.0 -> 2.2: within a 15% threshold *)
          { B.name = "a"; unit_ = "ns/run"; samples = [| 2.2 |] };
          (* 10.0 -> 20.0: regression *)
          { B.name = "b"; unit_ = "ns/run"; samples = [| 20.0 |] };
          { B.name = "c"; unit_ = "ns/run"; samples = [| 1.0 |] };
        ];
    }
  in
  let regs, compared, only_old, only_new =
    B.compare_docs ~threshold:0.15 old_d new_d
  in
  Alcotest.(check int) "compared" 2 compared;
  Alcotest.(check (list string)) "only old" [] only_old;
  Alcotest.(check (list string)) "only new" [ "c" ] only_new;
  match regs with
  | [ r ] ->
      Alcotest.(check string) "regressed entry" "b" r.B.r_name;
      Alcotest.(check (float 1e-9)) "ratio" 2.0 r.B.r_ratio
  | _ -> Alcotest.failf "expected 1 regression, got %d" (List.length regs)

(* A gated entry the candidate dropped is a regression, not a silent
   pass. *)
let test_bench_compare_missing () =
  let old_d = bench_doc () in
  let new_d =
    {
      old_d with
      B.entries = [ { B.name = "a"; unit_ = "ns/run"; samples = [| 2.0 |] } ];
    }
  in
  let regs, compared, only_old, _ =
    B.compare_docs ~threshold:0.15 old_d new_d
  in
  Alcotest.(check int) "compared" 1 compared;
  Alcotest.(check (list string)) "only old" [ "b" ] only_old;
  match regs with
  | [ r ] ->
      Alcotest.(check string) "missing entry flagged" "b" r.B.r_name;
      Alcotest.(check bool) "no candidate value" true (Float.is_nan r.B.r_new)
  | _ -> Alcotest.failf "expected 1 regression, got %d" (List.length regs)

(* Unit "x" is a speedup: a fall regresses, a rise does not. *)
let test_bench_compare_speedup () =
  let doc v =
    {
      B.kind = "micro";
      scale = None;
      entries = [ { B.name = "s"; unit_ = "x"; samples = [| v |] } ];
    }
  in
  let regs old_v new_v =
    let r, _, _, _ = B.compare_docs ~threshold:0.10 (doc old_v) (doc new_v) in
    List.map (fun r -> r.B.r_name) r
  in
  let check msg want old_v new_v =
    Alcotest.(check (list string)) msg want (regs old_v new_v)
  in
  check "1.29 -> 1.0 regresses" [ "s" ] 1.29 1.0;
  check "1.29 -> 1.2 within threshold" [] 1.29 1.2;
  check "1.29 -> 2.0 improves" [] 1.29 2.0;
  check "fall to zero regresses" [ "s" ] 1.29 0.0

let test_bench_of_reports () =
  let r =
    Lsm_harness.Report.make ~id:"figX" ~title:"t"
      ~header:[ "row"; "colA"; "colB" ]
      [ [ "r1"; "1.5"; "not-a-number" ]; [ "r2"; "2.5"; "3.5" ] ]
  in
  let doc = B.of_reports ~scale:Lsm_harness.Scale.tiny [ r ] in
  Alcotest.(check string) "kind" "figures" doc.B.kind;
  let names = List.map (fun (e : B.entry) -> e.B.name) doc.B.entries in
  Alcotest.(check (list string))
    "numeric cells only"
    [ "figX/r1/colA"; "figX/r2/colA"; "figX/r2/colB" ]
    names

(* ------------------------------------------------------------------ *)
(* Histogram.count_above: the SLO violation counter *)

let test_hist_count_above () =
  let h = H.create () in
  Alcotest.(check int) "empty" 0 (H.count_above h 5.0);
  for i = 1 to 100 do
    H.observe h (Float.of_int i)
  done;
  let n = H.count_above h 50.0 in
  (* Conservative within the ~9% bucket resolution: never over-counts,
     and misses at most one bucket's worth. *)
  Alcotest.(check bool) "never over-counts" true (n <= 50);
  Alcotest.(check bool) "close to truth" true (n >= 40);
  Alcotest.(check int) "none above the max" 0 (H.count_above h 100.0);
  Alcotest.(check int) "all above a tiny threshold" 100 (H.count_above h 0.5);
  (* The exact max alone exceeding v still reports 1, even when the
     coarse buckets cannot see it. *)
  let h2 = H.create () in
  H.observe h2 100.0;
  Alcotest.(check int) "max alone counts" 1 (H.count_above h2 99.0)

(* ------------------------------------------------------------------ *)
(* Stats: the shared nan-safe percentile *)

module St = Lsm_obs.Stats

let test_stats_helpers () =
  let s = Array.init 200 (fun i -> Float.of_int (200 - i)) in
  Alcotest.(check (float 1e-9)) "p50" 100.0 (St.p50 s);
  Alcotest.(check (float 1e-9)) "p95" 190.0 (St.p95 s);
  Alcotest.(check (float 1e-9)) "p99" 198.0 (St.p99 s);
  (* Bench_json.percentile is this function — one implementation, one
     nan policy. *)
  let noisy = [| Float.nan; 5.0; 1.0 |] in
  Alcotest.(check (float 1e-9))
    "alias agrees" (B.percentile noisy 50.0) (St.percentile noisy 50.0)

(* ------------------------------------------------------------------ *)
(* Timeseries: windowed collection, the event ring, exports *)

module TS = Lsm_obs.Timeseries

let test_timeseries_windows () =
  let ts = TS.create ~window_us:100.0 () in
  Alcotest.(check int) "empty" 0 (TS.n_windows ts);
  TS.observe ts ~at_us:10.0 "lat" 5.0;
  TS.observe ts ~at_us:150.0 "lat" 7.0;
  TS.observe ts ~at_us:950.0 "lat" 9.0;
  TS.observe ts ~at_us:(-3.0) "lat" 1.0;
  Alcotest.(check int) "dense to max index" 10 (TS.n_windows ts);
  let count_in i =
    match TS.hist ts ~i "lat" with Some h -> H.count h | None -> 0
  in
  (* Negative timestamps clamp into window 0. *)
  Alcotest.(check int) "window 0" 2 (count_in 0);
  Alcotest.(check int) "window 1" 1 (count_in 1);
  Alcotest.(check int) "window 9" 1 (count_in 9);
  Alcotest.(check int) "untouched window empty" 0 (count_in 5);
  TS.count ts ~at_us:20.0 "evictions" 2;
  TS.count ts ~at_us:80.0 "evictions" 1;
  Alcotest.(check int) "counter accumulates" 3 (TS.count_of ts ~i:0 "evictions");
  Alcotest.(check int) "counter elsewhere 0" 0 (TS.count_of ts ~i:1 "evictions");
  TS.add ts ~at_us:120.0 "busy" 1.5;
  TS.add ts ~at_us:130.0 "busy" 2.5;
  Alcotest.(check (float 1e-9)) "sum" 4.0 (TS.sum_of ts ~i:1 "busy");
  TS.set_max ts ~at_us:5.0 "q" 3.0;
  TS.set_max ts ~at_us:6.0 "q" 2.0;
  Alcotest.(check bool) "max keeps larger" true (TS.max_of ts ~i:0 "q" = Some 3.0);
  TS.set_last ts ~at_us:5.0 "g" 3.0;
  TS.set_last ts ~at_us:6.0 "g" 2.0;
  Alcotest.(check bool) "gauge last wins" true (TS.last_of ts ~i:0 "g" = Some 2.0);
  Alcotest.(check (list string)) "hist names" [ "lat" ] (TS.hist_names ts);
  Alcotest.(check (list string)) "count names" [ "evictions" ] (TS.count_names ts)

let test_timeseries_event_ring () =
  let ts = TS.create ~events_capacity:4 ~window_us:100.0 () in
  for i = 0 to 5 do
    TS.event ts
      ~start_us:(Float.of_int (i * 10))
      ~dur_us:5.0 ~kind:"flush" ~part:i
      [ ("bytes", i) ]
  done;
  Alcotest.(check int) "recorded all" 6 (TS.events_recorded ts);
  Alcotest.(check int) "dropped overflow" 2 (TS.events_dropped ts);
  let evs = TS.events ts in
  Alcotest.(check int) "ring holds capacity" 4 (Array.length evs);
  (* Oldest-first: survivors are events 2..5. *)
  Array.iteri
    (fun i e ->
      Alcotest.(check int) (Printf.sprintf "slot %d" i) (i + 2) e.TS.e_part)
    evs;
  (* Overlap filtering: event 3 spans [30, 35]. *)
  let hits = TS.events_between ts ~from_us:32.0 ~until_us:38.0 in
  Alcotest.(check int) "overlap hit" 1 (List.length hits);
  Alcotest.(check int) "the right one" 3 (List.hd hits).TS.e_part;
  Alcotest.(check int) "empty range" 0
    (List.length (TS.events_between ts ~from_us:500.0 ~until_us:600.0))

let test_timeseries_exports_parse () =
  let ts = TS.create ~window_us:100.0 () in
  TS.observe ts ~at_us:10.0 "point" 250.0;
  TS.observe ts ~at_us:210.0 "point" 450.0;
  TS.count ts ~at_us:10.0 "evictions" 1;
  TS.event ts ~start_us:15.0 ~dur_us:20.0 ~kind:"eviction" ~part:1
    [ ("bytes", 4096) ];
  let j = TS.to_json ts in
  (match J.of_string (J.to_string ~indent:2 j) with
  | Error e -> Alcotest.fail ("timeline json does not parse: " ^ e)
  | Ok j' ->
      Alcotest.(check (option int))
        "n_windows" (Some 3)
        (Option.bind (J.member "n_windows" j') J.to_int);
      let windows =
        Option.value ~default:[]
          (Option.bind (J.member "windows" j') J.to_list)
      in
      Alcotest.(check int) "dense windows" 3 (List.length windows);
      let ring =
        Option.bind (J.member "events" j') (fun e ->
            Option.bind (J.member "ring" e) J.to_list)
      in
      Alcotest.(check int) "ring" 1 (List.length (Option.value ~default:[] ring)));
  let csv = TS.to_csv ts in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row per window" 4 (List.length lines);
  Alcotest.(check bool) "header names series" true
    (contains (List.hd lines) "point.p99_us")

(* ------------------------------------------------------------------ *)
(* Slo: spec parsing, burn-rate alerting, attribution *)

module S = Lsm_obs.Slo

let test_slo_spec_parser () =
  (match S.objective_of_string "point:p99<1500us" with
  | Ok o ->
      Alcotest.(check string) "series" "point" o.S.series;
      Alcotest.(check (float 1e-9)) "quantile" 0.99 o.S.quantile;
      Alcotest.(check (float 1e-9)) "threshold" 1500.0 o.S.threshold_us;
      Alcotest.(check (float 1e-9)) "budget" 0.01 (S.budget_frac o)
  | Error e -> Alcotest.fail e);
  (match S.objective_of_string "all:p95<2ms" with
  | Ok o -> Alcotest.(check (float 1e-9)) "ms suffix" 2000.0 o.S.threshold_us
  | Error e -> Alcotest.fail e);
  (match S.objective_of_string "x:p50<1s" with
  | Ok o -> Alcotest.(check (float 1e-9)) "s suffix" 1e6 o.S.threshold_us
  | Error e -> Alcotest.fail e);
  (match S.objective_of_string "x:p90<250" with
  | Ok o -> Alcotest.(check (float 1e-9)) "bare = us" 250.0 o.S.threshold_us
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match S.objective_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ bad))
    [ "nope"; "x:q99<5us"; "x:p99<"; ":p99<5us"; "x:p0<5us"; "x:p100<5us";
      "x:p99<-3us" ]

(* Synthetic run: 10 quiet windows, then 3 where 60% of the requests
   violate — well past the burn thresholds, so float rounding in the
   budget fraction (1.0 -. 0.99) cannot flip the boundary.  The
   multi-window burn rate must alert exactly on the violating windows
   and stay quiet before them. *)
let violating_timeseries () =
  let ts = TS.create ~window_us:100.0 () in
  for w = 0 to 12 do
    let at = (Float.of_int w *. 100.0) +. 50.0 in
    for i = 1 to 100 do
      let bad = w >= 10 && i mod 5 <= 2 in
      TS.observe ts ~at_us:at "lat" (if bad then 10_000.0 else 100.0)
    done
  done;
  ts

let slo_lat = { S.series = "lat"; quantile = 0.99; threshold_us = 1000.0 }

let test_slo_burn_alerts () =
  let quiet = TS.create ~window_us:100.0 () in
  for w = 0 to 12 do
    for _ = 1 to 100 do
      TS.observe quiet ~at_us:((Float.of_int w *. 100.0) +. 50.0) "lat" 100.0
    done
  done;
  Alcotest.(check int) "quiet run: no alerts" 0
    (List.length (S.evaluate quiet slo_lat));
  let ts = violating_timeseries () in
  let alerts = S.evaluate ts slo_lat in
  Alcotest.(check (list int))
    "alerts exactly on violating windows" [ 10; 11; 12 ]
    (List.map (fun a -> a.S.a_window) alerts);
  let a = List.hd alerts in
  (* Window 10's fast stretch is 6..10: 60 violations of 500 requests
     against a 1% budget — burn 12. *)
  Alcotest.(check int) "bad" 60 a.S.a_bad;
  Alcotest.(check int) "total" 500 a.S.a_total;
  Alcotest.(check (float 1e-6)) "fast burn" 12.0 a.S.a_fast_burn;
  (* An unknown series never alerts. *)
  Alcotest.(check int) "unknown series" 0
    (List.length (S.evaluate ts { slo_lat with S.series = "ghost" }))

let test_slo_attribution_and_flight_record () =
  let ts = violating_timeseries () in
  (* A merge overlapping alert window 10 ([1000, 1100)), an eviction
     with a smaller overlap, and one far away. *)
  TS.event ts ~start_us:1010.0 ~dur_us:80.0 ~kind:"lsm.merge" ~part:2 [];
  TS.event ts ~start_us:1090.0 ~dur_us:30.0 ~kind:"eviction" ~part:0
    [ ("bytes", 4096) ];
  TS.event ts ~start_us:100.0 ~dur_us:10.0 ~kind:"eviction" ~part:1 [];
  let alerts = S.evaluate ts slo_lat in
  let findings = S.attribute ts alerts in
  let w10 =
    List.filter (fun f -> f.S.f_alert.S.a_window = 10) findings
  in
  Alcotest.(check int) "two events overlap window 10" 2 (List.length w10);
  (* Ranked by overlap: the 80us merge beats the 10us eviction tail. *)
  Alcotest.(check string) "top culprit" "lsm.merge"
    (List.hd w10).S.f_event.TS.e_kind;
  Alcotest.(check bool) "overlap measured" true
    ((List.hd w10).S.f_overlap_us = 80.0);
  (* The flight record around window 12 still reaches back to window
     10's events (±2 windows); the window-1 eviction is out of range. *)
  let a12 = List.find (fun a -> a.S.a_window = 12) alerts in
  let fr = S.flight_record ts a12 in
  Alcotest.(check int) "flight record spans the ring" 2 (List.length fr);
  (* The whole document parses back. *)
  match J.of_string (J.to_string ~indent:2 (S.to_json ts [ slo_lat ])) with
  | Error e -> Alcotest.fail ("slo json does not parse: " ^ e)
  | Ok j ->
      Alcotest.(check int) "alerts in json" 3
        (List.length
           (Option.value ~default:[]
              (Option.bind (J.member "alerts" j) J.to_list)));
      Alcotest.(check bool) "findings present" true
        (Option.bind (J.member "findings" j) J.to_list <> None)

(* ------------------------------------------------------------------ *)
(* Chrome trace export: round-trip through the Json parser; nesting and
   aggregates must survive ring wraparound. *)

let test_chrome_trace_roundtrip () =
  let now = ref 0.0 in
  let t = T.create ~capacity:4 ~clock:(fun () -> !now) () in
  (* Three top-level spans, then a nested pair: completion order is
     t1 t2 t3 inner outer, so the capacity-4 ring drops t1 but keeps
     the nested pair intact. *)
  for i = 1 to 3 do
    T.with_span t (Printf.sprintf "t%d" i) (fun () -> now := !now +. 1.0)
  done;
  T.with_span t ~cat:"dataset" "outer" (fun () ->
      now := !now +. 1.0;
      T.with_span t "inner" (fun () -> now := !now +. 2.0);
      now := !now +. 1.0);
  Alcotest.(check int) "recorded" 5 (T.recorded t);
  Alcotest.(check int) "dropped" 1 (T.dropped t);
  match J.of_string (T.to_chrome_json t) with
  | Error e -> Alcotest.fail ("chrome trace does not parse: " ^ e)
  | Ok j ->
      let evs =
        Option.value ~default:[]
          (Option.bind (J.member "traceEvents" j) J.to_list)
      in
      Alcotest.(check int) "ring survivors exported" 4 (List.length evs);
      let find name =
        List.find
          (fun e ->
            Option.bind (J.member "name" e) J.to_string_opt = Some name)
          evs
      in
      let ts_of e =
        Option.value ~default:Float.nan (Option.bind (J.member "ts" e) J.to_float)
      and dur_of e =
        Option.value ~default:Float.nan
          (Option.bind (J.member "dur" e) J.to_float)
      in
      (* Nesting survives as ts-containment: inner inside outer. *)
      let outer = find "outer" and inner = find "inner" in
      Alcotest.(check bool) "inner starts inside outer" true
        (ts_of inner >= ts_of outer);
      Alcotest.(check bool) "inner ends inside outer" true
        (ts_of inner +. dur_of inner <= ts_of outer +. dur_of outer);
      Alcotest.(check (float 1e-9)) "inner duration" 2.0 (dur_of inner);
      (* The evicted span t1 is gone from the export... *)
      Alcotest.(check bool) "t1 evicted" true
        (not
           (List.exists
              (fun e ->
                Option.bind (J.member "name" e) J.to_string_opt = Some "t1")
              evs));
      (* ...but the aggregates still account for all five spans. *)
      Alcotest.(check int) "aggregates keep full counts" 5
        (List.length (T.aggregates t));
      (* t1..t3 at 1us each plus outer's 4us inclusive. *)
      Alcotest.(check (float 1e-9)) "coverage includes evicted" 7.0
        (T.top_level_us t)

(* ------------------------------------------------------------------ *)
(* Ampstats copy/diff *)

let test_ampstats_copy_diff () =
  let a = Lsm_obs.Ampstats.create () in
  Lsm_obs.Ampstats.on_flush a ~bytes:1000 ~rows:10;
  let s = Lsm_obs.Ampstats.copy a in
  Lsm_obs.Ampstats.on_flush a ~bytes:500 ~rows:5;
  Lsm_obs.Ampstats.on_merge a ~bytes_read:2000 ~bytes_written:1500 ~rows_in:20
    ~rows_out:15;
  (* copy is detached: the snapshot still shows the old totals. *)
  Alcotest.(check int) "snapshot detached" 1 s.Lsm_obs.Ampstats.flushes;
  let d = Lsm_obs.Ampstats.diff ~since:s a in
  Alcotest.(check int) "flush delta" 1 d.Lsm_obs.Ampstats.flushes;
  Alcotest.(check int) "flush bytes delta" 500 d.Lsm_obs.Ampstats.flush_bytes;
  Alcotest.(check int) "merge delta" 1 d.Lsm_obs.Ampstats.merges;
  Alcotest.(check int) "merge bytes delta" 1500
    d.Lsm_obs.Ampstats.merge_written_bytes

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lsm_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "exact fields" `Quick test_hist_exact_fields;
          Alcotest.test_case "quantiles" `Quick test_hist_quantiles;
          Alcotest.test_case "extremes + reset" `Quick test_hist_extremes;
          Alcotest.test_case "count_above" `Quick test_hist_count_above;
          prop_hist_quantile_bounds;
        ] );
      ( "stats",
        [ Alcotest.test_case "shared percentile" `Quick test_stats_helpers ] );
      ( "timeseries",
        [
          Alcotest.test_case "windows" `Quick test_timeseries_windows;
          Alcotest.test_case "event ring" `Quick test_timeseries_event_ring;
          Alcotest.test_case "json + csv exports" `Quick
            test_timeseries_exports_parse;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec parser" `Quick test_slo_spec_parser;
          Alcotest.test_case "burn-rate alerts" `Quick test_slo_burn_alerts;
          Alcotest.test_case "attribution + flight record" `Quick
            test_slo_attribution_and_flight_record;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "nesting/self-time" `Quick
            test_tracer_nesting_self_time;
          Alcotest.test_case "ring wraparound" `Quick
            test_tracer_ring_wraparound;
          Alcotest.test_case "exception safety" `Quick
            test_tracer_exception_safety;
          Alcotest.test_case "disabled no-op" `Quick test_tracer_disabled_noop;
          Alcotest.test_case "args accumulate" `Quick
            test_tracer_args_accumulate;
          Alcotest.test_case "chrome json" `Quick test_chrome_json_shape;
          Alcotest.test_case "chrome trace round-trip" `Quick
            test_chrome_trace_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cells + labels" `Quick test_metrics_cells;
          Alcotest.test_case "to_lines" `Quick test_metrics_to_lines;
        ] );
      ( "end-to-end",
        [
          prop_span_io_reconciles;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects invalid" `Quick test_json_errors;
          Alcotest.test_case "accessors" `Quick test_json_access;
        ] );
      ( "io_stats",
        [
          Alcotest.test_case "diff/copy/reset/fields" `Quick
            test_io_stats_roundtrips;
        ] );
      ( "ampstats",
        [
          Alcotest.test_case "arithmetic + publish" `Quick test_ampstats_math;
          Alcotest.test_case "fed by engine" `Quick test_ampstats_fed_by_engine;
          Alcotest.test_case "copy/diff" `Quick test_ampstats_copy_diff;
        ] );
      ( "explain",
        [
          Alcotest.test_case "plans + io invariant" `Quick
            test_explain_plans_and_invariant;
          Alcotest.test_case "text + json parse" `Quick
            test_explain_text_and_json;
          Alcotest.test_case "disabled inert" `Quick test_explain_disabled_inert;
        ] );
      ( "bench_json",
        [
          Alcotest.test_case "percentiles" `Quick test_bench_percentiles;
          Alcotest.test_case "percentile edges" `Quick
            test_bench_percentile_edges;
          Alcotest.test_case "percentile nan policy" `Quick
            test_bench_percentile_nan;
          Alcotest.test_case "round-trip" `Quick test_bench_roundtrip;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_bench_schema_rejected;
          Alcotest.test_case "compare flags regressions" `Quick
            test_bench_compare;
          Alcotest.test_case "compare flags a missing entry" `Quick
            test_bench_compare_missing;
          Alcotest.test_case "compare: speedups improve upward" `Quick
            test_bench_compare_speedup;
          Alcotest.test_case "reports -> entries" `Quick test_bench_of_reports;
        ] );
    ]
