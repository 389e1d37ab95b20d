(* Tests for the engine's resilience layer: retry/backoff at the I/O
   sites, retry exhaustion surfacing as [Resilience.Unrecoverable] with
   no partial component left behind, and the central degraded-mode
   property — a dataset whose disk components are all quarantined
   answers every query exactly as the healthy one did, and healing
   restores a fully clean state with the same answers. *)

module D = Lsm_core.Dataset.Make (Lsm_workload.Tweet.Record)
module Strategy = Lsm_core.Strategy
module Tweet = Lsm_workload.Tweet
module Env = Lsm_sim.Env
module Resilience = Lsm_sim.Resilience
module F = Lsm_faultsim.Fault

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Env.create ~cache_bytes:(1024 * 128) device

let secondaries = [ Lsm_core.Record.secondary "user_id" Tweet.user_id ]

let mk_dataset ?(strategy = Strategy.mutable_bitmap) ?(mem_budget = 4 * 1024)
    env =
  D.create ~filter_key:Tweet.created_at ~secondaries env
    { D.default_config with strategy; mem_budget }

let tw ?(user = 0) ?(at = 0) id =
  { Tweet.id; user_id = user; location = 0; created_at = at; msg_len = 100 }

(* ------------------------------------------------------------------ *)
(* Backoff policy math *)

let test_backoff_math () =
  let p = Resilience.default_policy in
  Alcotest.(check (float 1e-9)) "attempt 0" p.Resilience.backoff_us
    (Resilience.backoff p ~attempt:0);
  Alcotest.(check (float 1e-9))
    "attempt 1"
    (p.Resilience.backoff_us *. p.Resilience.backoff_factor)
    (Resilience.backoff p ~attempt:1);
  Alcotest.(check bool) "monotone" true
    (Resilience.backoff p ~attempt:2 > Resilience.backoff p ~attempt:1)

(* A retried transient fault charges its backoff to the simulated clock:
   the same deterministic run is strictly slower with the fault armed. *)
let test_backoff_advances_clock () =
  let run plan =
    (* A tiny cache, so the scan actually misses and announces io.read. *)
    let device =
      Lsm_sim.Device.custom ~name:"test" ~page_size:1024 ~seek_us:1000.0
        ~read_us_per_page:100.0 ~write_us_per_page:100.0
    in
    let env = Env.create ~cache_bytes:(1024 * 2) device in
    let d = mk_dataset env in
    for i = 1 to 200 do
      ignore (D.insert d (tw ~user:(i mod 7) ~at:i i))
    done;
    D.flush_now d;
    let inj = F.injector plan in
    F.arm inj env;
    let t0 = Env.now_us env in
    ignore (D.full_scan d ~f:(fun _ -> ()));
    Env.clear_fault_hook env;
    (Env.now_us env -. t0, (Env.resil env).Env.retries)
  in
  let dt_clean, r_clean = run None in
  let dt_fault, r_fault =
    run
      (Some (F.plan ~fails:2 F.Io_error ~point:Lsm_sim.Fault_point.Io_read ~hit:1))
  in
  Alcotest.(check int) "clean run retries nothing" 0 r_clean;
  Alcotest.(check bool) "fault absorbed by retries" true (r_fault >= 2);
  Alcotest.(check bool) "backoff charged to the clock" true
    (dt_fault >= dt_clean +. 300.0)

(* ------------------------------------------------------------------ *)
(* Retry exhaustion *)

(* A fault that outlasts both the I/O-site retry budget and the
   maintenance supervisor's reschedules surfaces as Unrecoverable; the
   partial component's file is discarded, and once the fault clears the
   very next flush succeeds with nothing lost. *)
let test_retry_exhaustion_no_partials () =
  let env = mk_env () in
  let d = mk_dataset env in
  D.set_auto_maintenance d false;
  for i = 1 to 60 do
    ignore (D.insert d (tw ~user:(i mod 7) ~at:i i))
  done;
  let inj =
    F.injector
      (Some
         (F.plan ~fails:1000 F.Io_error ~point:Lsm_sim.Fault_point.Io_write
            ~hit:1))
  in
  F.arm inj env;
  (match D.flush_now d with
  | () -> Alcotest.fail "flush succeeded under a persistent io fault"
  | exception Resilience.Unrecoverable { point; attempts; _ } ->
      Alcotest.(check bool) "failed at the write site" true
        (point = Lsm_sim.Fault_point.Io_write);
      Alcotest.(check bool) "attempts counted" true (attempts >= 1));
  Env.clear_fault_hook env;
  let r = Env.resil env in
  Alcotest.(check bool) "exhaustions counted" true (r.Env.exhausted >= 1);
  Alcotest.(check bool) "supervisor rescheduled" true (r.Env.reschedules >= 1);
  (* No partial component survived the failed flush... *)
  Array.iter
    (fun pc ->
      Alcotest.(check bool) "component non-empty" true
        (D.Prim.component_rows pc > 0))
    (D.Prim.components (D.primary d));
  (* ...and with the fault gone the same flush completes intact. *)
  D.flush_now d;
  for i = 1 to 60 do
    match D.point_query d i with
    | Some r -> Alcotest.(check int) "row survived" i r.Tweet.id
    | None -> Alcotest.failf "row %d lost after recovered flush" i
  done;
  Alcotest.(check int) "full scan intact" 60 (D.full_scan d ~f:(fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* Degraded reads == healthy reads (qcheck) *)

(* Quarantine every disk component of every index, re-ask every query,
   heal, ask again: the three answer sets must be identical, and after
   healing nothing is quarantined. *)
let quarantine_everything d =
  Array.iter
    (fun c -> D.Prim.quarantine (D.primary d) c)
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

let snapshot d keys =
  let points =
    List.map
      (fun k ->
        match D.point_query d k with
        | None -> (k, -1)
        | Some r -> (k, r.Tweet.user_id))
      keys
  in
  let scan = D.full_scan d ~f:(fun _ -> ()) in
  let sec =
    D.query_secondary_keys d ~sec:"user_id" ~lo:0 ~hi:10 ~mode:`Timestamp ()
    |> List.sort compare
  in
  (points, scan, sec)

let gen_ops =
  QCheck2.Gen.(
    pair
      (oneofl
         [ Strategy.mutable_bitmap; Strategy.validation; Strategy.deleted_key_btree ])
      (list_size (int_range 30 150)
         (pair (int_range 0 40) (int_range 0 10))))

let degraded_equals_healthy =
  qtest "degraded == healthy == healed" gen_ops (fun (strategy, ops) ->
      let env = mk_env () in
      let d = mk_dataset ~strategy env in
      List.iteri
        (fun i (k, u) ->
          if i mod 11 = 3 then D.delete d ~pk:k
          else D.upsert d (tw ~user:u ~at:i k))
        ops;
      D.flush_now d;
      let keys = List.sort_uniq compare (List.map fst ops) in
      let healthy = snapshot d keys in
      quarantine_everything d;
      let degraded = snapshot d keys in
      if degraded <> healthy then
        QCheck2.Test.fail_report "degraded answers diverged";
      if
        D.quarantined_count d > 0
        && (Env.resil env).Env.degraded_probes = 0
        && Strategy.uses_primary_bitmap strategy
      then QCheck2.Test.fail_report "no degraded probe was counted";
      D.heal d;
      if D.quarantined_count d <> 0 then
        QCheck2.Test.fail_report "heal left quarantined components";
      let healed = snapshot d keys in
      if healed <> healthy then QCheck2.Test.fail_report "healed answers diverged";
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lsm_resilience"
    [
      ( "retry",
        [
          Alcotest.test_case "backoff math" `Quick test_backoff_math;
          Alcotest.test_case "backoff advances clock" `Quick
            test_backoff_advances_clock;
          Alcotest.test_case "exhaustion leaves no partials" `Quick
            test_retry_exhaustion_no_partials;
        ] );
      ("degraded", [ degraded_equals_healthy ]);
    ]
