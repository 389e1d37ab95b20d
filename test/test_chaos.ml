(* The chaos-hardened serving layer: the fault-plan grammar, the
   per-partition circuit breaker, the driver's faulted runs (determinism,
   graceful degradation, phase accounting), and the degraded-correctness
   checker — including that the checker itself catches lies. *)

module Chaos = Lsm_serve.Chaos
module Checker = Lsm_serve.Chaos_checker
module Driver = Lsm_serve.Driver
module Tweet = Lsm_workload.Tweet

(* ------------------------------------------------------------------ *)
(* Spec grammar *)

let parse_ok s =
  match Chaos.parse s with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "parse %S: %s" s e

let parse_err s =
  match Chaos.parse s with
  | Ok _ -> Alcotest.failf "parse %S: expected an error" s
  | Error _ -> ()

let test_parse_ok () =
  (match parse_ok "crash@p2@t150ms" with
  | [ { Chaos.part = 2; trigger = Chaos.At_us t; action = Chaos.Crash } ] ->
      Alcotest.(check (float 1e-9)) "150ms" 150_000.0 t
  | _ -> Alcotest.fail "crash spec shape");
  (match parse_ok "crash@p0@n500" with
  | [ { Chaos.trigger = Chaos.At_arrival 500; action = Chaos.Crash; _ } ] -> ()
  | _ -> Alcotest.fail "arrival trigger shape");
  (match parse_ok "io@p1@t50ms+40ms!6" with
  | [ { Chaos.part = 1; action = Chaos.Io_window { dur_us; fails }; _ } ] ->
      Alcotest.(check (float 1e-9)) "40ms window" 40_000.0 dur_us;
      Alcotest.(check int) "6 consecutive fails" 6 fails
  | _ -> Alcotest.fail "io spec shape");
  (match parse_ok "slow@p3@t60ms+50ms*8" with
  | [ { Chaos.action = Chaos.Slow { dur_us; factor }; _ } ] ->
      Alcotest.(check (float 1e-9)) "50ms window" 50_000.0 dur_us;
      Alcotest.(check (float 1e-9)) "8x" 8.0 factor
  | _ -> Alcotest.fail "slow spec shape");
  (match parse_ok "corrupt@p1@t80ms" with
  | [ { Chaos.part = 1; action = Chaos.Corrupt; _ } ] -> ()
  | _ -> Alcotest.fail "corrupt spec shape");
  (* Multi-element plans split on ';' or ',' and tolerate blanks. *)
  Alcotest.(check int) "three elements" 3
    (List.length (parse_ok "crash@p1@t60ms; io@p2@t30ms+30ms!6,slow@p0@t1s+2s"))

let test_parse_errors () =
  List.iter parse_err
    [
      "";
      "explode@p0@t5ms";
      "crash@q0@t5ms";
      "crash@p0@5ms";
      "crash@p0@t5parsecs";
      "io@p0@t5ms";
      (* window required *)
      "slow@p0@t5ms";
      "crash@p0@n0";
      (* arrivals are 1-based *)
      "crash@p0@t-5ms";
      "io@p0@t5ms+4ms!0";
    ]

(* Random strings over the alphabet of the chaos and SLO grammars,
   sometimes behind a valid fault kind so they reach the trigger, window
   and tail parsers.  Both parsers do index arithmetic on raw strings;
   they must answer with a value and never raise.  No bare string over
   this alphabet names a fault kind, so the chaos parser must reject it;
   an accepted SLO objective must be well-formed. *)
let grammar_alphabet =
  Array.append
    [| "@"; "p"; "t"; "n"; "+"; "!"; "*"; ";"; ","; ":"; "<"; "."; "us"; "ms"; "s" |]
    (Array.init 10 string_of_int)

let prop_parsers_never_raise =
  QCheck2.Test.make ~count:2000 ~name:"spec parsers return Error, never raise"
    ~print:(fun (kind, noise) -> kind ^ noise)
    QCheck2.Gen.(
      pair
        (oneofl [ ""; "crash@"; "corrupt@"; "io@"; "slow@" ])
        (map (String.concat "")
           (list_size (int_range 0 24) (oneofa grammar_alphabet))))
    (fun (kind, noise) ->
      let spec = kind ^ noise in
      (match Chaos.parse spec with
      | Error _ -> true
      | Ok faults -> kind <> "" && List.for_all (fun f -> f.Chaos.part >= 0) faults)
      &&
      match Lsm_obs.Slo.objective_of_string spec with
      | Error _ -> true
      | Ok o ->
          o.Lsm_obs.Slo.series <> ""
          && o.Lsm_obs.Slo.quantile > 0.0
          && o.Lsm_obs.Slo.quantile < 1.0
          && o.Lsm_obs.Slo.threshold_us > 0.0)

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let record_n b ~now ~ok n =
  for _ = 1 to n do
    Chaos.Breaker.record b ~now ~ok
  done

let test_breaker_trips_and_recovers () =
  let b = Chaos.Breaker.create ~cooldown_us:1000.0 () in
  Alcotest.(check bool) "starts closed" true
    (Chaos.Breaker.state b = Chaos.Breaker.Closed);
  Alcotest.(check bool) "closed admits" true
    (Chaos.Breaker.admit b ~now:0.0 = `Allow);
  (* Errors below min_events don't trip. *)
  record_n b ~now:10.0 ~ok:false 7;
  Alcotest.(check bool) "under min_events stays closed" true
    (Chaos.Breaker.state b = Chaos.Breaker.Closed);
  (* The 8th error crosses min_events at 100% error rate: open. *)
  Chaos.Breaker.record b ~now:20.0 ~ok:false;
  Alcotest.(check bool) "opens on budget burn" true
    (Chaos.Breaker.state b = Chaos.Breaker.Open);
  Alcotest.(check int) "one open" 1 (Chaos.Breaker.opens b);
  Alcotest.(check bool) "open rejects during cooldown" true
    (Chaos.Breaker.admit b ~now:500.0 = `Reject);
  (* Cooldown elapsed: half-open probe; a success closes it. *)
  Alcotest.(check bool) "probes after cooldown" true
    (Chaos.Breaker.admit b ~now:1500.0 = `Probe);
  Chaos.Breaker.record b ~now:1500.0 ~ok:true;
  Alcotest.(check bool) "probe success closes" true
    (Chaos.Breaker.state b = Chaos.Breaker.Closed);
  (* A failed probe re-opens instead. *)
  record_n b ~now:2000.0 ~ok:false 8;
  ignore (Chaos.Breaker.admit b ~now:4000.0);
  Chaos.Breaker.record b ~now:4000.0 ~ok:false;
  Alcotest.(check bool) "probe failure re-opens" true
    (Chaos.Breaker.state b = Chaos.Breaker.Open);
  Alcotest.(check int) "three opens" 3 (Chaos.Breaker.opens b);
  Alcotest.(check bool) "transitions recorded oldest-first" true
    (List.length (Chaos.Breaker.transitions b) >= 5)

let test_breaker_mixed_traffic_stays_closed () =
  let b = Chaos.Breaker.create () in
  (* 25% errors < 50% threshold: windows recycle, never trips. *)
  for k = 1 to 400 do
    Chaos.Breaker.record b ~now:(Float.of_int k) ~ok:(k mod 4 <> 0)
  done;
  Alcotest.(check bool) "stays closed" true
    (Chaos.Breaker.state b = Chaos.Breaker.Closed);
  Alcotest.(check int) "no opens" 0 (Chaos.Breaker.opens b)

(* ------------------------------------------------------------------ *)
(* Faulted runs: one small config shared by the scenario tests.  The
   rate is explicit so no capacity estimation runs, and the duration is
   short — each run is a few thousand arrivals. *)

let chaos_cfg ?(seed = 7) ?(strategy = Lsm_core.Strategy.validation) spec =
  let cfg = Driver.config ~partitions:4 Lsm_harness.Scale.tiny in
  {
    cfg with
    Driver.rate_rps = 1600.0;
    duration_s = 0.4;
    seed;
    strategy;
    mix = Driver.chaos_mix;
    chaos = parse_ok spec;
    policy =
      {
        Chaos.deadline_us = 8_000.0;
        retries = 1;
        hedge_us = 0.0;
        shed_backlog_us = 30_000.0;
      };
  }

let checked_run cfg =
  let checker = Checker.create ~partitions:cfg.Driver.partitions () in
  let verdict = ref None in
  let c =
    Driver.run_chaos
      ~on_preload:(Checker.preload checker)
      ~observe:(Checker.observe checker)
      ~probe:(fun lookup -> verdict := Some (Checker.verify checker ~probe:lookup))
      cfg
  in
  match !verdict with
  | Some v -> (c, v)
  | None -> Alcotest.fail "probe callback never ran"

let crash_run = lazy (checked_run (chaos_cfg "crash@p1@t60ms"))

let test_crash_passes_checker () =
  let c, v = Lazy.force crash_run in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  Alcotest.(check bool) "answers were audited" true (v.Checker.v_checked > 0);
  Alcotest.(check bool) "durability probe ran" true (v.Checker.v_probed > 0);
  (* Every arrival is accounted: ok + errors + shed, nothing dropped. *)
  Alcotest.(check int) "arrivals = ok + errors + shed"
    v.Checker.v_arrivals
    (v.Checker.v_successes + v.Checker.v_failures + v.Checker.v_shed);
  Alcotest.(check int) "driver and checker agree on arrivals"
    c.Driver.c_base.Driver.requests v.Checker.v_arrivals

let test_crash_degrades_gracefully () =
  let c, _ = Lazy.force crash_run in
  (* The crash produced a real outage window... *)
  Alcotest.(check bool) "partition was down" true (c.Driver.down_us > 0.0);
  Alcotest.(check bool) "some requests failed" true (c.Driver.failures > 0);
  (* ...but the fleet kept serving: availability stays high. *)
  Alcotest.(check bool)
    (Printf.sprintf "availability %.3f in (0.5, 1)" c.Driver.availability)
    true
    (c.Driver.availability > 0.5 && c.Driver.availability < 1.0);
  (* Phase accounting covers every arrival and saw degradation. *)
  let total = List.fold_left (fun a (_, n) -> a + n) 0 c.Driver.phase_counts in
  Alcotest.(check int) "phases partition the arrivals"
    c.Driver.c_base.Driver.requests total;
  let count ph = List.assoc ph c.Driver.phase_counts in
  Alcotest.(check bool) "healthy phase dominates" true (count "healthy" > 0);
  Alcotest.(check bool) "degraded phase observed" true
    (count "degraded" > 0 || count "recovering" > 0)

let test_chaos_deterministic () =
  let c1, v1 = Lazy.force crash_run in
  let c2, v2 = checked_run (chaos_cfg "crash@p1@t60ms") in
  Alcotest.(check bool) "same seed, identical chaos result" true (c1 = c2);
  Alcotest.(check bool) "identical verdict" true (v1 = v2)

let test_io_window_absorbed_by_retries () =
  (* 2 consecutive fails <= the engine's retry budget (3): the window
     costs latency, never errors, and the front door sees no faults. *)
  let c, v = checked_run (chaos_cfg "io@p2@t30ms+60ms!2") in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  let resil = List.nth c.Driver.c_base.Driver.resil 2 in
  Alcotest.(check bool) "engine retries absorbed the window" true
    (resil.Driver.pr_retries > 0);
  Alcotest.(check int) "no retry exhaustion" 0 resil.Driver.pr_exhausted

let test_io_window_beyond_retries_errors () =
  (* 8 consecutive fails exhaust the engine's retry budget; with the
     front door's own retry budget zeroed, exhaustions surface as
     request errors — and fan-outs answer partially, which the checker
     still audits (healthy slots exact, errored partitions excused). *)
  let cfg = chaos_cfg "io@p2@t10ms+350ms!8" in
  let cfg =
    { cfg with Driver.policy = { cfg.Driver.policy with Chaos.retries = 0 } }
  in
  let c, v = checked_run cfg in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  let resil = List.nth c.Driver.c_base.Driver.resil 2 in
  Alcotest.(check bool) "retries exhausted" true (resil.Driver.pr_exhausted > 0);
  Alcotest.(check bool) "requests errored" true (c.Driver.failures > 0);
  Alcotest.(check bool) "some fan-outs answered partially" true
    (c.Driver.partials > 0)

let test_slow_window_checks_out () =
  let c, v = checked_run (chaos_cfg "slow@p3@t40ms+60ms*8") in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  (* A slow disk degrades (phase accounting sees the window) without
     corrupting anything. *)
  Alcotest.(check bool) "degraded phase observed" true
    (List.assoc "degraded" c.Driver.phase_counts > 0)

let test_corrupt_heals_and_checks_out () =
  (* Corruption arms on the partition's next flush write and is caught
     when the page is read back — both need enough traffic, so this run
     is longer and faster than the others. *)
  let cfg =
    { (chaos_cfg "corrupt@p0@t50ms") with
      Driver.rate_rps = 2200.0;
      duration_s = 1.0;
    }
  in
  let c, v = checked_run cfg in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  let resil = List.nth c.Driver.c_base.Driver.resil 0 in
  Alcotest.(check bool) "checksum caught the bad page" true
    (resil.Driver.pr_checksum > 0)

let test_eager_rejected () =
  let cfg = { (chaos_cfg "crash@p0@t5ms") with Driver.strategy = Lsm_core.Strategy.Eager } in
  match Driver.run_chaos cfg with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Eager must be rejected (no WAL wrapper)"

(* ------------------------------------------------------------------ *)
(* The checker itself must catch lies, not just bless runs. *)

let tweet id =
  Tweet.
    { id; user_id = id * 7; location = 1; created_at = id + 1; msg_len = 10 }

let test_checker_catches_lies () =
  let ck = Checker.create ~partitions:4 () in
  let t1 = tweet 1 in
  Checker.observe ck (Driver.O_ack (Driver.Rt.Insert t1));
  (* Wrong point answer: acked key read back as absent. *)
  Checker.observe ck (Driver.O_point (1, None));
  (* A multi-get slot answered by a partition the reply claims errored. *)
  Checker.observe ck
    (Driver.O_multi
       { got = [ (1, Some t1) ]; err_parts = [ Checker.route ck 1 ] });
  let v = Checker.verify ck ~probe:(fun _ -> None) in
  Alcotest.(check bool) "violations found" true (not (Checker.ok v));
  (* wrong point + errored-slot ownership + durability probe miss *)
  Alcotest.(check int) "three violations" 3 v.Checker.v_violations_total

let test_checker_accepts_honest_degradation () =
  let ck = Checker.create ~partitions:4 () in
  let t1 = tweet 1 and t2 = tweet 2 in
  Checker.observe ck (Driver.O_ack (Driver.Rt.Insert t1));
  Checker.observe ck (Driver.O_ack (Driver.Rt.Insert t2));
  (* An errored partition's slot withheld is fine; the healthy slot must
     still be exact.  Shed and errors are counted, not checked. *)
  let p2 = Checker.route ck 2 in
  Checker.observe ck
    (Driver.O_multi { got = [ (1, Some t1) ]; err_parts = [ p2 ] });
  Checker.observe ck (Driver.O_error "down");
  Checker.observe ck Driver.O_shed;
  let v =
    Checker.verify ck ~probe:(fun pk -> if pk = 1 then Some t1 else Some t2)
  in
  if not (Checker.ok v) then
    Alcotest.failf "checker failed: %s" (Fmt.str "%a" Checker.pp_verdict v);
  Alcotest.(check int) "accounting" 5 v.Checker.v_arrivals;
  Alcotest.(check int) "one error" 1 v.Checker.v_failures;
  Alcotest.(check int) "one shed" 1 v.Checker.v_shed

(* ------------------------------------------------------------------ *)
(* Property: under a random single-partition fault plan, every degraded
   fan-out answer is a value-exact subset of fault-free semantics keyed
   by non-errored partitions, and acked writes survive recovery — i.e.
   the checker passes — for both WAL-compatible strategies. *)

let chaos_property =
  QCheck.Test.make ~count:4 ~name:"degraded answers are exact subsets"
    QCheck.(
      triple (int_range 0 3) (int_range 1 1000)
        (oneofl [ "crash"; "io"; "slow" ]))
    (fun (part, seed, kind) ->
      List.for_all
        (fun strategy ->
          let spec =
            match kind with
            | "crash" -> Printf.sprintf "crash@p%d@t60ms" part
            | "io" -> Printf.sprintf "io@p%d@t30ms+60ms!6" part
            | _ -> Printf.sprintf "slow@p%d@t30ms+60ms*8" part
          in
          let cfg =
            { (chaos_cfg ~seed ~strategy spec) with Driver.duration_s = 0.15 }
          in
          let _, v = checked_run cfg in
          if not (Checker.ok v) then
            QCheck.Test.fail_reportf "p%d seed %d %s (%s): %s" part seed kind
              (Lsm_core.Strategy.name strategy)
              (Fmt.str "%a" Checker.pp_verdict v);
          true)
        [ Lsm_core.Strategy.validation; Lsm_core.Strategy.mutable_bitmap ])

let () =
  Alcotest.run "lsm_chaos"
    [
      ( "spec",
        [
          Alcotest.test_case "grammar round-trips" `Quick test_parse_ok;
          Alcotest.test_case "rejects nonsense" `Quick test_parse_errors;
          QCheck_alcotest.to_alcotest prop_parsers_never_raise;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trips, cools down, recovers" `Quick
            test_breaker_trips_and_recovers;
          Alcotest.test_case "mixed traffic stays closed" `Quick
            test_breaker_mixed_traffic_stays_closed;
        ] );
      ( "driver",
        [
          Alcotest.test_case "crash: checker passes" `Quick
            test_crash_passes_checker;
          Alcotest.test_case "crash: degrades gracefully" `Quick
            test_crash_degrades_gracefully;
          Alcotest.test_case "deterministic for a seed" `Quick
            test_chaos_deterministic;
          Alcotest.test_case "io window within retry budget" `Quick
            test_io_window_absorbed_by_retries;
          Alcotest.test_case "io window beyond retry budget" `Quick
            test_io_window_beyond_retries_errors;
          Alcotest.test_case "slow window" `Quick test_slow_window_checks_out;
          Alcotest.test_case "corruption heals" `Quick
            test_corrupt_heals_and_checks_out;
          Alcotest.test_case "eager strategy rejected" `Quick
            test_eager_rejected;
        ] );
      ( "checker",
        [
          Alcotest.test_case "catches lies" `Quick test_checker_catches_lies;
          Alcotest.test_case "accepts honest degradation" `Quick
            test_checker_accepts_honest_degradation;
          QCheck_alcotest.to_alcotest chaos_property;
        ] );
    ]
