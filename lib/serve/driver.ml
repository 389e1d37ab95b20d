(** The open-loop serving driver: arrival-driven traffic against an
    N-partition cluster on the simulated clock.

    Partitions are modelled as parallel single-server queues (each env
    has its own device, cache, and clock — Sec. 2.2's shared-nothing
    nodes).  A request arriving at [a] starts at
    [max a (free over the partitions it involves)], runs for the max of
    its per-partition service times, and pushes the [free] horizon of
    each partition that did work by that partition's own share.  Clean
    runs ({!run}) and chaos runs ({!run_chaos}) share one request loop;
    a clean run is a chaos run with an empty fault plan.  Queueing
    delay is [start - a]; when the offered rate exceeds capacity the
    [free] horizons run away from the arrival clock and queueing delay
    grows without bound — the saturation knee the load sweep exists to
    find. *)

module Tweet = Lsm_workload.Tweet
module Query_gen = Lsm_workload.Query_gen
module Scale = Lsm_harness.Scale
module Strategy = Lsm_core.Strategy
module Rt = Router.Make (Tweet.Record)
module P = Rt.P
module Timeseries = Lsm_obs.Timeseries

type op_class = Ingest | Point | Multi | Secondary | Scan

let class_name = function
  | Ingest -> "ingest"
  | Point -> "point"
  | Multi -> "multi"
  | Secondary -> "secondary"
  | Scan -> "scan"

let all_classes = [ Ingest; Point; Multi; Secondary; Scan ]

type mix = {
  ingest : float;
  point : float;
  multi : float;  (** batched multi-gets (partition fan-out) *)
  secondary : float;
  scan : float;  (** relative weights; need not sum to 1 *)
}

(** Write-heavy social-feed mix: mostly ingest and point reads, a tail
    of secondary-range and recent-time-range queries. *)
let default_mix =
  { ingest = 0.5; point = 0.4; multi = 0.0; secondary = 0.07; scan = 0.03 }

(** Chaos-drill mix: shifts a slice of the point reads into multi-gets
    so partial fan-out responses are exercised alongside the
    single-partition paths. *)
let chaos_mix =
  { ingest = 0.5; point = 0.35; multi = 0.05; secondary = 0.07; scan = 0.03 }

type config = {
  scale : Scale.t;
  partitions : int;
  rate_rps : float;
      (** offered arrival rate; [<= 0] means auto (70% of estimated
          capacity) *)
  duration_s : float;  (** simulated seconds of open-loop traffic *)
  arrivals : Arrivals.kind;
  mix : mix;
  theta : float;  (** Zipf skew of the user/key population *)
  users : int;  (** key-population size the Zipf head draws from *)
  preload : int;  (** records ingested (closed-loop) before traffic *)
  budget_bytes : int;  (** the single global memory budget *)
  selectivity : float;  (** secondary-range selectivity *)
  strategy : Strategy.t;
  maint_workers : int;
      (** modeled maintenance workers per partition; > 1 overlaps
          independent merges (Sec. 2.3) *)
  mem_shards : int;
      (** memory shards per tree; > 1 lets the budget evict one full
          shard at a time instead of whole partition memtables *)
  seed : int;
  chaos : Chaos.fault list;  (** scheduled fault plan; [[]] = clean run *)
  policy : Chaos.policy;  (** front-door degradation policy (chaos runs) *)
}

let config ?(partitions = 4) scale =
  {
    scale;
    partitions;
    rate_rps = 0.0;
    duration_s = Scale.serve_duration_s scale;
    arrivals = `Poisson;
    mix = default_mix;
    theta = 0.99;
    users = Scale.serve_users scale;
    preload = Scale.serve_preload scale;
    budget_bytes = Scale.serve_budget_bytes scale ~partitions;
    selectivity = 0.001;
    strategy = Strategy.validation;
    maint_workers = 1;
    mem_shards = 1;
    seed = 42;
    chaos = [];
    policy = Chaos.default_policy;
  }

(* ------------------------------------------------------------------ *)
(* System construction *)

type system = {
  rt : Rt.t;
  gen : Tweet.gen;
  qgen : Query_gen.t;
  zipf : Lsm_util.Zipf.t;
  rng : Lsm_util.Rng.t;
  sec_mode : P.D.validation_mode;
  mutable now_created : int;  (** newest creation time generated so far *)
}

let build ?(durable = false) cfg =
  if cfg.partitions < 1 then invalid_arg "Driver: partitions >= 1";
  let cache_bytes =
    max (256 * 1024) (Scale.cache_bytes cfg.scale / cfg.partitions)
  in
  let mk_env _ =
    Lsm_harness.Obs_hub.attach
      (Lsm_sim.Env.create ~cache_bytes Scale.hdd_device)
  in
  let dcfg =
    {
      P.D.strategy = cfg.strategy;
      (* Per-dataset budget is not enforced (auto-maintenance is off);
         it still sizes the repair sort grant, so give each partition
         its fair share of the global budget. *)
      mem_budget = max 1 (cfg.budget_bytes / cfg.partitions);
      merge_policy =
        Lsm_tree.Merge_policy.tiering ~size_ratio:1.2
          ~max_mergeable_bytes:(Scale.max_mergeable_bytes cfg.scale) ();
      use_pk_index = true;
      bloom = Some { Lsm_tree.Config.kind = `Standard; fpr = 0.01 };
      maint_workers = max 1 cfg.maint_workers;
      mem_shards = max 1 cfg.mem_shards;
    }
  in
  let rt =
    Rt.create ~filter_key:Tweet.created_at
      ~secondaries:(Lsm_harness.Setup.secondary_specs 1)
      ~durable ~mk_env ~partitions:cfg.partitions
      ~budget_bytes:cfg.budget_bytes dcfg
  in
  {
    rt;
    gen = Tweet.create_gen ~seed:(cfg.seed * 31 + 1) ();
    qgen = Query_gen.create ~seed:(cfg.seed * 17 + 3) ();
    zipf = Lsm_util.Zipf.create ~theta:cfg.theta cfg.users;
    rng = Lsm_util.Rng.create cfg.seed;
    sec_mode =
      (match cfg.strategy with
      | Strategy.Eager -> `Assume_valid
      | _ -> `Timestamp);
    now_created = 0;
  }

(* Preload: ids [0, preload) exist before traffic starts — and since
   Zipf item 0 is the most popular, the hot head of the population is
   warm.  Closed-loop, under the global budget coordinator. *)
let preload ?(f = fun (_ : Tweet.t) -> ()) sys cfg =
  for id = 0 to cfg.preload - 1 do
    let tw = Tweet.with_id sys.gen id in
    if tw.Tweet.created_at > sys.now_created then
      sys.now_created <- tw.Tweet.created_at;
    ignore (Rt.exec sys.rt (Rt.Upsert tw));
    f tw
  done

(* One request drawn from the mix; the Zipf population covers ids the
   preload never wrote, so point queries miss realistically and ingests
   both update hot keys and create cold ones. *)
let gen_request sys cfg =
  let m = cfg.mix in
  let total = m.ingest +. m.point +. m.multi +. m.secondary +. m.scan in
  let u = Lsm_util.Rng.float sys.rng *. total in
  if u < m.ingest then begin
    let id = Lsm_util.Zipf.sample sys.rng sys.zipf in
    let tw = Tweet.with_id sys.gen id in
    if tw.Tweet.created_at > sys.now_created then
      sys.now_created <- tw.Tweet.created_at;
    (Ingest, Rt.Upsert tw)
  end
  else if u < m.ingest +. m.point then
    (Point, Rt.Point (Lsm_util.Zipf.sample sys.rng sys.zipf))
  else if u < m.ingest +. m.point +. m.multi then begin
    (* Up to 8 hot keys; Zipf duplicates collapse, so heavy skew shrinks
       the batch the way a feed hydration of mostly-famous ids would. *)
    let seen = Hashtbl.create 8 in
    let ks =
      Array.init 8 (fun _ -> Lsm_util.Zipf.sample sys.rng sys.zipf)
      |> Array.to_list
      |> List.filter (fun k ->
             if Hashtbl.mem seen k then false
             else begin
               Hashtbl.add seen k ();
               true
             end)
    in
    (Multi, Rt.Multi_get (Array.of_list ks))
  end
  else if u < m.ingest +. m.point +. m.multi +. m.secondary then begin
    let lo, hi = Query_gen.user_range sys.qgen ~selectivity:cfg.selectivity in
    (Secondary, Rt.Secondary { sec = "user_id"; lo; hi; mode = sys.sec_mode })
  end
  else begin
    let tlo, thi =
      Query_gen.recent_time_range ~now:(max 1 sys.now_created) ~days:1
        ~day_span:30
    in
    (Scan, Rt.Time_range { tlo; thi })
  end

(* ------------------------------------------------------------------ *)
(* Capacity estimation *)

(** [estimate_capacity cfg] runs a short closed-loop probe on a fresh
    system and reports the aggregate rate (requests per simulated
    second) at which the busiest partition saturates — the open-loop
    sweeps anchor their rate ladders to this. *)
let estimate_capacity ?(ops = 1500) ?(durable = false) (cfg : config) =
  let sys = build ~durable cfg in
  preload sys cfg;
  let busy = Array.make cfg.partitions 0.0 in
  for _ = 1 to ops do
    let _, req = gen_request sys cfg in
    let o = Rt.exec sys.rt req in
    Array.iteri (fun i d -> busy.(i) <- busy.(i) +. d) o.Rt.service_us
  done;
  let bottleneck = Array.fold_left Float.max 0.0 busy in
  if bottleneck <= 0.0 then 0.0 else Float.of_int ops *. 1e6 /. bottleneck

(* ------------------------------------------------------------------ *)
(* The open-loop run *)

type class_stats = {
  cls : string;
  count : int;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_queue_us : float;
  mean_service_us : float;
}

(** Per-partition engine resilience counters ([resilience.*] in
    reports): how much retry/degradation machinery the run exercised.
    All zero in clean runs. *)
type part_resil = {
  pr_part : int;
  pr_retries : int;  (** transient faults absorbed by backoff *)
  pr_exhausted : int;  (** retry budgets exhausted *)
  pr_checksum : int;  (** corrupt pages detected at read *)
  pr_quarantines : int;  (** components quarantined *)
  pr_rebuilds : int;  (** components rebuilt or scrubbed by heal *)
}

type result = {
  r_cfg : config;
  rate_rps : float;  (** the rate actually offered *)
  capacity_rps : float;  (** estimate, when one was made (else 0) *)
  requests : int;
  classes : class_stats list;  (** one per op class, plus ["all"] *)
  backlog_frac : float;
      (** unfinished work at the horizon, as a fraction of the run:
          [(max free - horizon) / horizon], clamped at 0 *)
  queue_growth : float;
      (** mean queueing delay, second half over first half of the run —
          ~1 below saturation, grows without bound above it *)
  saturated : bool;
  budget_bytes : int;
  peak_mem_bytes : int;  (** aggregate memtable peak after enforcement *)
  peak_pre_mem_bytes : int;  (** peak overshoot before enforcement *)
  evictions : int;  (** coordinator-initiated flushes *)
  resil : part_resil list;  (** one entry per partition *)
}

type sample = {
  s_cls : op_class;
  arrival_us : float;
  queue_us : float;
  service_us : float;
}

let mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. Float.of_int (List.length l)

let stats_of name samples =
  let lat =
    Array.of_list (List.map (fun s -> s.queue_us +. s.service_us) samples)
  in
  let pct p = if Array.length lat = 0 then 0.0 else Lsm_obs.Stats.percentile lat p in
  {
    cls = name;
    count = List.length samples;
    p50_us = pct 50.0;
    p95_us = pct 95.0;
    p99_us = pct 99.0;
    mean_queue_us = mean (List.map (fun s -> s.queue_us) samples);
    mean_service_us = mean (List.map (fun s -> s.service_us) samples);
  }

let collect_resil sys partitions =
  List.init partitions (fun i ->
      let s = Lsm_sim.Env.resil (P.env (Rt.partitioned sys.rt) i) in
      {
        pr_part = i;
        pr_retries = s.Lsm_sim.Env.retries;
        pr_exhausted = s.Lsm_sim.Env.exhausted;
        pr_checksum = s.Lsm_sim.Env.checksum_failures;
        pr_quarantines = s.Lsm_sim.Env.quarantines;
        pr_rebuilds = s.Lsm_sim.Env.rebuilds;
      })

(* Maintenance span names worth a flight-recorder entry: the budget
   eviction itself is recorded by the router; these are the engine-level
   spans it decomposes into (plus view rebuilds, which also steal
   partition time from foreground requests). *)
let maintenance_spans =
  [
    "dataset.flush";
    "dataset.merge";
    "lsm.flush";
    "lsm.merge";
    "lsm.view.build";
    "maint.job";
  ]

(* ------------------------------------------------------------------ *)
(* Fault plans and what the client sees *)

(** What the front door told the client — one event per arrival, in
    arrival order.  A model-based checker ({!Chaos_checker}) replays the
    acknowledged writes and audits every non-errored answer against the
    fault-free semantics. *)
type chaos_obs =
  | O_ack of Rt.request  (** acknowledged (durable) write *)
  | O_reject_dup  (** insert hit the uniqueness check; no state change *)
  | O_point of int * Tweet.t option
  | O_multi of { got : (int * Tweet.t option) list; err_parts : int list }
      (** answered slots, plus partitions whose slots errored *)
  | O_secondary of {
      lo : int;
      hi : int;
      rows : Tweet.t list;
      err_parts : int list;
    }
  | O_scan of {
      tlo : int;
      thi : int;
      counts : (int * int) list;  (** (partition, rows) for answered slots *)
      err_parts : int list;
    }
  | O_error of string  (** whole-request failure, by reason *)
  | O_shed  (** admission control turned the request away *)

let phases = [ "healthy"; "degraded"; "recovering" ]

type chaos_result = {
  c_base : result;
      (** [requests] counts every arrival; latency classes cover
          successful requests only *)
  c_policy : Chaos.policy;
  c_faults : string list;  (** the plan, as {!Chaos.describe} lines *)
  successes : int;
  partials : int;  (** successes with at least one errored partition slot *)
  failures : int;
  shed : int;
  fail_reasons : (string * int) list;
  availability : float;  (** successes / arrivals *)
  shed_rate : float;
  phase_counts : (string * int) list;  (** arrivals per phase *)
  phase_classes : (string * class_stats list) list;
      (** per-phase SLO tables over successful requests *)
  breaker_opens : int;
  breaker_transitions : int;
  down_us : float;  (** total crash-induced partition unavailability *)
  evictions_by : int list;  (** coordinator evictions per partition *)
}

(* Per-partition fault-hook state, interpreted by one installed hook.
   Only [io.*] announcement points participate: those run under the
   engine's retry/backoff layer, whereas raising a raw injected fault on
   a WAL or commit fault point would bypass it. *)
type hook_st = {
  mutable io_on : bool;
  mutable io_fails : int;
  mutable io_cycle : int;
  mutable io_count : int;
  mutable corrupt_armed : bool;
  mutable corrupt_hit : bool;
}

(* A scheduled fault's runtime state. *)
type fault_rt = {
  f : Chaos.fault;
  mutable fired : bool;
  mutable ends_at : float;  (** active window end; 0 otherwise *)
  mutable healed : bool;  (** corruption repaired (Corrupt only) *)
}

(* ------------------------------------------------------------------ *)
(* The request loop *)

(* [serve ~durable ...] is the one open-loop request loop behind {!run}
   and {!run_chaos}: it builds the cluster ([~durable] puts every
   partition behind the serial-WAL wrapper), interprets [cfg.chaos] on
   the arrival clock, and gates, executes and accounts every arrival.
   With an empty plan no fault fires, every breaker stays closed, and
   the default policy neither sheds, hedges nor times out, so each
   request runs exactly as {!Rt.exec} would run it.  Eager runs only on
   a non-durable cluster: the WAL wrapper rejects it, because Eager's
   read-modify-write path needs old-record logging the wrapper does not
   provide. *)
let serve ~durable ?timeline ?(on_preload = fun (_ : Tweet.t) -> ())
    ?(observe = fun (_ : chaos_obs) -> ())
    ?(probe = fun (_ : int -> Tweet.t option) -> ()) (cfg : config) =
  let n = cfg.partitions in
  List.iter
    (fun (f : Chaos.fault) ->
      if f.Chaos.part < 0 || f.Chaos.part >= n then
        invalid_arg
          (Printf.sprintf
             "Driver.run_chaos: fault %s targets p%d but there are only %d \
              partitions"
             (Chaos.describe f) f.Chaos.part n))
    cfg.chaos;
  let capacity_rps, cfg =
    if cfg.rate_rps > 0.0 then (0.0, cfg)
    else begin
      let cap = estimate_capacity ~durable cfg in
      if cap <= 0.0 then invalid_arg "Driver: capacity estimate is zero";
      (cap, { cfg with rate_rps = 0.7 *. cap })
    end
  in
  let policy = cfg.policy in
  let deadline_us = policy.Chaos.deadline_us in
  let hedge_us = Chaos.hedge_trigger_us policy in
  let sys = build ~durable cfg in
  preload ~f:on_preload sys cfg;
  let rt = sys.rt in
  let pt = Rt.partitioned rt in
  let envof i = P.env pt i in
  let tl f = Option.iter f timeline in
  (* Timeline span plumbing.  Partition clocks are independent of the
     arrival timeline, and a request's start is only known *after*
     execution (the free-horizon start depends on which partitions it
     involved) — so span hooks buffer maintenance spans during
     execution, and the per-partition clock snapshots in [c0] translate
     them afterwards: run_ts = start + (span_start − c0).  Hooks go in
     after the preload; preload maintenance happens before the
     timeline's time zero. *)
  let c0 = Array.make n 0.0 in
  let spanbuf = ref [] in
  tl (fun _ ->
      for i = 0 to n - 1 do
        Lsm_sim.Env.set_span_hook (envof i) (fun sp ->
            if List.mem sp.Lsm_sim.Env.sp_name maintenance_spans then
              spanbuf := (i, sp) :: !spanbuf)
      done);
  let hooks =
    Array.init n (fun _ ->
        {
          io_on = false;
          io_fails = 0;
          io_cycle = 0;
          io_count = 0;
          corrupt_armed = false;
          corrupt_hit = false;
        })
  in
  for i = 0 to n - 1 do
    let st = hooks.(i) in
    Lsm_sim.Env.set_fault_hook (envof i) (function
      | (Lsm_sim.Fault_point.Io_read | Io_write) as point ->
          if st.corrupt_armed && point = Io_write then begin
            st.corrupt_armed <- false;
            st.corrupt_hit <- true;
            raise
              (Lsm_sim.Env.Injected_fault
                 { kind = Lsm_sim.Env.Corrupt; point; hit = 1 })
          end;
          if st.io_on then begin
            let k = st.io_count in
            st.io_count <- k + 1;
            if k mod st.io_cycle < st.io_fails then
              raise
                (Lsm_sim.Env.Injected_fault
                   { kind = Lsm_sim.Env.Io_error; point; hit = k + 1 })
          end
      | _ -> ())
  done;
  let frts =
    List.map
      (fun f -> { f; fired = false; ends_at = 0.0; healed = false })
      cfg.chaos
  in
  let free = Array.make n 0.0 in
  let down_until = Array.make n 0.0 in
  let degraded_until = Array.make n 0.0 in
  let recovering_until = Array.make n 0.0 in
  let breakers = Array.init n (fun _ -> Chaos.Breaker.create ()) in
  let drained = Array.make n 0 in
  let breaker_events = ref 0 in
  let down_us = ref 0.0 in
  let ev ~start_us ~dur_us kind part detail =
    tl (fun ts -> Timeseries.event ts ~start_us ~dur_us ~kind ~part detail)
  in
  let fire_faults a narr =
    List.iter
      (fun frt ->
        let i = frt.f.Chaos.part in
        if not frt.fired then begin
          let due =
            match frt.f.Chaos.trigger with
            | Chaos.At_us t -> a >= t
            | Chaos.At_arrival k -> narr >= k
          in
          if due then begin
            frt.fired <- true;
            match frt.f.Chaos.action with
            | Chaos.Crash ->
                (* Synchronous outage: lose the partition's memory state,
                   replay the WAL.  The recovery's simulated cost lands
                   on the partition's clock; arrivals needing it before
                   the recovered horizon fast-fail as down.  The chaos
                   plan targets serving I/O, not the recovery path
                   (faultsim enumerates that exhaustively), so an
                   intermittent window pauses during replay. *)
                let env = envof i in
                let was = hooks.(i).io_on in
                hooks.(i).io_on <- false;
                let t0 = Lsm_sim.Env.now_us env in
                (* The WAL scan: recovery reads the log back from the
                   device before replaying.  The simulated WAL holds its
                   records in memory and charges only fsyncs, so the
                   read cost is modeled here — ~64B per record,
                   sequential, uncached. *)
                let wal_pages =
                  let per_page = max 1 (Lsm_sim.Env.page_size env / 64) in
                  (Rt.wal_length rt i + per_page - 1) / per_page
                in
                let logf = Lsm_sim.Env.fresh_file_id env in
                for p = 0 to wal_pages - 1 do
                  Lsm_sim.Env.read_page env ~file:logf ~page:p
                done;
                Lsm_sim.Env.drop_file env ~file:logf;
                Rt.crash_partition rt i;
                Rt.recover_partition rt i;
                hooks.(i).io_on <- was;
                let dur = Lsm_sim.Env.now_us env -. t0 in
                let busy_start = Float.max free.(i) a in
                free.(i) <- busy_start +. dur;
                down_until.(i) <- free.(i);
                recovering_until.(i) <-
                  Float.max recovering_until.(i) (free.(i) +. dur);
                down_us := !down_us +. (free.(i) -. a);
                ev ~start_us:a ~dur_us:(free.(i) -. a) "chaos.crash" i [];
                ev ~start_us:busy_start ~dur_us:dur "chaos.recover" i []
            | Chaos.Io_window { dur_us; fails } ->
                hooks.(i).io_on <- true;
                hooks.(i).io_fails <- fails;
                hooks.(i).io_cycle <- fails * 4;
                hooks.(i).io_count <- 0;
                frt.ends_at <- a +. dur_us;
                degraded_until.(i) <- Float.max degraded_until.(i) frt.ends_at;
                ev ~start_us:a ~dur_us "chaos.io" i [ ("fails", fails) ]
            | Chaos.Slow { dur_us; factor } ->
                Lsm_sim.Env.set_io_penalty (envof i) factor;
                frt.ends_at <- a +. dur_us;
                degraded_until.(i) <- Float.max degraded_until.(i) frt.ends_at;
                ev ~start_us:a ~dur_us "chaos.slow" i
                  [ ("factor_x10", Float.to_int (factor *. 10.0)) ]
            | Chaos.Corrupt ->
                hooks.(i).corrupt_armed <- true;
                ev ~start_us:a ~dur_us:0.0 "chaos.corrupt" i []
          end
        end
        else if frt.ends_at > 0.0 && a >= frt.ends_at then begin
          (match frt.f.Chaos.action with
          | Chaos.Io_window _ -> hooks.(i).io_on <- false
          | Chaos.Slow _ -> Lsm_sim.Env.set_io_penalty (envof i) 1.0
          | Chaos.Crash | Chaos.Corrupt -> ());
          frt.ends_at <- 0.0;
          (* Recovering until the backlog the window built has drained:
             the partition's free horizon at window close. *)
          recovering_until.(i) <- Float.max recovering_until.(i) free.(i)
        end)
      frts
  in
  (* Corruption repair: once a quarantine shows the checksum path caught
     the bad page, heal the partition (component rebuild on its clock). *)
  let heal_due a =
    List.iter
      (fun frt ->
        match frt.f.Chaos.action with
        | Chaos.Corrupt when frt.fired && not frt.healed ->
            let i = frt.f.Chaos.part in
            if hooks.(i).corrupt_hit && Rt.quarantined rt i > 0 then begin
              let env = envof i in
              let t0 = Lsm_sim.Env.now_us env in
              Rt.heal_partition rt i;
              let dur = Lsm_sim.Env.now_us env -. t0 in
              let busy_start = Float.max free.(i) a in
              free.(i) <- busy_start +. dur;
              frt.healed <- true;
              recovering_until.(i) <-
                Float.max recovering_until.(i) (free.(i) +. dur);
              ev ~start_us:busy_start ~dur_us:dur "chaos.heal" i []
            end
        | _ -> ())
      frts
  in
  let corrupt_open () =
    List.exists
      (fun frt ->
        match frt.f.Chaos.action with
        | Chaos.Corrupt ->
            frt.fired && hooks.(frt.f.Chaos.part).corrupt_hit && not frt.healed
        | _ -> false)
      frts
  in
  let phase_of a =
    let any arr = Array.exists (fun t -> a < t) arr in
    if any down_until || any degraded_until || corrupt_open () then "degraded"
    else if any recovering_until then "recovering"
    else "healthy"
  in
  let drain_breakers () =
    for i = 0 to n - 1 do
      let trs = Chaos.Breaker.transitions breakers.(i) in
      let fresh = List.filteri (fun k _ -> k >= drained.(i)) trs in
      List.iter
        (fun (at, st) ->
          incr breaker_events;
          ev ~start_us:at ~dur_us:0.0
            ("breaker." ^ Chaos.Breaker.state_name st)
            i [])
        fresh;
      drained.(i) <- List.length trs
    done
  in
  let with_attempts f =
    let rec go k =
      match f () with
      | v -> Ok v
      | exception Lsm_sim.Resilience.Unrecoverable _ ->
          if k < policy.Chaos.retries then go (k + 1) else Error "io"
    in
    go 0
  in
  let arr =
    Arrivals.create ~seed:((cfg.seed * 131) + 7) ~rate_rps:cfg.rate_rps
      cfg.arrivals
  in
  let horizon_us = cfg.duration_s *. 1e6 in
  let samples = ref [] in
  let n_req = ref 0 in
  let successes = ref 0 and partials = ref 0 and shed = ref 0 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let fail_tbl = Hashtbl.create 8 in
  let fail a reason =
    bump fail_tbl reason;
    observe (O_error reason);
    tl (fun ts ->
        Timeseries.count ts ~at_us:a "errors" 1;
        Timeseries.count ts ~at_us:a ("error." ^ reason) 1)
  in
  let phase_tbl = Hashtbl.create 4 in
  let blocked_reason blocked =
    match blocked with (_, `Down) :: _ -> "down" | _ -> "breaker"
  in
  let rec loop a =
    if a <= horizon_us then begin
      incr n_req;
      fire_faults a !n_req;
      heal_due a;
      let ph = phase_of a in
      bump phase_tbl ph;
      let s_cls, req = gen_request sys cfg in
      let targets = Rt.targets rt req in
      let backlog i = Float.max 0.0 (free.(i) -. a) in
      let min_backlog =
        List.fold_left (fun acc i -> Float.min acc (backlog i)) infinity
          targets
      in
      let cap = policy.Chaos.shed_backlog_us in
      (match
         if cap > 0.0 && min_backlog > cap then
           raise (Chaos.Overloaded { backlog_us = min_backlog; cap_us = cap })
       with
      | exception Chaos.Overloaded _ ->
          incr shed;
          observe O_shed;
          tl (fun ts ->
              Timeseries.count ts ~at_us:a "shed" 1;
              Timeseries.event ts ~start_us:a ~dur_us:0.0 ~kind:"shed"
                ~part:(List.hd targets) [])
      | () ->
          let record i ok = Chaos.Breaker.record breakers.(i) ~now:a ~ok in
          let gates =
            List.map
              (fun i ->
                if a < down_until.(i) then begin
                  record i false;
                  (i, `Down)
                end
                else
                  match Chaos.Breaker.admit breakers.(i) ~now:a with
                  | `Reject -> (i, `Breaker)
                  | `Allow | `Probe -> (i, `Go))
              targets
          in
          let go =
            List.filter_map (fun (i, g) -> if g = `Go then Some i else None)
              gates
          in
          let blocked =
            List.filter_map
              (fun (i, g) -> if g <> `Go then Some (i, g) else None)
              gates
          in
          (* A fan-out answers from the partitions that can: [piece i]
             is partition [i]'s share, errored and blocked partitions
             are reported beside the answer, and the request fails only
             when no partition answered. *)
          let fan_out piece answer =
            if go = [] then Error "unavailable"
            else begin
              let got = ref [] and err_parts = ref (List.map fst blocked) in
              List.iter
                (fun i ->
                  match with_attempts (fun () -> piece i) with
                  | Ok v ->
                      record i true;
                      got := (i, v) :: !got
                  | Error _ ->
                      record i false;
                      err_parts := i :: !err_parts)
                go;
              let err_parts = List.sort_uniq Int.compare !err_parts in
              if List.length err_parts >= List.length targets then
                Error "unavailable"
              else Ok (answer (List.rev !got) err_parts, None, err_parts <> [])
            end
          in
          tl (fun _ ->
              spanbuf := [];
              for i = 0 to n - 1 do
                c0.(i) <- Lsm_sim.Env.now_us (envof i)
              done);
          Rt.snapshot rt;
          let queue0 =
            List.fold_left (fun acc i -> Float.max acc (backlog i)) 0.0 go
          in
          let outcome =
            if
              (not (Rt.is_write req))
              && deadline_us > 0.0 && go <> [] && queue0 >= deadline_us
            then begin
              (* The queue alone already blows the deadline: fail fast
                 without occupying the engine, and charge the slow
                 partitions' error budgets so their breakers start
                 shedding. *)
              List.iter (fun i -> record i false) go;
              Error "deadline"
            end
            else
              match (req, go) with
              | (Rt.Insert _ | Rt.Upsert _ | Rt.Delete _), [ i ] -> (
                  match with_attempts (fun () -> Rt.exec_write rt req) with
                  | Ok reply ->
                      (* The write is acked even if an eviction it
                         triggers fails; the budget retries next write. *)
                      (try Budget.enforce (Rt.budget rt)
                       with Lsm_sim.Resilience.Unrecoverable _ -> ());
                      record i true;
                      Ok
                        ( (match reply with
                          | Rt.Rejected -> O_reject_dup
                          | _ -> O_ack req),
                          None,
                          false )
                  | Error r ->
                      record i false;
                      Error r)
              | Rt.Point pk, [ i ] -> (
                  let env = envof i in
                  let attempt () =
                    let t0 = Lsm_sim.Env.now_us env in
                    let v = Rt.point_part rt pk in
                    (v, Lsm_sim.Env.now_us env -. t0)
                  in
                  match with_attempts attempt with
                  | Error r ->
                      record i false;
                      Error r
                  | Ok (v, d1) ->
                      record i true;
                      let lat =
                        if d1 > hedge_us then begin
                          (* One hedged re-attempt to the same partition:
                             it pays for both, the client sees the
                             earlier completion. *)
                          match attempt () with
                          | _, d2 -> Float.min d1 (hedge_us +. d2)
                          | exception Lsm_sim.Resilience.Unrecoverable _ -> d1
                        end
                        else d1
                      in
                      Ok (O_point (pk, v), Some lat, false))
              | (Rt.Insert _ | Rt.Upsert _ | Rt.Delete _ | Rt.Point _), _ ->
                  Error (blocked_reason blocked)
              | Rt.Multi_get pks, _ ->
                  let groups = Rt.key_groups rt pks in
                  fan_out
                    (fun i -> Rt.multi_get_part rt i groups.(i))
                    (fun got err_parts ->
                      O_multi { got = List.concat_map snd got; err_parts })
              | Rt.Secondary { sec; lo; hi; mode }, _ ->
                  fan_out
                    (fun i -> Rt.secondary_part rt i ~sec ~lo ~hi ~mode)
                    (fun rows err_parts ->
                      O_secondary
                        { lo; hi; rows = List.concat_map snd rows; err_parts })
              | Rt.Time_range { tlo; thi }, _ ->
                  fan_out
                    (fun i -> Rt.time_range_part rt i ~tlo ~thi)
                    (fun counts err_parts ->
                      O_scan { tlo; thi; counts; err_parts })
          in
          (* The free-horizon rule: a request starts once every partition
             it involved is free — its targets plus any partition whose
             clock moved (a budget flush elsewhere delays only requests
             routed there) — and pushes the horizon of each partition
             that did work by that partition's own share. *)
          let svc = Rt.service_since rt in
          let involved = ref go in
          Array.iteri
            (fun i d ->
              if d > 0.0 && not (List.mem i !involved) then
                involved := i :: !involved)
            svc;
          let start =
            List.fold_left (fun acc i -> Float.max acc free.(i)) a !involved
          in
          Array.iteri (fun i d -> if d > 0.0 then free.(i) <- start +. d) svc;
          let queue_us = start -. a in
          match outcome with
          | Ok (obs, lat_override, partial) ->
              let lat_svc =
                match lat_override with
                | Some l -> l
                | None ->
                    List.fold_left
                      (fun acc i -> Float.max acc svc.(i))
                      0.0 !involved
              in
              if
                deadline_us > 0.0
                && (not (Rt.is_write req))
                && queue_us +. lat_svc > deadline_us
              then fail a "deadline"
              else begin
                incr successes;
                if partial then incr partials;
                observe obs;
                samples :=
                  ( ph,
                    { s_cls; arrival_us = a; queue_us; service_us = lat_svc } )
                  :: !samples;
                tl (fun ts ->
                    let done_us = start +. lat_svc in
                    let lat = queue_us +. lat_svc in
                    Timeseries.observe ts ~at_us:done_us (class_name s_cls) lat;
                    Timeseries.observe ts ~at_us:done_us "all" lat;
                    Timeseries.observe ts ~at_us:done_us ("phase." ^ ph) lat;
                    if partial then
                      Timeseries.count ts ~at_us:done_us "partials" 1;
                    Timeseries.set_max ts ~at_us:done_us "queue_us" queue_us;
                    List.iter
                      (fun i ->
                        Timeseries.add ts ~at_us:done_us
                          (Printf.sprintf "p%d.busy_us" i)
                          svc.(i);
                        Timeseries.set_last ts ~at_us:done_us
                          (Printf.sprintf "p%d.backlog_us" i)
                          (backlog i);
                        Timeseries.set_last ts ~at_us:done_us
                          (Printf.sprintf "p%d.mem_bytes" i)
                          (Float.of_int (P.mem_bytes_of pt i)))
                      !involved;
                    Timeseries.set_last ts ~at_us:done_us "mem_bytes"
                      (Float.of_int (P.total_mem_bytes pt));
                    List.iter
                      (fun (e : Rt.eviction) ->
                        let ev_ts = start +. e.Rt.ev_start_off_us in
                        Timeseries.count ts ~at_us:ev_ts "evictions" 1;
                        Timeseries.count ts ~at_us:ev_ts "flushes"
                          e.Rt.ev_flushes;
                        Timeseries.count ts ~at_us:ev_ts "merges"
                          e.Rt.ev_merges;
                        Timeseries.add ts ~at_us:ev_ts "evicted_bytes"
                          (Float.of_int e.Rt.ev_bytes);
                        Timeseries.event ts ~start_us:ev_ts
                          ~dur_us:e.Rt.ev_dur_us ~kind:"eviction"
                          ~part:e.Rt.ev_part
                          [
                            ("bytes", e.Rt.ev_bytes);
                            ("flushes", e.Rt.ev_flushes);
                            ("merges", e.Rt.ev_merges);
                            ("merge_bytes", e.Rt.ev_merge_bytes);
                          ])
                      (Rt.evictions_since rt);
                    List.iter
                      (fun (i, (sp : Lsm_sim.Env.span_event)) ->
                        Timeseries.event ts
                          ~start_us:
                            (start +. (sp.Lsm_sim.Env.sp_start_us -. c0.(i)))
                          ~dur_us:sp.Lsm_sim.Env.sp_dur_us
                          ~kind:sp.Lsm_sim.Env.sp_name ~part:i [])
                      (List.rev !spanbuf))
              end
          | Error reason -> fail a reason);
      drain_breakers ();
      loop (Arrivals.next arr)
    end
  in
  loop (Arrivals.next arr);
  for i = 0 to n - 1 do
    Lsm_sim.Env.clear_fault_hook (envof i);
    Lsm_sim.Env.set_io_penalty (envof i) 1.0;
    tl (fun _ -> Lsm_sim.Env.clear_span_hook (envof i))
  done;
  (* Corruption still unhealed at the horizon heals now, so the
     durability probe audits a fully repaired cluster. *)
  List.iter
    (fun frt ->
      match frt.f.Chaos.action with
      | Chaos.Corrupt when frt.fired && not frt.healed ->
          Rt.heal_partition rt frt.f.Chaos.part;
          frt.healed <- true
      | _ -> ())
    frts;
  drain_breakers ();
  let samples = List.rev !samples in
  let class_table ss =
    List.map
      (fun c -> stats_of (class_name c) (List.filter (fun s -> s.s_cls = c) ss))
      all_classes
    @ [ stats_of "all" ss ]
  in
  let all = List.map snd samples in
  let backlog =
    Array.fold_left (fun acc f -> Float.max acc (f -. horizon_us)) 0.0 free
  in
  let backlog_frac = if horizon_us > 0.0 then backlog /. horizon_us else 0.0 in
  let half = horizon_us /. 2.0 in
  let mean_queue keep =
    mean
      (List.filter_map
         (fun s -> if keep s.arrival_us then Some s.queue_us else None)
         all)
  in
  let q1 = mean_queue (fun t -> t < half) in
  let q2 = mean_queue (fun t -> t >= half) in
  let b = Rt.budget rt in
  let base =
    {
      r_cfg = cfg;
      rate_rps = cfg.rate_rps;
      capacity_rps;
      requests = !n_req;
      classes = class_table all;
      backlog_frac;
      queue_growth = (q2 +. 1.0) /. (q1 +. 1.0);
      saturated = backlog_frac > 0.05;
      budget_bytes = Budget.budget_bytes b;
      peak_mem_bytes = Budget.peak_bytes b;
      peak_pre_mem_bytes = Budget.peak_pre_bytes b;
      evictions = Budget.evictions b;
      resil = collect_resil sys cfg.partitions;
    }
  in
  let failures = Hashtbl.fold (fun _ v acc -> acc + v) fail_tbl 0 in
  let fail_reasons =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) fail_tbl []
    |> List.sort (fun (k1, v1) (k2, v2) ->
           match String.compare k1 k2 with
           | 0 -> Int.compare v1 v2
           | c -> c)
  in
  let phase_counts =
    List.map
      (fun ph ->
        (ph, Option.value ~default:0 (Hashtbl.find_opt phase_tbl ph)))
      phases
  in
  let phase_classes =
    List.map
      (fun phn ->
        ( phn,
          class_table
            (List.filter_map
               (fun (p, s) -> if String.equal p phn then Some s else None)
               samples) ))
      phases
  in
  let total = !n_req in
  let res =
    {
      c_base = base;
      c_policy = policy;
      c_faults = List.map Chaos.describe cfg.chaos;
      successes = !successes;
      partials = !partials;
      failures;
      shed = !shed;
      fail_reasons;
      availability =
        (if total = 0 then 1.0
         else Float.of_int !successes /. Float.of_int total);
      shed_rate =
        (if total = 0 then 0.0 else Float.of_int !shed /. Float.of_int total);
      phase_counts;
      phase_classes;
      breaker_opens =
        Array.fold_left (fun acc b -> acc + Chaos.Breaker.opens b) 0 breakers;
      breaker_transitions = !breaker_events;
      down_us = !down_us;
      evictions_by = List.init n (Budget.evictions_of b);
    }
  in
  probe (fun pk -> P.point_query pt pk);
  res

(** [run ?timeline cfg] executes one clean open-loop run: the request
    loop on a non-durable cluster with an empty fault plan.  With
    [cfg.rate_rps <= 0] the rate is set to 70% of a fresh capacity
    estimate.  Deterministic for a fixed seed.

    When [timeline] is given, every completion feeds it: per-class
    latency histograms stamped at the request's *completion* on the
    arrival timeline, per-partition busy time / backlog / memtable
    gauges, budget-eviction counters, and flight-recorder events for
    evictions and the maintenance spans inside them.  All
    instrumentation is read-only against the simulated clocks, so a
    run's result is identical with the timeline on or off. *)
let run ?timeline (cfg : config) =
  (serve ~durable:false ?timeline { cfg with chaos = [] }).c_base

(** [run_chaos ?timeline ?on_preload ?observe ?probe cfg] executes the
    same loop against a *durable* cluster (every partition behind a
    serial-WAL transactional wrapper, so acknowledged means durable)
    while interpreting [cfg.chaos] on the arrival clock and degrading
    gracefully per [cfg.policy]:

    - a crashed partition loses its memory state and replays the WAL
      from the durable frontier while the rest of the fleet keeps
      serving; requests that need it fast-fail as ["down"];
    - fan-out reads answer partially: healthy partitions' slots are
      returned, errored partitions are reported in the reply;
    - per-partition circuit breakers shed work from erroring partitions
      and probe them back to health (["breaker"] failures);
    - reads carry a deadline (fail-fast when queueing alone exceeds it),
      a bounded retry budget, and one hedged re-attempt;
    - admission control sheds requests (typed {!Chaos.Overloaded}) when
      every needed partition is over the backlog cap — counted, never
      silently dropped.

    [on_preload] sees each record ingested before traffic starts (so a
    checker can seed its model); [observe] sees one {!chaos_obs} per
    arrival; [probe] runs after the horizon with direct point-query
    access for durability audits.  Deterministic for a fixed seed,
    timeline on or off. *)
let run_chaos ?timeline ?on_preload ?observe ?probe cfg =
  serve ~durable:true ?timeline ?on_preload ?observe ?probe cfg

(* ------------------------------------------------------------------ *)
(* Load sweep *)

type sweep_result = {
  sw_capacity_rps : float;
  points : result list;  (** one run per rung of the rate ladder *)
  knee_rps : float option;
      (** highest offered rate that did not saturate; [None] when every
          rung saturated *)
}

(** [sweep cfg] anchors a rate ladder to a capacity estimate, runs each
    rung on a fresh system (same seed), and reports the knee: the
    highest rate whose run stayed below saturation.  The default ladder
    straddles the estimate so the knee is demonstrated from both
    sides. *)
let sweep ?(fractions = [ 0.3; 0.6; 0.85; 1.1; 1.5 ]) (cfg : config) =
  let cap = estimate_capacity cfg in
  if cap <= 0.0 then invalid_arg "Driver.sweep: capacity estimate is zero";
  let points =
    List.map (fun f -> run { cfg with rate_rps = f *. cap }) fractions
  in
  let knee_rps =
    List.fold_left
      (fun acc r ->
        if r.saturated then acc
        else
          match acc with
          | Some best when best >= r.rate_rps -> acc
          | _ -> Some r.rate_rps)
      None points
  in
  { sw_capacity_rps = cap; points; knee_rps }
