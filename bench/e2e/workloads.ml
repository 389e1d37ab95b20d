(** The four workloads, one repetition per process.

    A repetition has a set-up phase (build the cluster, preload, and any
    warm-up traffic) and a timed phase, both timed on the host clock.
    Everything else is read off the simulated clocks and is
    deterministic for a seed, so every repetition must reproduce the
    simulated metrics of the first one bit for bit.

    The engine is driven only through its public surface:
    [Driver.{config,build,preload,gen_request,run,run_chaos}],
    [Router.exec], [Chaos_checker], the environments' clocks, counters
    and span hooks, and [Obs_hub]. *)

module D = Lsm_serve.Driver
module Rt = D.Rt
module P = D.P
module Chaos = Lsm_serve.Chaos
module Checker = Lsm_serve.Chaos_checker
module Arrivals = Lsm_serve.Arrivals
module Env = Lsm_sim.Env
module Io = Lsm_sim.Io_stats
module Amp = Lsm_obs.Ampstats
module Tracer = Lsm_obs.Tracer
module Stats = Lsm_obs.Stats
module Hub = Lsm_harness.Obs_hub
module Scale = Lsm_harness.Scale
module Tweet = Lsm_workload.Tweet

let names = [ "feed-open"; "ingest-uniform"; "query-cold"; "durable-faults" ]
let classes = [| "ingest"; "point"; "multi"; "secondary"; "scan" |]
let all_classes = [ 0; 1; 2; 3; 4 ]

let cls_index = function
  | D.Ingest -> 0
  | D.Point -> 1
  | D.Multi -> 2
  | D.Secondary -> 3
  | D.Scan -> 4

type size = Full | Smoke

(** How a repetition runs: [traced] turns on [Obs_hub] tracers and the
    span-hook ledger and adds the per-layer metrics; [first] marks the
    repetition that also measures what only a second, observed run of
    [durable-faults] can see. *)
type mode = { size : size; seed : int; traced : bool; first : bool }

(** What one repetition reports. *)
type rep = {
  setup_s : float;
  timed_s : float;
  ops : int;  (** requests in the timed phase *)
  errors : int;  (** requests that errored or were shed *)
  heap_mb : float;
  sim : (string * float) list;  (** simulated-clock metrics *)
  host : (string * float) list;  (** host-side layer numbers *)
  layers : (string * float) list;  (** traced run only *)
  failures : string list;  (** failed checks; empty when correct *)
  table : string;  (** traced run only: the ledger tables *)
}

(* ------------------------------------------------------------------ *)
(* Configuration *)

let pick size ~full ~smoke = match size with Full -> full | Smoke -> smoke

let base_cfg size seed =
  let scale = pick size ~full:Scale.medium ~smoke:Scale.tiny in
  { (D.config ~partitions:4 scale) with D.seed; mix = D.chaos_mix }

let ingest_only =
  { D.ingest = 1.0; point = 0.0; multi = 0.0; secondary = 0.0; scan = 0.0 }

let read_mix =
  { D.ingest = 0.0; point = 0.55; multi = 0.20; secondary = 0.15; scan = 0.10 }

let feed_cfg size seed =
  {
    (base_cfg size seed) with
    D.rate_rps = 200.0;
    duration_s = pick size ~full:400.0 ~smoke:10.0;
  }

(* Every fault here is one the front door survives without failing a
   request: three I/O errors per burst stay inside the engine's retry
   budget, and a 2x slower device leaves its partition below
   saturation.  A crash would fail requests by design. *)
let chaos_plan size =
  pick size ~full:"io@p2@t30s+5s!3;slow@p3@t60s+5s*2"
    ~smoke:"io@p2@t2s+2s!3;slow@p3@t5s+2s*2"

let chaos_cfg size seed =
  let plan =
    match Chaos.parse (chaos_plan size) with
    | Ok p -> p
    | Error e -> invalid_arg ("chaos plan: " ^ e)
  in
  {
    (base_cfg size seed) with
    D.rate_rps = 150.0;
    duration_s = pick size ~full:240.0 ~smoke:10.0;
    chaos = plan;
  }

(* The arrival stream the driver draws for [cfg]. *)
let arrivals (cfg : D.config) =
  Arrivals.create
    ~seed:((cfg.D.seed * 131) + 7)
    ~rate_rps:cfg.D.rate_rps cfg.D.arrivals

(* The rate ladder behind [driver.max_rps_at_slo]. *)
let ladder_rates size =
  pick size
    ~full:(List.init 16 (fun i -> 100.0 +. (20.0 *. Float.of_int i)))
    ~smoke:[ 100.0; 200.0 ]

let ladder_secs size = pick size ~full:60.0 ~smoke:5.0
let slo_p99_us = 100_000.0

(* ------------------------------------------------------------------ *)
(* Request accounting *)

module Fvec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0.0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
end

type acc = {
  lat : Fvec.t array;  (** per class: queue + service, us *)
  queue : Fvec.t;  (** every request's queue wait, us *)
  ssum : float array;  (** per class Σ service *)
  busy : float array;  (** per partition Σ service *)
  free : float array;  (** open loop: per-partition free horizon *)
  host_sum : float array;  (** per class Σ host us inside Router.exec *)
  mutable ops : int;
  mutable ledger : Ledger.t option;
}

let acc n =
  {
    lat = Array.init 5 (fun _ -> Fvec.create ());
    queue = Fvec.create ();
    ssum = Array.make 5 0.0;
    busy = Array.make n 0.0;
    free = Array.make n 0.0;
    host_sum = Array.make 5 0.0;
    ops = 0;
    ledger = None;
  }

(** [account a ~cls ?arrival ~involved svc] books one request whose
    simulated time per partition was [svc].  With [arrival] it is an
    open-loop request: it starts once every involved partition is free
    and pushes their free horizons by their own shares — the driver's
    parallel-queue model.  [Driver.run] moves every involved horizon;
    [run_chaos] only those that did work, hence [idle_holds].  Without
    [arrival] the request is closed-loop and never queues. *)
let account a ~cls ?arrival ?(idle_holds = true) ~involved svc =
  let service =
    List.fold_left (fun m i -> Float.max m svc.(i)) 0.0 involved
  in
  let queue =
    match arrival with
    | None -> 0.0
    | Some t ->
        let start =
          List.fold_left (fun m i -> Float.max m a.free.(i)) t involved
        in
        List.iter
          (fun i ->
            if idle_holds || svc.(i) > 0.0 then a.free.(i) <- start +. svc.(i))
          involved;
        start -. t
  in
  let lat = queue +. service in
  Array.iteri (fun i d -> a.busy.(i) <- a.busy.(i) +. d) svc;
  Fvec.push a.lat.(cls) lat;
  Fvec.push a.queue queue;
  a.ssum.(cls) <- a.ssum.(cls) +. service;
  a.ops <- a.ops + 1;
  match a.ledger with
  | None -> ()
  | Some l -> Ledger.settle l ~cls ~queue ~lat ~service:svc

(* Adds to [involved] every partition whose clock moved: a budget flush
   on another partition delays only requests routed there. *)
let with_busy involved svc =
  let inv = ref involved in
  Array.iteri
    (fun i d -> if d > 0.0 && not (List.mem i !inv) then inv := i :: !inv)
    svc;
  !inv

(** A cluster driven by the benchmark's own loop, and the model of
    acknowledged writes every reply is audited against. *)
type own = {
  sys : D.system;
  model : Model.t;
  envs : Env.t array;
  a : acc;
  mutable evictions : int;  (** from the router's eviction log *)
  mutable bad : int;
  mutable bad_msgs : string list;
}

let bad o fmt =
  Printf.ksprintf
    (fun s ->
      o.bad <- o.bad + 1;
      if o.bad <= 5 then o.bad_msgs <- s :: o.bad_msgs)
    fmt

let same_tweet (x : Tweet.t) (y : Tweet.t) =
  x.Tweet.id = y.Tweet.id
  && x.Tweet.user_id = y.Tweet.user_id
  && x.Tweet.location = y.Tweet.location
  && x.Tweet.created_at = y.Tweet.created_at
  && x.Tweet.msg_len = y.Tweet.msg_len

(* Audit one reply against the acknowledged writes, then apply the
   request if it was a write. *)
let audit o req reply =
  let m = o.model in
  match (req, reply) with
  | Rt.Upsert r, Rt.Wrote -> Model.upsert m r
  | Rt.Point pk, Rt.Found v ->
      if not (Option.equal same_tweet v (Model.find m pk)) then
        bad o "point %d: reply differs from the model" pk
  | Rt.Multi_get pks, Rt.Rows n ->
      let e = Model.found m pks in
      if n <> e then
        bad o "multi-get: %d of %d keys found, model %d" n
          (Array.length pks) e
  | Rt.Secondary { lo; hi; _ }, Rt.Rows n ->
      let e = Model.users_in m ~lo ~hi in
      if n <> e then bad o "secondary [%d,%d]: %d rows, model %d" lo hi n e
  | Rt.Time_range { tlo; thi }, Rt.Rows n ->
      let e = Model.created_in m ~tlo ~thi in
      if n <> e then bad o "time range [%d,%d]: %d rows, model %d" tlo thi n e
  | _ -> bad o "unexpected reply shape"

let exec ?arrival o cls req =
  let h0 = Unix.gettimeofday () in
  let out = Rt.exec o.sys.D.rt req in
  let c = cls_index cls in
  o.a.host_sum.(c) <-
    o.a.host_sum.(c) +. ((Unix.gettimeofday () -. h0) *. 1e6);
  let svc = out.Rt.service_us in
  account o.a ~cls:c ?arrival ~involved:(with_busy out.Rt.touched svc) svc;
  o.evictions <- o.evictions + List.length out.Rt.evictions;
  audit o req out.Rt.reply

let build_own cfg =
  let sys = D.build cfg in
  let model = Model.create () in
  D.preload ~f:(Model.upsert model) sys cfg;
  let p = Rt.partitioned sys.D.rt in
  let envs = Array.init (P.partitions p) (P.env p) in
  let a = acc (Array.length envs) in
  { sys; model; envs; a; evictions = 0; bad = 0; bad_msgs = [] }

(* ------------------------------------------------------------------ *)
(* Counters over the timed phase *)

type snap = {
  envs : Env.t array;
  io : Io.t array;
  amp : Amp.t array;
  views : (int * int) array;  (** view scans, fallbacks *)
  retries : int array;
  aggs : (string * float) list array;  (** tracer self time per span name *)
}

let tracer_self env =
  Tracer.aggregates (Env.tracer env)
  |> List.map (fun (n, g) -> (n, g.Tracer.a_self_us))

let snap envs =
  {
    envs;
    io = Array.map (fun e -> Io.copy (Env.stats e)) envs;
    amp = Array.map (fun e -> Amp.copy (Env.amp e)) envs;
    views =
      Array.map
        (fun e ->
          let v = Env.view_stats e in
          (v.Env.view_scans, v.Env.fallbacks))
        envs;
    retries = Array.map (fun e -> (Env.resil e).Env.retries) envs;
    aggs = Array.map tracer_self envs;
  }

(* Layer metrics read off counters rather than the ledger. *)
let counter_layers s ~ops =
  let io = Array.mapi (fun i e -> Io.diff (Env.stats e) s.io.(i)) s.envs in
  let amp =
    Array.mapi (fun i e -> Amp.diff ~since:s.amp.(i) (Env.amp e)) s.envs
  in
  let isum f = Array.fold_left (fun acc x -> acc + f x) 0 io in
  let asum f = Array.fold_left (fun acc x -> acc + f x) 0 amp in
  let esum f = Array.fold_left ( + ) 0 (Array.mapi f s.envs) in
  let count n = Float.of_int n in
  let per n = Float.of_int n /. Float.of_int (max 1 ops) in
  let frac n d = if d = 0 then 0.0 else Float.of_int n /. Float.of_int d in
  let mb n = Float.of_int n /. (1024.0 *. 1024.0) in
  let probes = isum (fun x -> x.Io.bloom_probes) in
  let hits = isum (fun x -> x.Io.cache_hits) in
  let misses = isum (fun x -> x.Io.cache_misses) in
  let views now before =
    count (esum (fun i e -> now (Env.view_stats e) - before s.views.(i)))
  in
  [
    ("dataset.flushes", count (asum (fun x -> x.Amp.flushes)));
    ("dataset.merges", count (asum (fun x -> x.Amp.merges)));
    ("lsm_tree.flush_bytes_mb", mb (asum (fun x -> x.Amp.flush_bytes)));
    ("lsm_tree.merge_bytes_mb", mb (asum (fun x -> x.Amp.merge_written_bytes)));
    ("lsm_tree.view_scans", views (fun v -> v.Env.view_scans) fst);
    ("lsm_tree.view_fallbacks", views (fun v -> v.Env.fallbacks) snd);
    ("bloom.probes_per_op", per probes);
    ("bloom.negative_frac", frac (isum (fun x -> x.Io.bloom_negatives)) probes);
    ( "bloom.fp_per_1k_probes",
      1000.0 *. frac (isum (fun x -> x.Io.bloom_fps)) probes );
    ("disk_btree.comparisons_per_op", per (isum (fun x -> x.Io.comparisons)));
    ( "disk_btree.cursor_restarts_per_op",
      per (isum (fun x -> x.Io.cursor_restarts)) );
    ("buffer_cache.hit_rate", frac hits (hits + misses));
    ("buffer_cache.misses_per_op", per misses);
    ("device.pages_read_per_op", per (isum (fun x -> x.Io.pages_read)));
    ("device.rand_reads_per_op", per (isum (fun x -> x.Io.rand_reads)));
    ("device.pages_written_per_op", per (isum (fun x -> x.Io.pages_written)));
    ("device.write_batches_per_op", per (isum (fun x -> x.Io.write_batches)));
    ( "chaos.retries",
      count (esum (fun i e -> (Env.resil e).Env.retries - s.retries.(i))) );
  ]

(* ------------------------------------------------------------------ *)
(* Metrics *)

let ms us = us /. 1000.0
let pct p xs = if Array.length xs = 0 then 0.0 else Stats.percentile xs p

let mean xs =
  Array.fold_left ( +. ) 0.0 xs /. Float.of_int (max 1 (Array.length xs))

let lats a pred =
  List.filter pred all_classes
  |> List.map (fun c -> Fvec.to_array a.lat.(c))
  |> Array.concat

let per_class a f = if a = 0 then 0.0 else f /. Float.of_int a

(* Bytes the LSM layers hold on disk: everything flushed or written by
   a merge, less the merge inputs it replaced. *)
let disk_bytes envs =
  Array.fold_left
    (fun acc e ->
      let x = Env.amp e in
      acc + x.Amp.flush_bytes + x.Amp.merge_written_bytes
      - x.Amp.merge_read_bytes)
    0 envs

(* Write amplification over the dataset's life, preload included: bytes
   flushed or rewritten by merges, per byte flushed. *)
let write_amp envs =
  let f, m =
    Array.fold_left
      (fun (f, m) e ->
        let x = Env.amp e in
        (f + x.Amp.flush_bytes, m + x.Amp.merge_written_bytes))
      (0, 0) envs
  in
  if f = 0 then 0.0 else Float.of_int (f + m) /. Float.of_int f

(** Simulated-clock metrics of the busy time, the stored bytes and the
    read latencies. *)
let store_sim a envs ~live_bytes =
  let bottleneck = Array.fold_left Float.max 0.0 a.busy in
  [
    ( "sim_ops_per_s",
      if bottleneck > 0.0 then Float.of_int a.ops *. 1e6 /. bottleneck
      else 0.0 );
    ("write_amp", write_amp envs);
    ( "space_amp",
      Float.of_int (disk_bytes envs) /. Float.of_int (max 1 live_bytes) );
    ("read_p50_ms", ms (pct 50.0 (lats a (fun c -> c > 0))));
  ]

(* A p99 is reported only with at least ten samples beyond it. *)
let min_p99_samples = 1000

(** Latency metrics: the mean and p99 over every request, and the p99
    of each class with enough samples. *)
let latency_sim a =
  let all = lats a (fun _ -> true) in
  [ ("mean_ms", ms (mean all)); ("p99_ms", ms (pct 99.0 all)) ]
  @ List.filter_map
      (fun c ->
        let xs = Fvec.to_array a.lat.(c) in
        if Array.length xs < min_p99_samples then None
        else Some (classes.(c) ^ "_p99_ms", ms (pct 99.0 xs)))
      all_classes

let exec_host a =
  List.map
    (fun c ->
      ( "router.exec_host_us." ^ classes.(c),
        per_class a.lat.(c).Fvec.n a.host_sum.(c) ))
    all_classes

(** Layer metrics from a traced run's ledger and queue samples. *)
let ledger_layers l a =
  let tot = Ledger.totals l in
  let q = Fvec.to_array a.queue in
  let top name = l.Ledger.top_us.(Ledger.layer_of_span name) in
  [
    ("driver.queue_wait_p99_ms", ms (pct 99.0 q));
    ("driver.queue_wait_mean_ms", ms (mean q));
    ("budget.evictions", Float.of_int l.Ledger.top_count.(Ledger.flush_ix));
    ("budget.stall_ms", ms (top "dataset.flush" +. top "dataset.merge"));
    ( "budget.stalled_req_frac",
      Float.of_int l.Ledger.stalled /. Float.of_int (max 1 a.ops) );
  ]
  @ List.map
      (fun c ->
        ( "router.service_mean_ms." ^ classes.(c),
          ms (per_class a.lat.(c).Fvec.n a.ssum.(c)) ))
      all_classes
  @ Array.to_list
      (Array.mapi
         (fun i n ->
           let name =
             if i = Ledger.untraced then "router.untraced_ms"
             else n ^ "_self_ms"
           in
           (name, ms tot.(i)))
         Ledger.layers)

(* ------------------------------------------------------------------ *)
(* Traced-run checks and tables *)

let rel_gap x y =
  let d = Float.abs (x -. y) in
  if Float.abs y > 0.0 then d /. Float.abs y else d

let ledger_checks l s =
  let res = Ledger.residual l in
  (* The interval nesting against the tracer's call-stack self times, for
     every span name the hooks delivered. *)
  let tracer = Array.make Ledger.n_layers 0.0 in
  Array.iteri
    (fun i e ->
      List.iter
        (fun (n, self) ->
          if Hashtbl.mem l.Ledger.seen n then begin
            let k = Ledger.layer_of_span n in
            let before =
              Option.value ~default:0.0 (List.assoc_opt n s.aggs.(i))
            in
            tracer.(k) <- tracer.(k) +. self -. before
          end)
        (tracer_self e))
    s.envs;
  let mine = Ledger.totals l in
  (if res > 1e-9 then
     [ Printf.sprintf "ledger residual %.3g exceeds 1e-9" res ]
   else [])
  @ (if l.Ledger.negative > 0 then
       [ Printf.sprintf "%d negative self or untraced times" l.Ledger.negative ]
     else [])
  @ List.filter_map
      (fun k ->
        if k <> Ledger.untraced && rel_gap mine.(k) tracer.(k) > 1e-6 then
          Some
            (Printf.sprintf "ledger %s: %.3fus self, tracer %.3fus"
               Ledger.layers.(k) mine.(k) tracer.(k))
        else None)
      (List.init Ledger.n_layers Fun.id)

let table l a =
  let b = Buffer.create 4096 in
  let add fmt = Printf.bprintf b fmt in
  let shown =
    List.filter
      (fun k ->
        Array.exists (fun row -> Float.abs row.(k) > 0.0) l.Ledger.cls_self)
      (List.init Ledger.n_layers Fun.id)
  in
  let line name n lat queue vals =
    add "%-10s %7d %10.4f %10.4f" name n (ms lat) (ms queue);
    List.iter (fun k -> add " %12.4f" (ms vals.(k))) shown;
    add "\n"
  in
  let header title =
    add "%s\n%-10s %7s %10s %10s" title "class" "n" "latency" "queue";
    List.iter (fun k -> add " %12s" Ledger.short.(k)) shown;
    add "\n"
  in
  header
    "mean per request (ms; layers summed over the partitions a request \
     touched)";
  Array.iteri
    (fun c n ->
      if n > 0 then begin
        let lat = mean (Fvec.to_array a.lat.(c)) in
        let nf = Float.of_int n in
        line classes.(c) n lat
          (lat -. (a.ssum.(c) /. nf))
          (Array.map (fun v -> v /. nf) l.Ledger.cls_self.(c))
      end)
    l.Ledger.cls_count;
  header "\nslowest 1% of each class, mean per request (ms)";
  Array.iteri
    (fun c (k, lat, queue, vals) ->
      if l.Ledger.cls_count.(c) > 0 then line classes.(c) k lat queue vals)
    (Ledger.tail l);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Host-side timing *)

(* Host time is this process's CPU time, user plus system.  The
   simulator is single-threaded, so that is its run time less any time
   it waited for a core on a shared machine. *)
let now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let heap_mb () =
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  Float.of_int (words * (Sys.word_size / 8)) /. (1024.0 *. 1024.0)

type clock = {
  t0 : float;
  mutable t1 : float;  (** set-up done *)
  mutable minor0 : float;
  mutable major0 : int;
}

let start_clock () = { t0 = now (); t1 = 0.0; minor0 = 0.0; major0 = 0 }

let setup_done c =
  c.t1 <- now ();
  let st = Gc.quick_stat () in
  c.minor0 <- st.Gc.minor_words;
  c.major0 <- st.Gc.major_collections

let runtime c ops =
  let st = Gc.quick_stat () in
  [
    ( "runtime.minor_words_per_op",
      (st.Gc.minor_words -. c.minor0) /. Float.of_int (max 1 ops) );
    ("runtime.major_gcs", Float.of_int (st.Gc.major_collections - c.major0));
  ]

(* ------------------------------------------------------------------ *)
(* Workloads driven by the benchmark's own loop *)

(* The parts of a repetition every own-loop workload shares: time the
   set-up and the timed phase, attach the ledger when traced, audit,
   and collect the metrics.  [extra] adds layer metrics and checks. *)
let own_rep m cfg ~setup ~timed ~extra =
  if m.traced then Hub.enable ();
  let c = start_clock () in
  let o = build_own cfg in
  setup o;
  setup_done c;
  let s = snap o.envs in
  if m.traced then o.a.ledger <- Some (Ledger.create ~classes:5 o.envs);
  timed o;
  let t2 = now () in
  let ops = o.a.ops in
  let host = exec_host o.a @ runtime c ops in
  Option.iter Ledger.detach o.a.ledger;
  let disk = disk_bytes o.envs in
  let on_disk = P.total_disk_bytes (Rt.partitioned o.sys.D.rt) in
  let checks =
    (if o.bad > 0 then
       Printf.sprintf "%d replies differ from the model" o.bad
       :: List.rev o.bad_msgs
     else [])
    @
    if disk <> on_disk then
      [
        Printf.sprintf "amp accounts for %d disk bytes, the datasets hold %d"
          disk on_disk;
      ]
    else []
  in
  let live_bytes = Model.live_bytes o.model in
  let sim = latency_sim o.a @ store_sim o.a o.envs ~live_bytes in
  let extra_layers, extra_checks = extra o in
  let layers, traced_checks, table =
    match o.a.ledger with
    | None -> ([], [], "")
    | Some l ->
        let flushes = l.Ledger.top_count.(Ledger.flush_ix) in
        let evict =
          if flushes <> o.evictions then
            [
              Printf.sprintf
                "ledger saw %d budget flushes, the router logged %d evictions"
                flushes o.evictions;
            ]
          else []
        in
        ( ledger_layers l o.a @ counter_layers s ~ops @ extra_layers,
          ledger_checks l s @ evict,
          table l o.a )
  in
  {
    setup_s = c.t1 -. c.t0;
    timed_s = t2 -. c.t1;
    ops;
    errors = 0;
    heap_mb = heap_mb ();
    sim;
    host;
    layers;
    failures = checks @ extra_checks @ traced_checks;
    table;
  }

(* Only [feed-open] climbs the rate ladder. *)
let no_ladder = [ ("driver.max_rps_at_slo", 0.0) ]
let no_extra _ = (no_ladder, [])

let all_stats (cs : D.class_stats list) =
  List.find (fun (c : D.class_stats) -> c.D.cls = "all") cs

(** The highest rung of a fixed rate ladder that meets the all-class p99
    objective without saturating, every lower rung meeting both too. *)
let max_rps_at_slo size seed =
  let base = feed_cfg size seed in
  let rec climb best = function
    | [] -> best
    | rate :: rest ->
        let r =
          D.run { base with D.rate_rps = rate; duration_s = ladder_secs size }
        in
        if (all_stats r.D.classes).D.p99_us <= slo_p99_us && not r.D.saturated
        then climb rate rest
        else best
  in
  climb 0.0 (ladder_rates size)

let class_stats_match ~what (expect : D.class_stats list) a =
  List.filter_map
    (fun c ->
      let xs = Fvec.to_array a.lat.(c) in
      match
        List.find_opt (fun (s : D.class_stats) -> s.D.cls = classes.(c)) expect
      with
      | Some s
        when s.D.count = Array.length xs
             && Float.equal s.D.p50_us (pct 50.0 xs)
             && Float.equal s.D.p99_us (pct 99.0 xs) ->
          None
      | _ ->
          Some
            (Printf.sprintf
               "%s: %s count/p50/p99 differ from the benchmark's loop" what
               classes.(c)))
    all_classes

(** [feed-open]: the social-feed mix, open-loop Poisson at a fixed
    rate. *)
let feed_open m =
  let cfg = feed_cfg m.size m.seed in
  (* Driver.run and the ladder go first, before tracing is switched on. *)
  let reference = if m.traced then Some (D.run cfg) else None in
  let ladder = if m.traced then max_rps_at_slo m.size m.seed else 0.0 in
  own_rep m cfg ~setup:ignore
    ~timed:(fun o ->
      let arr = arrivals cfg in
      let horizon = cfg.D.duration_s *. 1e6 in
      let rec go t =
        if t <= horizon then begin
          let cls, req = D.gen_request o.sys cfg in
          exec ~arrival:t o cls req;
          go (Arrivals.next arr)
        end
      in
      go (Arrivals.next arr))
    ~extra:(fun o ->
      match reference with
      | None -> no_extra o
      | Some r ->
          ( [ ("driver.max_rps_at_slo", ladder) ],
            class_stats_match ~what:"Driver.run" r.D.classes o.a ))

(** [ingest-uniform]: closed-loop upserts over a uniform key
    population, then a read-back of written keys and secondary
    ranges. *)
let ingest_uniform m =
  let cfg =
    { (base_cfg m.size m.seed) with D.theta = 0.0; mix = ingest_only }
  in
  own_rep m cfg ~setup:ignore
    ~timed:(fun o ->
      for _ = 1 to pick m.size ~full:400_000 ~smoke:20_000 do
        let cls, req = D.gen_request o.sys cfg in
        exec o cls req
      done;
      let keys = Model.keys o.model in
      let rng = Lsm_util.Rng.create (m.seed + 101) in
      for _ = 1 to pick m.size ~full:10_000 ~smoke:1_000 do
        let pk = keys.(Lsm_util.Rng.int rng (Array.length keys)) in
        exec o D.Point (Rt.Point pk)
      done;
      let q = Lsm_workload.Query_gen.create ~seed:(m.seed + 202) () in
      let selectivity = cfg.D.selectivity in
      for _ = 1 to 20 do
        let lo, hi = Lsm_workload.Query_gen.user_range q ~selectivity in
        let mode = o.sys.D.sec_mode in
        exec o D.Secondary (Rt.Secondary { sec = "user_id"; lo; hi; mode })
      done)
    ~extra:no_extra

(** [query-cold]: a read-only closed loop over data ~10x the cache,
    after a preload and a burst of Zipf updates. *)
let query_cold m =
  let cfg = base_cfg m.size m.seed in
  own_rep m cfg
    ~setup:(fun o ->
      let wcfg = { cfg with D.mix = ingest_only } in
      for _ = 1 to pick m.size ~full:30_000 ~smoke:3_000 do
        match snd (D.gen_request o.sys wcfg) with
        | Rt.Upsert r as req ->
            ignore (Rt.exec o.sys.D.rt req);
            Model.upsert o.model r
        | _ -> invalid_arg "query-cold: an ingest-only mix drew a read"
      done)
    ~timed:(fun o ->
      let rcfg = { cfg with D.mix = read_mix } in
      for _ = 1 to pick m.size ~full:20_000 ~smoke:2_000 do
        let cls, req = D.gen_request o.sys rcfg in
        exec o cls req
      done)
    ~extra:no_extra

(* ------------------------------------------------------------------ *)
(* durable-faults: Driver.run_chaos *)

(* The latency metrics of a chaos run, from its own class tables. *)
let chaos_latency (r : D.chaos_result) =
  let cs = r.D.c_base.D.classes in
  let all = all_stats cs in
  [
    ("mean_ms", ms (all.D.mean_queue_us +. all.D.mean_service_us));
    ("p99_ms", ms all.D.p99_us);
  ]
  @ List.filter_map
      (fun (c : D.class_stats) ->
        if c.D.cls = "all" || c.D.count < min_p99_samples then None
        else Some (c.D.cls ^ "_p99_ms", ms c.D.p99_us))
      cs

(* Audit one chaos-run answer against the acknowledged writes, then
   apply it if it acknowledged a write.  Partial answers, errors and
   sheds are not expected on this plan and fail the reconstruction. *)
let audit_obs model obs =
  let same pk v = Option.equal same_tweet v (Model.find model pk) in
  match obs with
  | D.O_ack (Rt.Upsert r) ->
      Model.upsert model r;
      true
  | D.O_point (pk, v) -> same pk v
  | D.O_multi { got; _ } -> List.for_all (fun (pk, v) -> same pk v) got
  | D.O_secondary { lo; hi; rows; _ } ->
      List.length rows = Model.users_in model ~lo ~hi
  | D.O_scan { tlo; thi; counts; _ } ->
      List.fold_left (fun n (_, c) -> n + c) 0 counts
      = Model.created_in model ~tlo ~thi
  | _ -> true

(* A second run of the same plan with [Obs_hub] on, which is the only
   way to reach the partitions' environments inside [run_chaos].  It
   rebuilds every arrival's latency from the environments' clocks and
   the driver's queue model, audits every answer against the model of
   acknowledged writes, and measures what the class tables cannot: busy
   time, stored bytes and read latencies.  Traced, it also keeps the
   ledger and runs [Chaos_checker], whose model scans are too slow for
   every repetition.  Returns the extra simulated metrics, the layer
   metrics, the checks, the table and the host time of the request loop
   less the audits. *)
let observed m cfg (plain : D.chaos_result) =
  Hub.reset ();
  Hub.enable ();
  let n = cfg.D.partitions in
  let model = Model.create () in
  let checker = Checker.create ~partitions:n () in
  let a = acc n in
  let st = ref None in
  let prev = Array.make n 0.0 in
  let arr = arrivals cfg in
  let loaded = ref 0 and unexpected = ref 0 and wrong = ref 0 in
  let t_loop = ref 0.0 and t_audit = ref 0.0 in
  let on_preload r =
    Model.upsert model r;
    if m.traced then Checker.preload checker r;
    incr loaded;
    if !loaded = cfg.D.preload then begin
      let envs = Array.of_list (Hub.observed ()) in
      Array.iteri (fun i e -> prev.(i) <- Env.now_us e) envs;
      if m.traced then a.ledger <- Some (Ledger.create ~classes:5 envs);
      st := Some (snap envs);
      t_loop := now ()
    end
  in
  let observe obs =
    let h = now () in
    if not (audit_obs model obs) then incr wrong;
    if m.traced then Checker.observe checker obs;
    t_audit := !t_audit +. (now () -. h);
    let s = Option.get !st in
    let svc =
      Array.mapi
        (fun i e ->
          let t = Env.now_us e in
          let d = t -. prev.(i) in
          prev.(i) <- t;
          d)
        s.envs
    in
    let route pk = Checker.route checker pk in
    let everyone = List.init n Fun.id in
    let target =
      match obs with
      | D.O_ack (Rt.Upsert r) -> Some (0, [ route r.Tweet.id ])
      | D.O_point (pk, _) -> Some (1, [ route pk ])
      | D.O_multi { got; err_parts = [] } ->
          let owners = List.map (fun (pk, _) -> route pk) got in
          Some (2, List.sort_uniq Int.compare owners)
      | D.O_secondary { err_parts = []; _ } -> Some (3, everyone)
      | D.O_scan { err_parts = []; _ } -> Some (4, everyone)
      | _ -> None
    in
    let t = Arrivals.next arr in
    match target with
    | Some (cls, targets) ->
        account a ~cls ~arrival:t ~idle_holds:false
          ~involved:(with_busy targets svc) svc
    | None -> incr unexpected
  in
  let layers = ref [] and store = ref [] and checks = ref [] in
  let t_end = ref 0.0 in
  let probe f =
    t_end := now ();
    let s = Option.get !st in
    Option.iter Ledger.detach a.ledger;
    store := store_sim a s.envs ~live_bytes:(Model.live_bytes model);
    match a.ledger with
    | None -> ()
    | Some l ->
        layers := ledger_layers l a @ counter_layers s ~ops:a.ops @ no_ladder;
        (* Before the durability probe's own lookups reach the tracer. *)
        let ledger = ledger_checks l s in
        let v = Checker.verify checker ~probe:f in
        checks :=
          ledger
          @
          if Checker.ok v then []
          else
            Printf.sprintf "chaos checker: %d violations"
              v.Checker.v_violations_total
            :: v.Checker.v_violations
  in
  let r = D.run_chaos ~on_preload ~observe ~probe cfg in
  let table = match a.ledger with Some l -> table l a | None -> "" in
  let rebuilt =
    if !unexpected > 0 then
      [
        Printf.sprintf "%d arrivals errored, were shed or answered partially"
          !unexpected;
      ]
    else class_stats_match ~what:"run_chaos" plain.D.c_base.D.classes a
  in
  let same =
    if
      List.equal
        (fun (a, x) (b, y) -> String.equal a b && Float.equal x y)
        (chaos_latency r) (chaos_latency plain)
    then []
    else [ "the observed run_chaos differs from the plain one" ]
  in
  let audit =
    if !wrong > 0 then
      [ Printf.sprintf "%d answers differ from the model" !wrong ]
    else []
  in
  ( !store,
    !layers,
    !checks @ audit @ rebuilt @ same,
    table,
    !t_end -. !t_loop -. !t_audit )

let durable_faults m =
  let cfg = chaos_cfg m.size m.seed in
  let c = start_clock () in
  let loaded = ref 0 in
  let on_preload _ =
    incr loaded;
    if !loaded = cfg.D.preload then setup_done c
  in
  let r = D.run_chaos ~on_preload cfg in
  let t2 = now () in
  let arrivals = r.D.c_base.D.requests in
  let balance =
    if arrivals <> r.D.successes + r.D.failures + r.D.shed then
      [ "arrivals != ok + errors + shed" ]
    else []
  in
  let base =
    {
      setup_s = c.t1 -. c.t0;
      timed_s = t2 -. c.t1;
      ops = arrivals;
      errors = r.D.failures + r.D.shed;
      heap_mb = heap_mb ();
      sim = chaos_latency r;
      (* No Router.exec calls here: run_chaos drives the router itself. *)
      host = exec_host (acc 0) @ runtime c arrivals;
      layers = [];
      failures = balance;
      table = "";
    }
  in
  if not (m.first || m.traced) then base
  else begin
    let store, layers, checks, table, loop_s = observed m cfg r in
    {
      base with
      sim = base.sim @ store;
      layers;
      failures = base.failures @ checks;
      table;
      (* A traced repetition reports the observed loop's host time, less
         the audits, so [obs.overhead_frac] compares like with like. *)
      timed_s = (if m.traced then loop_s else base.timed_s);
    }
  end

let run m = function
  | "feed-open" -> feed_open m
  | "ingest-uniform" -> ingest_uniform m
  | "query-cold" -> query_cold m
  | "durable-faults" -> durable_faults m
  | w -> invalid_arg ("unknown workload " ^ w)
