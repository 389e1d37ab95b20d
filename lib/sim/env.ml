(** The storage environment: one simulated device, its buffer cache, a CPU
    cost model, I/O statistics, and the simulated clock.

    Every structure in the engine performs its I/O through an [Env.t], so
    "how long did this operation take" is always [now_us] before/after, and
    "what did it do" is always an {!Io_stats.t} diff.  The clock advances
    only through the charging functions here, which keeps the cost model in
    one auditable place. *)

type cpu_model = {
  cmp_us : float;  (** one key comparison *)
  cache_line_us : float;  (** one CPU cache-line miss (Bloom probes) *)
  hash_us : float;  (** one hash evaluation *)
  page_hit_us : float;  (** touching a buffer-cache-resident page *)
  entry_us : float;  (** consuming one index entry (deserialize + copy) *)
}

(** Default CPU costs, sized so that in-memory effects are visible next to
    scaled-down I/O, mirroring their relative weight in the paper's setup:
    a comparison is ~ns-scale, a cache miss ~100ns, and touching a cached
    page costs memory bandwidth proportional to the page size. *)
let default_cpu ~page_size =
  ignore page_size;
  {
    cmp_us = 0.005;
    cache_line_us = 0.06;
    hash_us = 0.01;
    (* Touching a resident page is a hash-table probe and a latch, not a
       full-page copy; consumers of page *contents* pay [entry_us] per
       entry they actually read. *)
    page_hit_us = 0.3;
    entry_us = 0.02;
  }

type t = {
  device : Device.t;
  cache : Buffer_cache.t;
  stats : Io_stats.t;
  cpu : cpu_model;
  read_ahead_pages : int;
      (** pages a sequential scan stream fetches per device request; the
          paper uses 4MB read-ahead "to minimize random I/Os" when many
          scan streams interleave (Sec. 6.1) *)
  mutable now_us : float;
  mutable next_file_id : int;
  (* Device head position, for sequential-vs-random classification. *)
  mutable head_file : int;
  mutable head_page : int;
  mutable obs : Lsm_obs.Obs.t;
      (** observability handle; {!Lsm_obs.Obs.disabled} by default, so the
          instrumentation below costs one branch per call *)
  mutable published : Io_stats.t;
      (** statistics snapshot at the last {!publish_io_metrics} *)
  mutable explain : Lsm_obs.Explain.t;
      (** plan recorder; {!Lsm_obs.Explain.disabled} by default — every
          {!span} site doubles as a plan node when this is active *)
  amp : Lsm_obs.Ampstats.t;
      (** flush/merge amplification accounting; always on — the engine
          reports every flush and merge here *)
  mutable fault : (Fault_point.t -> unit) option;
      (** fault-injection hook; [None] by default, so every {!fault_point}
          in the engine costs one branch.  The hook observes the point
          and may raise {!Injected_fault} to simulate a crash, a transient
          I/O error, or silent corruption at exactly that point. *)
  mutable retry : Resilience.policy;
      (** retry budget for transient faults at the I/O sites *)
  resil : resil_stats;  (** resilience event counters *)
  view : view_stats;  (** sorted-view (REMIX) event counters *)
  mutable mem_probes : (unit -> int) list;
      (** registered in-memory-footprint reporters (datasets register
          their memory-component byte totals); {!mem_bytes} sums them *)
  mutable mem_budget : int option;
      (** advisory memory budget for this environment, surfaced as a
          [mem.budget_bytes] gauge; enforcement lives with the caller
          (a dataset's own budget, or [Lsm_serve.Budget]'s global one) *)
  mutable span_hook : (span_event -> unit) option;
      (** telemetry tap fired at every {!span} completion, independent of
          the obs handle (so a timeline can watch maintenance spans
          without paying for full tracing); [None] by default — one
          branch per span *)
  mutable io_penalty : float;
      (** multiplier on device I/O transfer/positioning time, >= 1.0;
          1.0 (the default) is a clean device.  A chaos plan raises it
          for a window to model a degraded disk (firmware retries, a
          failing sector remap) without any request erroring. *)
  corrupt : (int * int, unit) Hashtbl.t;
      (** (file, page) pairs whose simulated checksum fails *)
  corrupt_files : (int, int) Hashtbl.t;
      (** file -> number of corrupt pages on it *)
  mutable n_corrupt : int;
      (** total corrupt pages; checksum verification is one branch when 0 *)
}

and span_event = {
  sp_name : string;
  sp_cat : string;  (** [""] when the span carried no category *)
  sp_start_us : float;  (** this environment's clock at span entry *)
  sp_dur_us : float;
}

and resil_stats = {
  mutable retries : int;
  mutable exhausted : int;
  mutable checksum_failures : int;
  mutable degraded_probes : int;
  mutable quarantines : int;
  mutable rebuilds : int;
  mutable reschedules : int;
}

and view_stats = {
  mutable builds : int;  (** sorted views (re)built *)
  mutable build_rows : int;  (** positions written into views *)
  mutable build_pages : int;  (** view pages appended *)
  mutable view_scans : int;  (** reconciling scans served from a view *)
  mutable segments : int;  (** anchor segments entered by view scans *)
  mutable rows_skipped : int;  (** positions passed over (masked/invalid/shadowed) *)
  mutable rows_emitted : int;  (** key groups resolved by view scans *)
  mutable invalidations : int;  (** views dropped by a structural change *)
  mutable fallbacks : int;  (** eligible scans that fell back to the heap *)
}

type fault_kind = Crash | Io_error | Corrupt

exception
  Injected_fault of { kind : fault_kind; point : Fault_point.t; hit : int }

let string_of_fault_kind = function
  | Crash -> "crash"
  | Io_error -> "io"
  | Corrupt -> "corrupt"

let () =
  Printexc.register_printer (function
    | Injected_fault { kind; point; hit } ->
        Some
          (Printf.sprintf "Injected_fault(%s at %s hit %d)"
             (string_of_fault_kind kind)
             (Fault_point.name point) hit)
    | _ -> None)

(** [create ?cache_bytes ?cpu device] builds an environment.  The default
    cache is 64MB — a scaled-down analogue of the paper's 2GB buffer cache
    against its 30GB datasets. *)
let create ?(cache_bytes = 64 * 1024 * 1024) ?read_ahead_bytes ?cpu device =
  let cpu =
    match cpu with
    | Some c -> c
    | None -> default_cpu ~page_size:device.Device.page_size
  in
  let read_ahead_bytes =
    (* Default: 4MB scaled by the ratio of the device page to the paper's
       128KB pages, i.e. always 32 pages. *)
    match read_ahead_bytes with
    | Some b -> b
    | None -> 32 * device.Device.page_size
  in
  {
    device;
    cache = Buffer_cache.create ~capacity_pages:(cache_bytes / device.Device.page_size);
    stats = Io_stats.create ();
    cpu;
    read_ahead_pages = max 1 (read_ahead_bytes / device.Device.page_size);
    now_us = 0.0;
    next_file_id = 0;
    head_file = -1;
    head_page = -1;
    obs = Lsm_obs.Obs.disabled;
    published = Io_stats.create ();
    explain = Lsm_obs.Explain.disabled;
    amp = Lsm_obs.Ampstats.create ();
    fault = None;
    retry = Resilience.default_policy;
    resil =
      {
        retries = 0;
        exhausted = 0;
        checksum_failures = 0;
        degraded_probes = 0;
        quarantines = 0;
        rebuilds = 0;
        reschedules = 0;
      };
    view =
      {
        builds = 0;
        build_rows = 0;
        build_pages = 0;
        view_scans = 0;
        segments = 0;
        rows_skipped = 0;
        rows_emitted = 0;
        invalidations = 0;
        fallbacks = 0;
      };
    mem_probes = [];
    mem_budget = None;
    span_hook = None;
    io_penalty = 1.0;
    corrupt = Hashtbl.create 7;
    corrupt_files = Hashtbl.create 7;
    n_corrupt = 0;
  }

(** [fault_point t point] announces a potential failure site to the
    installed fault hook (if any).  The engine places these at every
    crash-relevant transition — page I/O, flush/merge begin and install,
    WAL append/commit, checkpoint phases — so a fault plan can enumerate
    and target them deterministically. *)
let fault_point t point = match t.fault with None -> () | Some f -> f point

let set_fault_hook t f = t.fault <- Some f
let clear_fault_hook t = t.fault <- None

let read_ahead_pages t = t.read_ahead_pages

let device t = t.device
let page_size t = t.device.Device.page_size
let stats t = t.stats
let cache t = t.cache

(** [now_us t] is the simulated clock in microseconds since creation. *)
let now_us t = t.now_us

(** [now_s t] is the simulated clock in seconds. *)
let now_s t = t.now_us /. 1e6

(** [advance t us] advances the clock by [us] microseconds. *)
let advance t us = t.now_us <- t.now_us +. us

(** [rewind t us] moves the clock back by [us] >= 0 microseconds (clamped
    at zero).  The one legitimate caller is the overlapping-maintenance
    scheduler: it executes concurrent merge jobs interleaved on this
    single clock — which sums their busy time — and then rewinds by the
    difference between that serial sum and the modeled W-worker makespan,
    so downstream consumers (the serving driver's clock deltas, span
    durations) see the pipeline's wall-clock cost, not the sum. *)
let rewind t us = if us > 0.0 then t.now_us <- Float.max 0.0 (t.now_us -. us)

(* ------------------------------------------------------------------ *)
(* Memory introspection: who holds how many in-memory bytes against
   this environment, and against what budget. *)

(** [register_mem_probe t f] registers a reporter of in-memory bytes held
    against this environment (datasets register the byte total of their
    memory components at creation); {!mem_bytes} sums all reporters. *)
let register_mem_probe t f = t.mem_probes <- f :: t.mem_probes

(** [mem_bytes t] is the current in-memory footprint reported by all
    registered probes, in bytes. *)
let mem_bytes t = List.fold_left (fun acc f -> acc + f ()) 0 t.mem_probes

let set_mem_budget t b = t.mem_budget <- b
let mem_budget t = t.mem_budget

(** [set_io_penalty t f] scales device I/O time by [f] >= 1.0 until reset
    (a slow-I/O fault window); cache hits and CPU charges are unaffected. *)
let set_io_penalty t f = t.io_penalty <- Float.max 1.0 f

let io_penalty t = t.io_penalty

(* ------------------------------------------------------------------ *)
(* Resilience: retry/backoff at the I/O sites, page-checksum state *)

let resil t = t.resil
let view_stats t = t.view
let retry_policy t = t.retry
let set_retry_policy t p = t.retry <- p

(** [mark_corrupt t ~file ~page] records that [page] of [file] now fails
    its checksum (a [Corrupt] fault flipped payload bytes; the write
    itself "succeeded").  Idempotent. *)
let mark_corrupt t ~file ~page =
  if not (Hashtbl.mem t.corrupt (file, page)) then begin
    Hashtbl.replace t.corrupt (file, page) ();
    let n = try Hashtbl.find t.corrupt_files file with Not_found -> 0 in
    Hashtbl.replace t.corrupt_files file (n + 1);
    t.n_corrupt <- t.n_corrupt + 1
  end

let corrupt_page_count t = t.n_corrupt

(** [file_corrupt t ~file] is true when any page of [file] fails its
    checksum. *)
let file_corrupt t ~file = Hashtbl.mem t.corrupt_files file

(** [announce_io t point ~file ~page] announces an I/O fault site and
    absorbs transient faults: an injected [Io_error] is retried up to the
    policy budget with exponential backoff charged to the simulated
    clock (each retry re-announces the point, so an intermittent plan can
    fail it again); exhaustion raises {!Resilience.Unrecoverable}.  An
    injected [Corrupt] silently marks [page] of [file] as failing its
    checksum and lets the I/O proceed — detection happens at read time.
    [Crash] propagates untouched. *)
let announce_io t point ~file ~page =
  match t.fault with
  | None -> ()
  | Some hook ->
      let rec go attempt =
        match hook point with
        | () -> ()
        | exception Injected_fault { kind = Corrupt; _ } ->
            mark_corrupt t ~file ~page
        | exception Injected_fault { kind = Io_error; point = pt; hit } ->
            if attempt < t.retry.Resilience.max_retries then begin
              t.resil.retries <- t.resil.retries + 1;
              advance t (Resilience.backoff t.retry ~attempt);
              go (attempt + 1)
            end
            else begin
              t.resil.exhausted <- t.resil.exhausted + 1;
              raise
                (Resilience.Unrecoverable
                   { point = pt; hit; attempts = attempt + 1 })
            end
      in
      go 0

(** [verify_page t ~file ~page] simulates checksum verification of a page
    the caller just read.  Callers guard on [n_corrupt > 0], so the whole
    resilience layer costs one integer branch per read when the device is
    clean.  Detection evicts the page so the bad copy is not served from
    cache, and raises nothing — quarantine is the reader's decision
    (see {!file_corrupt}). *)
let verify_page t ~file ~page =
  if Hashtbl.mem t.corrupt (file, page) then begin
    t.resil.checksum_failures <- t.resil.checksum_failures + 1;
    Buffer_cache.remove t.cache (file, page)
  end

(** [charge_comparisons t n] accounts for [n] key comparisons. *)
let charge_comparisons t n =
  if n > 0 then begin
    t.stats.Io_stats.comparisons <- t.stats.Io_stats.comparisons + n;
    advance t (Float.of_int n *. t.cpu.cmp_us)
  end

(** [charge_hashes t n] accounts for [n] hash evaluations. *)
let charge_hashes t n = if n > 0 then advance t (Float.of_int n *. t.cpu.hash_us)

(** [charge_entry_visits t n] accounts for consuming [n] index entries. *)
let charge_entry_visits t n =
  if n > 0 then advance t (Float.of_int n *. t.cpu.entry_us)

(** [charge_cache_lines t n] accounts for [n] CPU cache-line misses; blocked
    Bloom filters exist to make this 1 per probe instead of [k]. *)
let charge_cache_lines t n =
  if n > 0 then begin
    t.stats.Io_stats.bloom_cache_lines <- t.stats.Io_stats.bloom_cache_lines + n;
    advance t (Float.of_int n *. t.cpu.cache_line_us)
  end

(** [charge_page_hit t] accounts for touching a page held in a private
    read-ahead buffer (scan streams prefetch [read_ahead_pages] at a
    time; pages inside the window cost only the in-memory touch). *)
let charge_page_hit t =
  t.stats.Io_stats.cache_hits <- t.stats.Io_stats.cache_hits + 1;
  advance t t.cpu.page_hit_us

let fresh_file_id t =
  let id = t.next_file_id in
  t.next_file_id <- id + 1;
  id

(** [read_page t ~file ~page] charges for one page read: free-ish on a cache
    hit; otherwise a transfer, plus a positioning cost if the device head is
    not already on the preceding page of the same file. *)
let read_page t ~file ~page =
  let key = (file, page) in
  if Buffer_cache.touch t.cache key then begin
    t.stats.Io_stats.cache_hits <- t.stats.Io_stats.cache_hits + 1;
    advance t t.cpu.page_hit_us
  end
  else begin
    announce_io t Fault_point.Io_read ~file ~page;
    t.stats.Io_stats.cache_misses <- t.stats.Io_stats.cache_misses + 1;
    t.stats.Io_stats.pages_read <- t.stats.Io_stats.pages_read + 1;
    let sequential = t.head_file = file && t.head_page + 1 = page in
    if sequential then begin
      t.stats.Io_stats.seq_reads <- t.stats.Io_stats.seq_reads + 1;
      advance t (t.device.Device.read_us_per_page *. t.io_penalty)
    end
    else begin
      t.stats.Io_stats.rand_reads <- t.stats.Io_stats.rand_reads + 1;
      advance t
        ((t.device.Device.seek_us +. t.device.Device.read_us_per_page)
        *. t.io_penalty)
    end;
    t.head_file <- file;
    t.head_page <- page;
    Buffer_cache.insert t.cache key
  end;
  if t.n_corrupt > 0 then verify_page t ~file ~page

(** [write_pages t ~file ~first ~count] charges for appending [count] pages:
    one positioning plus sequential transfers.  Freshly written pages are
    made cache-resident (flushes and merges leave their output hot, as an
    OS page cache would). *)
let write_pages t ~file ~first ~count =
  if count > 0 then begin
    announce_io t Fault_point.Io_write ~file ~page:first;
    t.stats.Io_stats.pages_written <- t.stats.Io_stats.pages_written + count;
    t.stats.Io_stats.write_batches <- t.stats.Io_stats.write_batches + 1;
    advance t
      ((t.device.Device.seek_us
       +. (Float.of_int count *. t.device.Device.write_us_per_page))
      *. t.io_penalty);
    t.head_file <- file;
    t.head_page <- first + count - 1;
    for p = first to first + count - 1 do
      Buffer_cache.insert t.cache (file, p)
    done
  end

(** [drop_file t ~file] releases cache residency for a deleted file and
    forgets any corruption recorded against it — deleting a component's
    file (merge, rebuild) is how corrupt pages physically leave the
    system. *)
let drop_file t ~file =
  Buffer_cache.drop_file t.cache file;
  if t.n_corrupt > 0 && Hashtbl.mem t.corrupt_files file then begin
    let dropped = Hashtbl.find t.corrupt_files file in
    Hashtbl.remove t.corrupt_files file;
    Hashtbl.iter
      (fun (f, p) () -> if f = file then Hashtbl.remove t.corrupt (f, p))
      (Hashtbl.copy t.corrupt);
    t.n_corrupt <- t.n_corrupt - dropped
  end

(** [reset_measurement t] clears statistics without touching the clock,
    cache, or any files; use between measured phases. *)
let reset_measurement t =
  Io_stats.reset t.stats;
  t.published <- Io_stats.create ()

(* ------------------------------------------------------------------ *)
(* Observability (lsm_obs) *)

let obs t = t.obs
let tracer t = t.obs.Lsm_obs.Obs.tracer
let metrics t = t.obs.Lsm_obs.Obs.metrics
let explain t = t.explain
let amp t = t.amp

(** [enable_explain t] installs (and returns) an active plan recorder
    stamped with this environment's simulated clock and fed by its
    {!Io_stats} counters.  Independent of {!enable_obs}: explain can run
    with tracing off and vice versa. *)
let enable_explain t =
  let e =
    Lsm_obs.Explain.create
      ~clock:(fun () -> t.now_us)
      ~counters:(fun () -> Io_stats.fields t.stats)
      ()
  in
  t.explain <- e;
  e

(** [explain_annotate t props] / [explain_count t key by] attach detail to
    the innermost in-flight plan node; one branch when explain is off. *)
let explain_annotate t props =
  if Lsm_obs.Explain.active t.explain then
    Lsm_obs.Explain.annotate t.explain props

let explain_count t key by =
  if Lsm_obs.Explain.active t.explain then
    Lsm_obs.Explain.count t.explain key by

(** [enable_obs t] installs (and returns) an enabled observability handle
    whose span tracer is stamped with this environment's simulated clock. *)
let enable_obs ?trace_capacity t =
  let o = Lsm_obs.Obs.create ?trace_capacity ~clock:(fun () -> t.now_us) () in
  t.obs <- o;
  o

(** [span t ?cat name f] runs [f] inside a tracer span carrying the
    {!Io_stats} deltas it caused as span arguments, and feeds the span's
    simulated duration into the [span.<name>] latency histogram.  When a
    plan recorder is active ({!enable_explain}) the same section also
    becomes a plan-tree node.  With both disabled this is two predicted
    branches around [f]. *)
let span t ?cat name f =
  let f =
    if Lsm_obs.Explain.active t.explain then fun () ->
      Lsm_obs.Explain.node t.explain name f
    else f
  in
  let run () =
    let o = t.obs in
    if not o.Lsm_obs.Obs.enabled then f ()
    else begin
      let before = Io_stats.copy t.stats in
      let t0 = t.now_us in
      let r =
        Lsm_obs.Tracer.with_span o.Lsm_obs.Obs.tracer ?cat
          ~args_of:(fun () -> Io_stats.fields (Io_stats.diff t.stats before))
          name f
      in
      let labels = match cat with Some c when c <> "" -> [ ("src", c) ] | _ -> [] in
      Lsm_obs.Metrics.observe
        (Lsm_obs.Metrics.histogram o.Lsm_obs.Obs.metrics ~labels ("span." ^ name))
        (t.now_us -. t0);
      r
    end
  in
  (* The telemetry tap is independent of the obs handle: a timeline can
     watch maintenance spans without paying for full tracing. *)
  match t.span_hook with
  | None -> run ()
  | Some hook ->
      let t0 = t.now_us in
      let r = run () in
      hook
        {
          sp_name = name;
          sp_cat = (match cat with Some c -> c | None -> "");
          sp_start_us = t0;
          sp_dur_us = t.now_us -. t0;
        };
      r

let set_span_hook t h = t.span_hook <- Some h
let clear_span_hook t = t.span_hook <- None

(** [emit_span t ?cat name ~start_us ~dur_us] reports a section that was
    not executed under a {!span} scope — the overlapping-maintenance
    scheduler interleaves several merge jobs on one clock, so a job's
    span is only known (start, busy-time) after the fact.  Feeds the
    same latency histogram and telemetry tap as {!span}. *)
let emit_span t ?cat name ~start_us ~dur_us =
  let o = t.obs in
  if o.Lsm_obs.Obs.enabled then begin
    let labels = match cat with Some c when c <> "" -> [ ("src", c) ] | _ -> [] in
    Lsm_obs.Metrics.observe
      (Lsm_obs.Metrics.histogram o.Lsm_obs.Obs.metrics ~labels ("span." ^ name))
      dur_us
  end;
  match t.span_hook with
  | None -> ()
  | Some hook ->
      hook
        {
          sp_name = name;
          sp_cat = (match cat with Some c -> c | None -> "");
          sp_start_us = start_us;
          sp_dur_us = dur_us;
        }

(** [publish_io_metrics t] bridges the {!Io_stats} counters accumulated
    since the last publish into the metrics registry ([io.*] counters, via
    {!Io_stats.diff}), and refreshes the cache-occupancy and clock
    gauges.  No-op when observability is disabled. *)
let publish_io_metrics t =
  let o = t.obs in
  if o.Lsm_obs.Obs.enabled then begin
    let m = o.Lsm_obs.Obs.metrics in
    List.iter
      (fun (k, v) -> Lsm_obs.Metrics.add (Lsm_obs.Metrics.counter m ("io." ^ k)) v)
      (Io_stats.fields (Io_stats.diff t.stats t.published));
    t.published <- Io_stats.copy t.stats;
    Lsm_obs.Metrics.set
      (Lsm_obs.Metrics.gauge m "cache.resident_pages")
      (Float.of_int (Buffer_cache.size t.cache));
    Lsm_obs.Metrics.set
      (Lsm_obs.Metrics.gauge m "cache.capacity_pages")
      (Float.of_int (Buffer_cache.capacity t.cache));
    Lsm_obs.Metrics.set (Lsm_obs.Metrics.gauge m "sim.now_us") t.now_us;
    if t.mem_probes <> [] then
      Lsm_obs.Metrics.set
        (Lsm_obs.Metrics.gauge m "mem.resident_bytes")
        (Float.of_int (mem_bytes t));
    (match t.mem_budget with
    | Some b ->
        Lsm_obs.Metrics.set
          (Lsm_obs.Metrics.gauge m "mem.budget_bytes")
          (Float.of_int b)
    | None -> ());
    let r = t.resil in
    List.iter
      (fun (k, v) ->
        Lsm_obs.Metrics.set
          (Lsm_obs.Metrics.gauge m ("resilience." ^ k))
          (Float.of_int v))
      [
        ("retries", r.retries);
        ("exhausted", r.exhausted);
        ("checksum_failures", r.checksum_failures);
        ("degraded_probes", r.degraded_probes);
        ("quarantines", r.quarantines);
        ("rebuilds", r.rebuilds);
        ("reschedules", r.reschedules);
        ("corrupt_pages", t.n_corrupt);
      ];
    let v = t.view in
    List.iter
      (fun (k, n) ->
        Lsm_obs.Metrics.set
          (Lsm_obs.Metrics.gauge m ("view." ^ k))
          (Float.of_int n))
      [
        ("builds", v.builds);
        ("build_rows", v.build_rows);
        ("build_pages", v.build_pages);
        ("scans", v.view_scans);
        ("segments", v.segments);
        ("rows_skipped", v.rows_skipped);
        ("rows_emitted", v.rows_emitted);
        ("invalidations", v.invalidations);
        ("fallbacks", v.fallbacks);
      ];
    Lsm_obs.Ampstats.publish t.amp m
  end
