(** The storage environment: one simulated device, its buffer cache, a CPU
    cost model, I/O statistics, and the simulated clock.  Every structure
    in the engine performs its I/O through an [Env.t]; the clock advances
    only through the charging functions here. *)

type cpu_model = {
  cmp_us : float;  (** one key comparison *)
  cache_line_us : float;  (** one CPU cache-line miss (Bloom probes) *)
  hash_us : float;  (** one hash evaluation *)
  page_hit_us : float;  (** touching a buffer-cache-resident page *)
  entry_us : float;  (** consuming one index entry *)
}

val default_cpu : page_size:int -> cpu_model

type t

(** {1 Fault injection}

    Environments carry an optional fault hook, [None] by default (one
    predicted branch per {!fault_point}).  The engine announces every
    crash-relevant transition — one {!Fault_point.t} each: cache-missing
    page reads ([Io_read]), page-write batches ([Io_write]), flush/merge
    begin and install, WAL append/commit boundaries, checkpoint phases —
    and an installed hook
    may raise {!Injected_fault} to simulate a crash, a transient I/O
    error, or silent page corruption at exactly that point.  See
    [lib/faultsim]. *)

type fault_kind = Crash | Io_error | Corrupt

exception
  Injected_fault of { kind : fault_kind; point : Fault_point.t; hit : int }
(** Raised by fault hooks.  [hit] is the 1-based occurrence index of
    [point] within the run, so a failure reproduces from (seed, point,
    hit) alone. *)

val string_of_fault_kind : fault_kind -> string
(** Canonical spellings: ["crash"], ["io"], ["corrupt"]. *)

val fault_point : t -> Fault_point.t -> unit
(** [fault_point t point] announces the failure site [point] to the
    installed hook, if any. *)

val set_fault_hook : t -> (Fault_point.t -> unit) -> unit
val clear_fault_hook : t -> unit

(** {1 Resilience}

    The I/O announcement sites ([Io_read], [Io_write]) absorb transient
    injected faults: an [Io_error] is retried under the environment's
    {!Resilience.policy} with exponential backoff charged to the
    simulated clock, and each retry re-announces the point (so an
    intermittent "fail [k] times" plan composes with the budget).
    Exhaustion raises {!Resilience.Unrecoverable}.  A [Corrupt] fault
    does not raise at all: it marks the page under I/O as failing its
    simulated per-page checksum, and the next read of that page detects
    the mismatch, evicts the cached copy, and counts a
    [checksum_failure] — readers then consult {!file_corrupt} to
    quarantine the owning component.  With no corrupt pages recorded the
    verification is one integer branch per read. *)

type resil_stats = {
  mutable retries : int;  (** transient faults absorbed by backoff *)
  mutable exhausted : int;  (** retry budgets exhausted (Unrecoverable) *)
  mutable checksum_failures : int;  (** corrupt pages detected at read *)
  mutable degraded_probes : int;  (** Bloom probes skipped on quarantine *)
  mutable quarantines : int;  (** components quarantined *)
  mutable rebuilds : int;  (** components rebuilt or scrubbed by heal *)
  mutable reschedules : int;  (** maintenance passes rescheduled *)
}

val resil : t -> resil_stats

(** {1 Sorted views (REMIX)}

    Event counters for the cross-component sorted views maintained by the
    LSM layer ([Lsm_tree]'s [Sorted_view]); published as [view.*] gauges
    by {!publish_io_metrics}. *)

type view_stats = {
  mutable builds : int;  (** sorted views (re)built *)
  mutable build_rows : int;  (** positions written into views *)
  mutable build_pages : int;  (** view pages appended *)
  mutable view_scans : int;  (** reconciling scans served from a view *)
  mutable segments : int;  (** anchor segments entered by view scans *)
  mutable rows_skipped : int;
      (** positions passed over (masked, bitmap-invalid, or shadowed by a
          newer duplicate) *)
  mutable rows_emitted : int;  (** key groups resolved by view scans *)
  mutable invalidations : int;  (** views dropped by a structural change *)
  mutable fallbacks : int;  (** eligible scans that fell back to the heap *)
}

val view_stats : t -> view_stats
val retry_policy : t -> Resilience.policy
val set_retry_policy : t -> Resilience.policy -> unit

val set_io_penalty : t -> float -> unit
(** [set_io_penalty t f] scales all device I/O time (positioning and
    transfer, reads and writes) by [f], clamped to [>= 1.0], until the
    next call.  Models a degraded device — a chaos plan's slow-I/O
    window — without any operation erroring.  Cache hits and CPU
    charges are unaffected. *)

val io_penalty : t -> float

val mark_corrupt : t -> file:int -> page:int -> unit
(** Record that a page fails its checksum (idempotent). *)

val corrupt_page_count : t -> int

val file_corrupt : t -> file:int -> bool
(** True when any page of [file] fails its checksum.  Cleared by
    {!drop_file} — deleting the file is how corruption physically leaves
    the system. *)

val create :
  ?cache_bytes:int -> ?read_ahead_bytes:int -> ?cpu:cpu_model -> Device.t -> t
(** [create device]: default cache 64MB; default read-ahead 32 pages (the
    paper's 4MB at its 128KB page size). *)

val device : t -> Device.t
val page_size : t -> int
val stats : t -> Io_stats.t
val cache : t -> Buffer_cache.t
val read_ahead_pages : t -> int

val now_us : t -> float
(** Simulated clock, microseconds since creation. *)

val now_s : t -> float

val advance : t -> float -> unit
(** [advance t us] moves the clock forward (cost-model internals). *)

val rewind : t -> float -> unit
(** [rewind t us] moves the clock back by [us] >= 0 (clamped at zero).
    Reserved for the overlapping-maintenance scheduler, which interleaves
    concurrent merge jobs on this single clock (summing their busy time)
    and then rewinds to the modeled W-worker makespan so wall-clock
    consumers see pipeline cost, not serial cost. *)

(** {1 CPU charging} *)

val charge_comparisons : t -> int -> unit
val charge_hashes : t -> int -> unit
val charge_entry_visits : t -> int -> unit

val charge_cache_lines : t -> int -> unit
(** Blocked Bloom filters exist to make this 1 per probe instead of [k]. *)

val charge_page_hit : t -> unit
(** Touching a page held in a private read-ahead buffer. *)

(** {1 I/O} *)

val fresh_file_id : t -> int

val read_page : t -> file:int -> page:int -> unit
(** Free-ish on a cache hit; otherwise a transfer plus a positioning cost
    if the device head is not on the preceding page of the same file. *)

val write_pages : t -> file:int -> first:int -> count:int -> unit
(** One positioning plus sequential transfers; freshly written pages are
    made cache-resident. *)

val drop_file : t -> file:int -> unit

val reset_measurement : t -> unit
(** Clear statistics without touching clock, cache, or files. *)

(** {1 Memory introspection}

    Environments know who holds in-memory bytes against them: datasets
    register a probe reporting their memory-component footprint, so a
    cross-partition coordinator ([Lsm_serve.Budget]) can ask "how much
    memory does each partition hold right now" without reaching into
    engine internals (paper Sec. 2.3's shared memory-component budget). *)

val register_mem_probe : t -> (unit -> int) -> unit
(** Register a reporter of in-memory bytes held against this
    environment.  [Dataset.create] registers its memory-component
    total. *)

val mem_bytes : t -> int
(** Sum of all registered probes: the environment's current in-memory
    footprint in bytes. *)

val set_mem_budget : t -> int option -> unit
(** Stamp an advisory budget, surfaced as a [mem.budget_bytes] gauge by
    {!publish_io_metrics}.  Enforcement is the caller's job. *)

val mem_budget : t -> int option

(** {1 Observability (lsm_obs)}

    Environments carry an {!Lsm_obs.Obs.t} handle, disabled by default.
    The engine's hot paths are instrumented unconditionally through
    {!span}; disabled, each instrumentation point costs one branch. *)

val obs : t -> Lsm_obs.Obs.t
val tracer : t -> Lsm_obs.Tracer.t
val metrics : t -> Lsm_obs.Metrics.t

val enable_obs : ?trace_capacity:int -> t -> Lsm_obs.Obs.t
(** Install (and return) an enabled handle whose span tracer is stamped
    with this environment's simulated clock. *)

val explain : t -> Lsm_obs.Explain.t

val enable_explain : t -> Lsm_obs.Explain.t
(** Install (and return) an active plan recorder stamped with this
    environment's simulated clock and fed by its {!Io_stats} counters;
    every {!span} site then doubles as a plan-tree node.  Independent of
    {!enable_obs}. *)

val explain_annotate : t -> (string * string) list -> unit
val explain_count : t -> string -> int -> unit
(** Attach properties / bump a named counter on the innermost in-flight
    plan node; one branch when explain is off. *)

val amp : t -> Lsm_obs.Ampstats.t
(** Flush/merge amplification accounting.  Always on, fed by the LSM
    engine; survives {!reset_measurement} (reset it explicitly with
    {!Lsm_obs.Ampstats.reset} if a phase boundary should discard it). *)

val span : t -> ?cat:string -> string -> (unit -> 'a) -> 'a
(** Run a thunk inside a tracer span that carries the {!Io_stats} deltas
    it caused as span arguments, and feed its simulated duration into the
    [span.<name>] latency histogram.  Doubles as a plan node when a
    recorder is active. *)

type span_event = {
  sp_name : string;
  sp_cat : string;  (** [""] when the span carried no category *)
  sp_start_us : float;  (** this environment's clock at span entry *)
  sp_dur_us : float;
}

val set_span_hook : t -> (span_event -> unit) -> unit
(** Install a telemetry tap fired at every {!span} completion —
    independent of {!enable_obs}, so a timeline collector can watch
    maintenance spans (flush, merge, view builds) without paying for
    full tracing.  One hook per environment; [None] by default (one
    branch per span). *)

val clear_span_hook : t -> unit

val emit_span :
  t -> ?cat:string -> string -> start_us:float -> dur_us:float -> unit
(** Report a section not executed under a {!span} scope (the
    overlapping-maintenance scheduler's interleaved merge jobs): feeds
    the [span.<name>] histogram and the {!set_span_hook} tap with the
    given coordinates. *)

val publish_io_metrics : t -> unit
(** Bridge the {!Io_stats} counters accumulated since the last publish
    into [io.*] registry counters (via {!Io_stats.diff}), refresh the
    cache-occupancy and clock gauges, and mirror {!amp} into [amp.*]
    gauges. *)
