(** The span sink: completed spans of the simulated clock.

    [Lsm_sim.Env.span] owns the span stack and hands each completed span
    to {!record}.  Completed spans land in a bounded ring buffer (for
    Chrome [trace_event] export); exact per-name aggregates and
    top-level totals are folded in at completion and survive ring
    wraparound.  The disabled tracer records nothing. *)

type t

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;  (** 0 = top-level *)
  ev_args : int array;  (** one value per argument name, e.g. I/O deltas *)
}

type agg = {
  mutable a_count : int;
  mutable a_total_us : float;
  mutable a_self_us : float;  (** total minus time in direct children *)
  mutable a_max_us : float;
}

val create : ?capacity:int -> arg_names:string array -> unit -> t
(** [capacity] bounds the ring buffer (default 65536 completed spans);
    [arg_names] names the arguments every event carries, e.g. the I/O
    counters. *)

val disabled : t
val enabled : t -> bool

val record :
  t ->
  name:string ->
  cat:string ->
  start_us:float ->
  dur_us:float ->
  self_us:float ->
  depth:int ->
  int array ->
  unit
(** Fold one completed span; its arguments (one value per argument
    name, e.g. I/O counter deltas) count toward {!top_level_args} only
    at [depth] 0.  A no-op on {!disabled}. *)

val recorded : t -> int
(** Completed spans ever (including any no longer in the ring). *)

val dropped : t -> int
(** [recorded - capacity] when positive: spans evicted from the ring. *)

val events : t -> event array
(** Ring contents, oldest first. *)

val top_level_us : t -> float
(** Sum of top-level (depth 0) span durations — the covered time. *)

val top_level_args : t -> (string * int) list
(** Top-level span argument totals, summed per key and sorted — e.g. the
    I/O counters attributed to named spans, for reconciliation against
    {!Lsm_sim.Io_stats.diff}. *)

val aggregates : t -> (string * agg) list
(** Per-name aggregates, largest total first. *)

val add_chrome_events : Buffer.t -> ?pid:int -> first:bool -> t -> int
(** Append the ring's events as Chrome [trace_event] objects
    (comma-separated; [first] controls the leading comma).  Returns
    how many were emitted.  Timestamps are microseconds — exactly
    Chrome's unit. *)

val to_chrome_json : t -> string
(** A standalone loadable [chrome://tracing] / Perfetto document. *)

val profile : ?total_us:float -> t -> string
(** Aligned text table (count / total / self / max / %run per span name)
    plus a coverage line.  [total_us] is the run's elapsed simulated
    time; defaults to the covered time itself. *)
