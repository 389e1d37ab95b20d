(** The serving driver's per-request samples, as flat columns: class
    index, phase index, arrival, queueing and service time, each in an
    int or unboxed float array grown by doubling, in completion order.
    SLO tables are built from the columns by a selection predicate,
    without copying samples into lists. *)

type class_stats = {
  cls : string;
  count : int;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  mean_queue_us : float;
  mean_service_us : float;
}
(** One SLO row: latency is queueing plus service time. *)

type t

val create : unit -> t
(** An empty store with room for 1024 samples before its first
    doubling. *)

val push :
  t ->
  cls:int ->
  phase:int ->
  arrival_us:float ->
  queue_us:float ->
  service_us:float ->
  unit
(** Append one completed request. *)

val cls : t -> int -> int
val phase : t -> int -> int

val table : t -> string -> (int -> bool) -> class_stats
(** [table t name keep] is the row named [name] over the samples [i]
    with [keep i].  One pass sums the queue and service times in
    completion order (so the means equal a left fold over the selected
    samples) and gathers the non-nan latencies into a scratch array the
    store allocates once; one sort gives the nearest-rank p50, p95 and
    p99.  An empty selection reads 0 throughout; a selection whose
    latencies are all nan reads nan percentiles. *)

val mean_queue_halves : t -> half:float -> float * float
(** Mean queueing delay of the samples that arrived before [half], and
    of those that arrived at or after it; 0 for an empty half. *)
