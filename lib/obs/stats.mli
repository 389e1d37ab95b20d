(** Shared sample statistics: the one nan-safe percentile used by bench
    snapshots and the serving layer alike. *)

val percentile : float array -> float -> float
(** [percentile samples p] is the nearest-rank [p]-th percentile (0–100)
    of the finite values of [samples].  Nan samples are dropped; nan is
    returned only when no finite sample remains. *)

val percentiles : float array -> float array -> float array
(** [percentiles samples ps] is [Array.map (percentile samples) ps],
    from one flat copy of the finite samples and one sort. *)

val sorted_percentiles : float array -> int -> float array -> float array
(** [sorted_percentiles a n ps] sorts the first [n] values of [a] in
    place and returns their nearest-rank [ps]; all nan when [n = 0].
    The prefix must hold no nan.  A caller that gathers samples into a
    scratch array it reuses reads percentiles without a copy. *)

val p50 : float array -> float
val p95 : float array -> float
val p99 : float array -> float
