(** Counters describing work performed against a storage environment —
    the auditable side of the simulation (tests assert on these, not just
    on simulated time). *)

type t = {
  mutable pages_read : int;
  mutable seq_reads : int;  (** of which sequential w.r.t. the device head *)
  mutable rand_reads : int;  (** of which required a positioning *)
  mutable pages_written : int;
  mutable write_batches : int;  (** distinct sequential write bursts *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable bloom_probes : int;
  mutable bloom_negatives : int;  (** probes answered "definitely absent" *)
  mutable bloom_fps : int;
      (** false positives: positive probes whose component search missed *)
  mutable bloom_cache_lines : int;  (** CPU cache lines touched by probes *)
  mutable comparisons : int;  (** key comparisons in searches and sorts *)
  mutable cursor_restarts : int;
      (** stateful B+-tree cursor searches that had to move backwards *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val diff : t -> t -> t
(** [diff a b] is the counter-wise difference [a - b]. *)

val names : string array
(** Every counter's name, in declaration order. *)

val read_into : t -> int array -> unit
(** [read_into t a] writes every counter into [a] (of length
    [Array.length names]), in {!names} order; allocates nothing. *)

val fields : t -> (string * int) list
(** Every counter as a (name, value) pair, in {!names} order — the
    bridge into the metrics registry. *)

val pp : Format.formatter -> t -> unit
