(** Retry policy and typed failure for the resilience layer.  The [Env]
    I/O sites retry transient injected faults under a {!policy}, charging
    the backoff to the simulated clock; exhaustion surfaces as
    {!Unrecoverable}. *)

type policy = {
  max_retries : int;  (** extra attempts after the first failure *)
  backoff_us : float;  (** simulated sleep before the first retry *)
  backoff_factor : float;  (** multiplier per subsequent retry *)
}

val default_policy : policy
(** 3 retries, 100µs initial backoff, doubling. *)

val backoff : policy -> attempt:int -> float
(** Simulated sleep before retry [attempt] (0-based). *)

exception
  Unrecoverable of { point : Fault_point.t; hit : int; attempts : int }
(** A transient fault persisted through every retry; [attempts] counts
    tries made (first + retries). *)
