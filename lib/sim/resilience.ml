(** Retry policy and typed failure for the resilience layer.

    Transient I/O faults ({!Env.Injected_fault} with kind [Io_error]) are
    retried at the I/O site with bounded exponential backoff; the backoff
    sleeps advance the simulated clock, so resilience is charged like any
    other cost.  When the per-site budget is exhausted the failure is
    surfaced as {!Unrecoverable} — a typed error the maintenance
    supervisor (lib/core) and the fault harness understand — never as a
    raw injected exception escaping the engine. *)

type policy = {
  max_retries : int;  (** extra attempts after the first failure *)
  backoff_us : float;  (** simulated sleep before the first retry *)
  backoff_factor : float;  (** multiplier per subsequent retry *)
}

(** Three retries starting at 100µs, doubling: worst case one I/O site
    absorbs 4 consecutive faults for 700µs of simulated backoff — small
    next to a device seek, large next to a page hit. *)
let default_policy = { max_retries = 3; backoff_us = 100.0; backoff_factor = 2.0 }

(** [backoff p ~attempt] is the simulated sleep before retry number
    [attempt] (0-based): [backoff_us * backoff_factor ^ attempt]. *)
let backoff p ~attempt =
  p.backoff_us *. (p.backoff_factor ** Float.of_int attempt)

exception
  Unrecoverable of { point : Fault_point.t; hit : int; attempts : int }
(** A transient fault persisted through every retry.  [point] and [hit]
    identify the injected fault that exhausted the budget; [attempts]
    counts tries made (first + retries). *)

let () =
  Printexc.register_printer (function
    | Unrecoverable { point; hit; attempts } ->
        Some
          (Printf.sprintf "Resilience.Unrecoverable(%s hit %d after %d attempts)"
             (Fault_point.name point) hit attempts)
    | _ -> None)
