(** Adaptive strategy selection — the paper's future-work item
    ("no strategy was found to work best for all workloads, we plan to
    develop auto-tuning techniques so that the system could dynamically
    adopt the optimal maintenance strategies", Sec. 7), implemented for
    the Eager / Validation pair it mainly contrasts.

    The controller watches a sliding window of operations and switches:

    - to {b Validation} when the workload is write-dominated — updates are
      plentiful relative to secondary-index queries, so paying a point
      lookup per upsert (Eager) is the wrong side of the trade;
    - to {b Eager} when it is query-dominated — the validation overhead on
      every query outweighs the occasional ingestion lookups.

    The controller only decides; the dataset does the writes.  Switching
    calls {!Dataset.Make.set_eager_writes}.  Switching Eager -> Validation
    is free: Eager-maintained indexes are already clean, and the dataset
    simply stops doing ingestion-time lookups.  Switching Validation ->
    Eager first runs a full standalone repair so every obsolete entry is
    invalidated; from then on the eager invariant (indexes always
    current) holds again, and queries may drop their validation step.

    Correctness does not depend on the controller's taste: whatever the
    mode history, queries answer exactly like the reference model (see
    [test_adaptive.ml]'s property). *)

module Make (R : Record.S) (D : module type of Dataset.Make (R)) = struct
  type mode = Eager_mode | Validation_mode

  type config = {
    window : int;  (** operations per decision window *)
    write_heavy : float;
        (** switch to Validation when updates-per-query exceeds this *)
    query_heavy : float;
        (** switch to Eager when updates-per-query drops below this *)
  }

  let default_config = { window = 2_000; write_heavy = 20.0; query_heavy = 2.0 }

  type t = {
    d : D.t;
    cfg : config;
    mutable mode : mode;
    mutable w_updates : int;  (** updates/deletes in the current window *)
    mutable w_queries : int;  (** secondary queries in the current window *)
    mutable w_ops : int;
    mutable switches : int;
  }

  (** [create ?config d] wraps [d].  The dataset must use the Validation
      strategy (the controller toggles the *behavioural* mode; validation
      is the safe resting state). *)
  let create ?(config = default_config) d =
    (match D.strategy d with
    | Strategy.Validation _ -> ()
    | _ -> invalid_arg "Adaptive.create: dataset must use Validation");
    {
      d;
      cfg = config;
      mode = Validation_mode;
      w_updates = 0;
      w_queries = 0;
      w_ops = 0;
      switches = 0;
    }

  let dataset t = t.d
  let mode t = t.mode
  let switches t = t.switches

  let switch_to t target =
    if t.mode <> target then begin
      D.set_eager_writes t.d (target = Eager_mode);
      t.mode <- target;
      t.switches <- t.switches + 1;
      Log.info (fun m ->
          m "adaptive: switched to %s after %d updates / %d queries"
            (match target with
            | Eager_mode -> "eager"
            | Validation_mode -> "validation")
            t.w_updates t.w_queries)
    end

  let decide t =
    let upq =
      Float.of_int t.w_updates /. Float.of_int (max 1 t.w_queries)
    in
    if t.w_queries = 0 || upq > t.cfg.write_heavy then
      switch_to t Validation_mode
    else if upq < t.cfg.query_heavy then switch_to t Eager_mode;
    t.w_updates <- 0;
    t.w_queries <- 0;
    t.w_ops <- 0

  let tick t =
    t.w_ops <- t.w_ops + 1;
    if t.w_ops >= t.cfg.window then decide t

  (* ------------------------------------------------------------------ *)
  (* Operations: in eager mode the dataset's writes take the Eager
     strategy's maintenance step (see [D.set_eager_writes]). *)

  let upsert t r =
    t.w_updates <- t.w_updates + 1;
    D.upsert t.d r;
    tick t

  let delete t ~pk =
    t.w_updates <- t.w_updates + 1;
    D.delete t.d ~pk;
    tick t

  let insert t r =
    t.w_updates <- t.w_updates + 1;
    let res = D.insert t.d r in
    tick t;
    res

  (** [query_secondary t ...] uses the cheap plan the current mode
      allows: no validation under the eager invariant, Timestamp
      validation otherwise. *)
  let query_secondary t ~sec ~lo ~hi () =
    t.w_queries <- t.w_queries + 1;
    let mode : D.validation_mode =
      match t.mode with
      | Eager_mode -> `Assume_valid
      | Validation_mode -> `Timestamp
    in
    let r = D.query_secondary t.d ~sec ~lo ~hi ~mode () in
    tick t;
    r

  let point_query t pk = D.point_query t.d pk
end
