(** The front door: requests enter here and are routed over
    [Core.Partitioned] (Sec. 2.2's hash-partitioned cluster) under the
    global memory budget of {!Budget}.

    Primary-key requests touch exactly the owning partition; multi-gets
    group keys by owner and use the batched point-lookup machinery of
    Sec. 3.2 within each partition; secondary and time-range queries fan
    out to every partition.  Each request reports the simulated time it
    consumed *per partition*, so an open-loop driver can model
    partitions as parallel servers: a request's service time is the max
    over the partitions it involved, and a budget-triggered flush on
    some other partition shows up on that partition's clock, delaying
    only requests routed there. *)

module Make (R : Lsm_core.Record.S) = struct
  module P = Lsm_core.Partitioned.Make (R)
  module T = Lsm_core.Txn_dataset.Make (R) (P.D)

  type request =
    | Insert of R.t
    | Upsert of R.t
    | Delete of int
    | Point of int
    | Multi_get of int array
    | Secondary of { sec : string; lo : int; hi : int; mode : P.D.validation_mode }
    | Time_range of { tlo : int; thi : int }

  type reply =
    | Wrote
    | Rejected  (** insert hit the uniqueness check *)
    | Found of R.t option
    | Rows of int

  (** One budget-triggered eviction observed during a request, for the
      telemetry timeline.  [ev_start_off_us] is the offset of the flush
      start from the victim partition's clock at request entry, so an
      open-loop driver can place the eviction on its own arrival
      timeline ([request_start + offset]). *)
  type eviction = {
    ev_part : int;
    ev_start_off_us : float;
    ev_dur_us : float;
    ev_bytes : int;  (** memtable bytes released *)
    ev_flushes : int;  (** component flushes the eviction performed *)
    ev_merges : int;  (** merges it cascaded into *)
    ev_merge_bytes : int;  (** bytes rewritten by those merges *)
  }

  type outcome = {
    reply : reply;
    service_us : float array;
        (** simulated time the request consumed on each partition
            (including any budget-triggered flush it caused there) *)
    touched : int list;  (** structurally involved partitions *)
    evictions : eviction list;
        (** budget evictions this request triggered, oldest first *)
  }

  type t = {
    p : P.t;
    txns : T.t array;
        (** durable per-partition transactional wrappers; [[||]] when
            the router is not durable *)
    budget : Budget.t;
    lookup : P.D.Prim.lookup_opts;
    before : float array;  (** per-partition clock snapshot scratch *)
    evlog : eviction list ref;  (** evictions of the current request *)
  }

  (** [create ~mk_env ~partitions ~budget_bytes cfg] builds the cluster
      with per-partition auto-maintenance *disabled*: all flushes and
      merges are driven by the shared-budget coordinator.  [cfg]'s own
      [mem_budget] is ignored in favour of [budget_bytes].

      With [~durable:true] every partition is wrapped in a
      {!Lsm_core.Txn_dataset} (serial WAL, one fsync per auto-committed
      write), so every acknowledged write is durable and a partition can
      {!crash_partition} and {!recover_partition} mid-run through the
      durable-frontier recovery path.  Requires a Mutable-bitmap or
      Validation strategy. *)
  let create ?filter_key ?(secondaries = []) ?lookup ?(durable = false)
      ~mk_env ~partitions ~budget_bytes cfg =
    let p = P.create ?filter_key ~secondaries ~mk_env ~partitions cfg in
    P.set_auto_maintenance p false;
    let txns =
      if durable then Array.init partitions (fun i -> T.create (P.partition p i))
      else [||]
    in
    for i = 0 to partitions - 1 do
      Lsm_sim.Env.set_mem_budget (P.env p i) (Some budget_bytes)
    done;
    let before = Array.make partitions 0.0 in
    let evlog = ref [] in
    (* Instrumented eviction: record what the flush cost and released,
       on the victim partition's clock.  Pure reads around the flush —
       the simulated costs are unchanged.  Durable partitions flush
       through the WAL wrapper (log forced before data). *)
    let instrumented i do_flush =
      let env = P.env p i in
      let t0 = Lsm_sim.Env.now_us env in
      let bytes0 = P.mem_bytes_of p i in
      let amp0 = Lsm_obs.Ampstats.copy (Lsm_sim.Env.amp env) in
      do_flush ();
      let d = Lsm_obs.Ampstats.diff ~since:amp0 (Lsm_sim.Env.amp env) in
      evlog :=
        {
          ev_part = i;
          ev_start_off_us = t0 -. before.(i);
          ev_dur_us = Lsm_sim.Env.now_us env -. t0;
          ev_bytes = max 0 (bytes0 - P.mem_bytes_of p i);
          ev_flushes = d.Lsm_obs.Ampstats.flushes;
          ev_merges = d.Lsm_obs.Ampstats.merges;
          ev_merge_bytes = d.Lsm_obs.Ampstats.merge_written_bytes;
        }
        :: !evlog
    in
    let budget =
      Budget.create ~budget_bytes
        (Array.init partitions (fun i ->
             Budget.part
               ~shards:(P.mem_shards p)
               ~shard_bytes:(fun s -> P.shard_bytes_of p i s)
               ~flush_shard:(fun s ->
                 instrumented i (fun () ->
                     if durable then T.flush_shard txns.(i) s
                     else P.flush_partition_shard p i s))
               ~mem_bytes:(fun () -> P.mem_bytes_of p i)
               ~flush:(fun () ->
                 instrumented i (fun () ->
                     if durable then T.flush txns.(i)
                     else P.flush_partition p i))
               ()))
    in
    {
      p;
      txns;
      budget;
      lookup =
        (match lookup with Some l -> l | None -> P.D.Prim.default_lookup_opts);
      before;
      evlog;
    }

  let partitioned t = t.p
  let budget t = t.budget
  let durable t = Array.length t.txns > 0

  let all_partitions t = List.init (P.partitions t.p) Fun.id

  let is_write = function
    | Insert _ | Upsert _ | Delete _ -> true
    | Point _ | Multi_get _ | Secondary _ | Time_range _ -> false

  (** [key_groups t pks] is each partition's share of a multi-get's
      keys, grouped the way [P.point_query_batch] groups them (each group
      in reverse request order), so the sort inside {!multi_get_part}
      charges the same comparisons whoever assembles the request. *)
  let key_groups t pks =
    let groups = Array.make (P.partitions t.p) [] in
    Array.iter
      (fun pk ->
        let i = P.route t.p pk in
        groups.(i) <- pk :: groups.(i))
      pks;
    groups

  (** [targets t req] is the partition set the request structurally
      needs (fan-outs: every partition). *)
  let targets t req =
    match req with
    | Insert r | Upsert r -> [ P.route t.p (R.primary_key r) ]
    | Delete pk | Point pk -> [ P.route t.p pk ]
    | Multi_get pks ->
        let groups = key_groups t pks in
        List.filter (fun i -> groups.(i) <> []) (all_partitions t)
    | Secondary _ | Time_range _ -> all_partitions t

  (* ------------------------------------------------------------------ *)
  (* The session API: a request runs in per-partition pieces (so under
     chaos one failed partition costs only its own slots), bracketed by
     [snapshot] and [service_since].  {!exec} is the whole request
     assembled from the same pieces. *)

  let snapshot t =
    t.evlog := [];
    for i = 0 to P.partitions t.p - 1 do
      t.before.(i) <- Lsm_sim.Env.now_us (P.env t.p i)
    done

  (** [since_snapshot t i us] is partition [i]'s clock reading [us]
      relative to the last {!snapshot}. *)
  let since_snapshot t i us = us -. t.before.(i)

  let service_since t =
    Array.init (P.partitions t.p) (fun i ->
        since_snapshot t i (Lsm_sim.Env.now_us (P.env t.p i)))

  let evictions_since t = List.rev !(t.evlog)

  (** [exec_write t req] performs a (single-partition) write, routed
      through the WAL wrapper when durable (an auto-committed
      transaction per write: acked means durable).  Budget enforcement
      is the caller's separate step: the write is already acknowledged
      when an eviction it triggers fails, and conflating the two would
      make an eviction error look like a lost write. *)
  let exec_write t req =
    match req with
    | Insert r ->
        let pk = R.primary_key r in
        let i = P.route t.p pk in
        if not (durable t) then (
          match P.insert t.p r with `Inserted -> Wrote | `Duplicate -> Rejected)
        else if P.D.key_exists (P.partition t.p i) pk then Rejected
        else begin
          T.upsert_auto t.txns.(i) r;
          Wrote
        end
    | Upsert r ->
        if durable t then T.upsert_auto t.txns.(P.route t.p (R.primary_key r)) r
        else P.upsert t.p r;
        Wrote
    | Delete pk ->
        if durable t then T.delete_auto t.txns.(P.route t.p pk) ~pk
        else P.delete t.p ~pk;
        Wrote
    | _ -> invalid_arg "Router.exec_write: not a write"

  let point_part t pk = P.point_query t.p pk

  (** [multi_get_part t i pks] answers the multi-get slots owned by
      partition [i], as (key, record option) pairs in fetch order. *)
  let multi_get_part t i pks =
    let out = ref [] in
    P.point_query_batch_part ~lookup:t.lookup t.p i pks ~emit:(fun pk r ->
        out := (pk, r) :: !out);
    List.rev !out

  let secondary_part t i ~sec ~lo ~hi ~mode =
    P.query_secondary_part t.p i ~sec ~lo ~hi ~mode ~lookup:t.lookup ()

  let time_range_part t i ~tlo ~thi =
    P.query_time_range_part t.p i ~tlo ~thi ~f:(fun _ -> ())

  (** [exec t req] runs one request to completion and reports where the
      simulated time went. *)
  let exec t req =
    snapshot t;
    let sum f = List.fold_left (fun n i -> n + f i) 0 (all_partitions t) in
    let reply =
      match req with
      | Insert _ | Upsert _ | Delete _ ->
          let reply = exec_write t req in
          Budget.enforce t.budget;
          reply
      | Point pk -> Found (point_part t pk)
      | Multi_get pks ->
          let groups = key_groups t pks in
          let found slots = List.filter (fun (_, r) -> r <> None) slots in
          Rows
            (sum (fun i -> List.length (found (multi_get_part t i groups.(i)))))
      | Secondary { sec; lo; hi; mode } ->
          Rows
            (sum (fun i -> List.length (secondary_part t i ~sec ~lo ~hi ~mode)))
      | Time_range { tlo; thi } ->
          Rows (sum (fun i -> time_range_part t i ~tlo ~thi))
    in
    {
      reply;
      service_us = service_since t;
      touched = targets t req;
      evictions = evictions_since t;
    }

  (* Partition lifecycle under chaos (durable routers only). *)

  let require_durable t op =
    if not (durable t) then
      invalid_arg (Printf.sprintf "Router.%s: requires a durable router" op)

  (** [crash_partition t i] loses partition [i]'s memory state (memory
      components vanish, bitmaps revert to the last checkpoint). *)
  let crash_partition t i =
    require_durable t "crash_partition";
    T.crash t.txns.(i)

  (** [recover_partition t i] replays the WAL past the durable frontier;
      its simulated cost lands on partition [i]'s clock. *)
  let recover_partition t i =
    require_durable t "recover_partition";
    T.recover t.txns.(i)

  (** [wal_length t i] is the number of records ever appended to
      partition [i]'s WAL, less torn discards (durable routers only): the
      log's length on media, which the modeled recovery log scan reads.
      Truncation below the durable frontier shrinks only what memory
      retains ([Wal.retained]), not this count. *)
  let wal_length t i =
    require_durable t "wal_length";
    Lsm_txn.Wal.length (T.wal t.txns.(i))

  let heal_partition t i = P.D.heal (P.partition t.p i)
  let quarantined t i = P.D.quarantined_count (P.partition t.p i)
end
