(** Hash-partitioned datasets — the shared-nothing architecture of
    Sec. 2.2: "records of a dataset are hash-partitioned based on their
    primary keys across multiple nodes"; every partition has its own full
    set of local LSM indexes, "secondary index lookups are routed to all
    dataset partitions", and primary-key operations to exactly one.

    Each partition runs against its own storage environment (its own
    simulated node: device, cache, clock), so the simulated wall-clock of
    the whole system is the *maximum* over partition clocks — ingestion
    and queries are partition-parallel, which is why the paper evaluates a
    single partition and notes that "the overall performance of multiple
    partitions generally achieves near-linear speedup" (Sec. 6.1).  The
    scale-out ablation bench checks exactly that claim. *)

(** [owner ~partitions pk] is the partition that owns primary key [pk]. *)
let owner ~partitions pk = Lsm_bloom.Hashing.mix64 pk land max_int mod partitions

module Make (R : Record.S) = struct
  module D = Dataset.Make (R)

  type t = {
    parts : D.t array;
    envs : Lsm_sim.Env.t array;
  }

  (** [create ~mk_env ~partitions cfg] builds [partitions] local datasets;
      [mk_env i] supplies partition [i]'s storage environment ("node"). *)
  let create ?filter_key ?(secondaries = []) ~mk_env ~partitions cfg =
    if partitions < 1 then invalid_arg "Partitioned.create: partitions >= 1";
    let envs = Array.init partitions mk_env in
    let parts =
      Array.map (fun env -> D.create ?filter_key ~secondaries env cfg) envs
    in
    { parts; envs }

  let partitions t = Array.length t.parts
  let partition t i = t.parts.(i)
  let env t i = t.envs.(i)

  let route t pk = owner ~partitions:(Array.length t.parts) pk

  (* ------------------------------------------------------------------ *)
  (* Ingestion: routed to one partition. *)

  let insert t r = D.insert t.parts.(route t (R.primary_key r)) r
  let upsert t r = D.upsert t.parts.(route t (R.primary_key r)) r
  let delete t ~pk = D.delete t.parts.(route t pk) ~pk

  (* ------------------------------------------------------------------ *)
  (* Queries *)

  (** [point_query t pk] touches exactly the owning partition. *)
  let point_query t pk = D.point_query t.parts.(route t pk) pk

  (** [point_query_batch_part t i pks ~emit] resolves the point queries
      of one partition's key group: sorted locally (comparisons charged
      to that node) and resolved with one [lookup_batch] against the
      partition's primary index.  Every key must be owned by [i].  A
      degraded front door uses this to answer a multi-get partition by
      partition, so one failed node costs only its own slots. *)
  let point_query_batch_part ?lookup t i pks ~emit =
    if pks <> [] then begin
      let d = t.parts.(i) in
      let arr = Array.of_list pks in
      let cmps = ref 0 in
      Lsm_util.Sorter.sort ~cmp:(fun a b -> compare (a : int) b) ~cost:cmps arr;
      Lsm_sim.Env.charge_comparisons t.envs.(i) !cmps;
      let lookup =
        match lookup with Some l -> l | None -> D.Prim.default_lookup_opts
      in
      D.Prim.lookup_batch (D.primary d) lookup (D.Prim.plain_keys arr) ~emit
    end

  (** [point_query_batch t pks ~emit] resolves many primary-key point
      queries through the batched-lookup machinery of Sec. 3.2, fanned
      out across partitions: keys are grouped by owner, each group
      sorted locally, and resolved with one [lookup_batch] against the
      owning partition's primary index.  [emit] fires exactly once per
      input key, in per-partition fetch order. *)
  let point_query_batch ?lookup t pks ~emit =
    let n = Array.length t.parts in
    let groups = Array.make n [] in
    Array.iter (fun pk -> let i = route t pk in groups.(i) <- pk :: groups.(i)) pks;
    Array.iteri (fun i ks -> point_query_batch_part ?lookup t i ks ~emit) groups

  (** [query_secondary_part t i ...] is one partition's share of a
      secondary fan-out — the unit a degraded front door can still
      answer when other partitions are down. *)
  let query_secondary_part t i ~sec ~lo ~hi ~mode ?lookup () =
    D.query_secondary t.parts.(i) ~sec ~lo ~hi ~mode ?lookup ()

  (** [query_secondary t ...] fans out to all partitions and concatenates
      (the paper: "returned primary keys are then sorted locally before
      retrieving the records in the local partitions"). *)
  let query_secondary t ~sec ~lo ~hi ~mode ?lookup () =
    List.init (Array.length t.parts) Fun.id
    |> List.concat_map (fun i -> query_secondary_part t i ~sec ~lo ~hi ~mode ?lookup ())

  let query_secondary_keys t ~sec ~lo ~hi ~mode () =
    Array.to_list t.parts
    |> List.concat_map (fun d -> D.query_secondary_keys d ~sec ~lo ~hi ~mode ())

  let query_time_range_part t i ~tlo ~thi ~f =
    D.query_time_range t.parts.(i) ~tlo ~thi ~f

  let query_time_range t ~tlo ~thi ~f =
    Array.fold_left (fun acc d -> acc + D.query_time_range d ~tlo ~thi ~f) 0 t.parts

  let full_scan t ~f =
    Array.fold_left (fun acc d -> acc + D.full_scan d ~f) 0 t.parts

  (* ------------------------------------------------------------------ *)
  (* Timing under partition parallelism *)

  (** [sim_time_s t] is the system's simulated wall clock: partitions run
      in parallel, so completion time is the slowest partition's clock. *)
  let sim_time_s t =
    Array.fold_left (fun acc env -> max acc (Lsm_sim.Env.now_s env)) 0.0 t.envs

  (** [sim_time_total_s t] is the aggregate machine time (for efficiency
      accounting). *)
  let sim_time_total_s t =
    Array.fold_left (fun acc env -> acc +. Lsm_sim.Env.now_s env) 0.0 t.envs

  let flush_now t = Array.iter D.flush_now t.parts

  let total_disk_bytes t =
    Array.fold_left (fun acc d -> acc + D.total_disk_bytes d) 0 t.parts

  (* ------------------------------------------------------------------ *)
  (* Shared memory budget hooks (Sec. 2.3).  By default every partition's
     dataset budgets independently through its own [maybe_flush]; a
     global coordinator (Lsm_serve.Budget) instead disables per-partition
     auto-maintenance and uses these to watch aggregate memory and evict
     the largest memtable across the cluster. *)

  (** [set_auto_maintenance t on] toggles every partition's own
      budget-triggered flush/merge. *)
  let set_auto_maintenance t on =
    Array.iter (fun d -> D.set_auto_maintenance d on) t.parts

  let mem_bytes_of t i = D.total_mem_bytes t.parts.(i)

  (** [total_mem_bytes t] is the aggregate memory-component footprint
      across all partitions. *)
  let total_mem_bytes t =
    Array.fold_left (fun acc d -> acc + D.total_mem_bytes d) 0 t.parts

  (** [flush_partition t i] flushes partition [i]'s memory components and
      runs its merge scheduler (the coordinator's eviction primitive). *)
  let flush_partition t i = D.flush_now t.parts.(i)

  (** [mem_shards t] is the per-tree memory shard count (uniform across
      partitions — they share one dataset config). *)
  let mem_shards t = D.mem_shards t.parts.(0)

  (** [shard_bytes_of t i s] is partition [i]'s aggregate bytes in memory
      shard [s] — the coordinator's eviction unit when sharded. *)
  let shard_bytes_of t i s = D.mem_shard_bytes t.parts.(i) s

  (** [flush_partition_shard t i s] flushes only shard [s] of partition
      [i]'s memory components (and runs its merge scheduler): the
      finer-grained eviction primitive that avoids dumping a whole
      partition's memtables when the global budget trips. *)
  let flush_partition_shard t i s = D.flush_shard_now t.parts.(i) s
end
