(** Hash-partitioned datasets — the shared-nothing architecture of
    Sec. 2.2.  Each partition has its own full set of local LSM indexes
    and its own storage environment ("node"); primary-key operations route
    to one partition, secondary queries fan out to all.  System wall-clock
    under partition parallelism is the slowest partition's clock. *)

val owner : partitions:int -> int -> int
(** [owner ~partitions pk] is the partition, in [[0, partitions)], that
    owns primary key [pk]: the one routing rule for every caller. *)

module Make (R : Record.S) : sig
  module D : module type of Dataset.Make (R)

  type t

  val create :
    ?filter_key:(R.t -> int) ->
    ?secondaries:R.t Record.secondary list ->
    mk_env:(int -> Lsm_sim.Env.t) ->
    partitions:int ->
    D.config ->
    t

  val partitions : t -> int
  val partition : t -> int -> D.t
  val env : t -> int -> Lsm_sim.Env.t
  val route : t -> int -> int
  (** [route t pk] is [owner ~partitions:(partitions t) pk]. *)

  (** {1 Ingestion (routed)} *)

  val insert : t -> R.t -> [ `Inserted | `Duplicate ]
  val upsert : t -> R.t -> unit
  val delete : t -> pk:int -> unit

  (** {1 Queries} *)

  val point_query : t -> int -> R.t option
  (** Touches exactly the owning partition. *)

  val point_query_batch :
    ?lookup:D.Prim.lookup_opts ->
    t ->
    int array ->
    emit:(int -> R.t option -> unit) ->
    unit
  (** Batched cross-partition multi-get: keys grouped by owning
      partition, sorted locally, resolved through the batched
      point-lookup machinery of Sec. 3.2.  [emit] fires exactly once per
      input key, in per-partition fetch order. *)

  val point_query_batch_part :
    ?lookup:D.Prim.lookup_opts ->
    t ->
    int ->
    int list ->
    emit:(int -> R.t option -> unit) ->
    unit
  (** One partition's share of a multi-get: every key must be owned by
      the given partition.  A degraded front door answers a multi-get
      partition by partition through this, so a failed node costs only
      its own key slots. *)

  val query_secondary_part :
    t ->
    int ->
    sec:string ->
    lo:int ->
    hi:int ->
    mode:D.validation_mode ->
    ?lookup:D.Prim.lookup_opts ->
    unit ->
    R.t list
  (** One partition's share of a secondary fan-out. *)

  val query_secondary :
    t ->
    sec:string ->
    lo:int ->
    hi:int ->
    mode:D.validation_mode ->
    ?lookup:D.Prim.lookup_opts ->
    unit ->
    R.t list
  (** Fan-out to all partitions, concatenated. *)

  val query_secondary_keys :
    t ->
    sec:string ->
    lo:int ->
    hi:int ->
    mode:[ `Assume_valid | `Timestamp ] ->
    unit ->
    (int * int) list

  val query_time_range : t -> tlo:int -> thi:int -> f:(R.t -> unit) -> int
  (** {!D.query_time_range} on every partition.  [f] must not
      write to [t]: each partition's scan reads its memory component in
      place. *)

  val query_time_range_part :
    t -> int -> tlo:int -> thi:int -> f:(R.t -> unit) -> int
  (** One partition's share of a time-range fan-out; [f] must not write
      to [t]. *)

  val full_scan : t -> f:(R.t -> unit) -> int
  (** Every live record of every partition; [f] must not write to [t]. *)

  (** {1 Timing and maintenance} *)

  val sim_time_s : t -> float
  (** Parallel completion time: the slowest partition's clock. *)

  val sim_time_total_s : t -> float
  (** Aggregate machine time across partitions. *)

  val flush_now : t -> unit
  val total_disk_bytes : t -> int

  (** {1 Shared memory budget hooks (Sec. 2.3)}

      By default each partition's dataset budgets its own memory; a
      global flush coordinator ([Lsm_serve.Budget]) disables that and
      drives evictions across the cluster through these. *)

  val set_auto_maintenance : t -> bool -> unit
  (** Toggle every partition's own budget-triggered flush/merge. *)

  val mem_bytes_of : t -> int -> int
  val total_mem_bytes : t -> int

  val flush_partition : t -> int -> unit
  (** Flush one partition's memory components and run its merges — the
      coordinator's eviction primitive. *)

  val mem_shards : t -> int
  (** Per-tree memory shard count (uniform across partitions). *)

  val shard_bytes_of : t -> int -> int -> int
  (** [shard_bytes_of t i s]: partition [i]'s aggregate bytes in memory
      shard [s] — the coordinator's eviction unit when sharded. *)

  val flush_partition_shard : t -> int -> int -> unit
  (** [flush_partition_shard t i s] flushes only shard [s] of partition
      [i]'s memory components (and runs its merges): the finer-grained
      eviction primitive that avoids dumping whole partition memtables
      when the global budget trips. *)
end
