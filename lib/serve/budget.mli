(** Global flush coordinator (paper Sec. 2.3): one memory budget shared
    by all partitions' LSM memory components.  When the aggregate reaches
    the budget, the coordinator evicts at the finest granularity the
    partitions offer — whole memtables when unsharded, single memory
    shards when sharded — greedily, largest first across partitions,
    which bounds the eviction overshoot by a shard instead of a whole
    partition. *)

type part = private {
  mem_bytes : unit -> int;  (** partition's current memory-component bytes *)
  flush : unit -> unit;  (** flush the partition's memory components *)
  shards : int;  (** memory shards the partition can evict singly *)
  shard_bytes : int -> int;  (** current bytes of one memory shard *)
  flush_shard : int -> unit;  (** flush one memory shard *)
}

val part :
  ?shards:int ->
  ?shard_bytes:(int -> int) ->
  ?flush_shard:(int -> unit) ->
  mem_bytes:(unit -> int) ->
  flush:(unit -> unit) ->
  unit ->
  part
(** Build a partition handle.  With [shards = 1] (the default) the
    shard hooks are ignored and the whole partition is the eviction
    unit; pass [shards > 1] and both shard hooks to let the coordinator
    evict one shard at a time. *)

type t

val create : budget_bytes:int -> part array -> t
(** @raise Invalid_argument on an empty partition set or a budget < 1. *)

val budget_bytes : t -> int

val total : t -> int
(** Aggregate memory-component footprint, bytes. *)

val enforce : t -> unit
(** Restore [total t < budget_bytes] by flushing the largest shard
    across partitions (unsharded: the largest memtable), ties to the
    lowest partition and shard, repeatedly until under budget or nothing
    is left to evict.  Call after every write. *)

val evictions : t -> int
(** Coordinator-initiated flushes so far. *)

val evictions_of : t -> int -> int
(** [evictions_of t i]: evictions partition [i] absorbed — chaos
    attribution watches eviction pressure shift off a degraded
    partition. *)

val peak_bytes : t -> int
(** Largest aggregate footprint observed at an enforcement boundary —
    the invariant tests assert this stays under the budget. *)

val peak_pre_bytes : t -> int
(** Largest aggregate observed as enforcement began: how far a single
    write overshoots before its same-instant eviction. *)
