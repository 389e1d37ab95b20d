(** The closed set of failure sites the engine announces through
    {!Env.fault_point}.  Each constructor is one crash-relevant
    transition: a page I/O, a flush or merge begin/install, a WAL or
    transaction boundary, a checkpoint phase, a maintenance-job edge.
    Constructors are declared in name order, so [compare] on points,
    {!all} and {!name} agree. *)

type t =
  | Dataset_flush_begin  (** a whole-memory dataset flush starts *)
  | Dataset_flush_pair
      (** the primary's flush is durable, the pk index's is not yet *)
  | Dataset_flush_shard_begin  (** a per-shard dataset flush starts *)
  | Dataset_flush_shard_pair  (** the per-shard primary/pk flush pair *)
  | Dataset_merge_pair  (** the primary merged, the pk index not yet *)
  | Io_read  (** a cache-missing page read *)
  | Io_write  (** a page-write batch *)
  | Lsm_flush_begin
  | Lsm_flush_install
  | Lsm_flush_shard_begin
  | Lsm_flush_shard_install
  | Lsm_merge_begin
  | Lsm_merge_install
  | Maint_job_install  (** an overlapped maintenance job installs *)
  | Maint_job_start  (** an overlapped maintenance job starts *)
  | Txn_ckpt_begin
  | Txn_ckpt_end
  | Txn_ckpt_mid
  | Txn_commit_durable
  | Txn_commit_pre
  | Txn_flush_anchor
  | Txn_op_begin
  | Txn_op_logged
  | Wal_group_ack
  | Wal_group_fsync
  | Wal_group_seal

val all : t list
(** Every point, in name order. *)

val name : t -> string
(** The dotted spelling, e.g. ["dataset.flush.pair"], ["io.read"]. *)

val of_name : string -> t option
(** Inverse of {!name}. *)

val max_name_length : int
(** The longest {!name}, for aligned listings. *)

val is_io : t -> bool
(** [Io_read] and [Io_write]: the sites that absorb transient faults and
    where corruption lands. *)
