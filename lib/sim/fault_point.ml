(** The closed set of fault points; see the interface. *)

type t =
  | Dataset_flush_begin
  | Dataset_flush_pair
  | Dataset_flush_shard_begin
  | Dataset_flush_shard_pair
  | Dataset_merge_pair
  | Io_read
  | Io_write
  | Lsm_flush_begin
  | Lsm_flush_install
  | Lsm_flush_shard_begin
  | Lsm_flush_shard_install
  | Lsm_merge_begin
  | Lsm_merge_install
  | Maint_job_install
  | Maint_job_start
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

let name = function
  | Dataset_flush_begin -> "dataset.flush.begin"
  | Dataset_flush_pair -> "dataset.flush.pair"
  | Dataset_flush_shard_begin -> "dataset.flush.shard.begin"
  | Dataset_flush_shard_pair -> "dataset.flush.shard.pair"
  | Dataset_merge_pair -> "dataset.merge.pair"
  | Io_read -> "io.read"
  | Io_write -> "io.write"
  | Lsm_flush_begin -> "lsm.flush.begin"
  | Lsm_flush_install -> "lsm.flush.install"
  | Lsm_flush_shard_begin -> "lsm.flush.shard.begin"
  | Lsm_flush_shard_install -> "lsm.flush.shard.install"
  | Lsm_merge_begin -> "lsm.merge.begin"
  | Lsm_merge_install -> "lsm.merge.install"
  | Maint_job_install -> "maint.job.install"
  | Maint_job_start -> "maint.job.start"
  | Txn_ckpt_begin -> "txn.ckpt.begin"
  | Txn_ckpt_end -> "txn.ckpt.end"
  | Txn_ckpt_mid -> "txn.ckpt.mid"
  | Txn_commit_durable -> "txn.commit.durable"
  | Txn_commit_pre -> "txn.commit.pre"
  | Txn_flush_anchor -> "txn.flush.anchor"
  | Txn_op_begin -> "txn.op.begin"
  | Txn_op_logged -> "txn.op.logged"
  | Wal_group_ack -> "wal.group.ack"
  | Wal_group_fsync -> "wal.group.fsync"
  | Wal_group_seal -> "wal.group.seal"

let all =
  [
    Dataset_flush_begin;
    Dataset_flush_pair;
    Dataset_flush_shard_begin;
    Dataset_flush_shard_pair;
    Dataset_merge_pair;
    Io_read;
    Io_write;
    Lsm_flush_begin;
    Lsm_flush_install;
    Lsm_flush_shard_begin;
    Lsm_flush_shard_install;
    Lsm_merge_begin;
    Lsm_merge_install;
    Maint_job_install;
    Maint_job_start;
    Txn_ckpt_begin;
    Txn_ckpt_end;
    Txn_ckpt_mid;
    Txn_commit_durable;
    Txn_commit_pre;
    Txn_flush_anchor;
    Txn_op_begin;
    Txn_op_logged;
    Wal_group_ack;
    Wal_group_fsync;
    Wal_group_seal;
  ]

let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

let max_name_length =
  List.fold_left (fun m p -> max m (String.length (name p))) 0 all

let is_io = function Io_read | Io_write -> true | _ -> false
