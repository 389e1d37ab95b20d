(** Record-level transactions with write-ahead logging, aborts,
    checkpoints, and crash recovery — Sec. 5.2's protocol end to end over
    real components.  The WAL holds the only log (one {!redo} record per
    operation); a transaction handle holds only its undo information.
    See the implementation header for the redo/undo rules; flushes,
    checkpoints, and merges require transaction quiescence. *)

module Make (R : Record.S) (D : module type of Dataset.Make (R)) : sig
  type t
  type txn

  type redo
  (** One WAL payload: an operation, its timestamp and its update bit. *)

  val create : D.t -> t
  (** Wrap a dataset (Mutable-bitmap or Validation strategy; Eager's
      read-modify-write path would need old-record logging).
      Auto-maintenance is disabled — use {!flush}. *)

  val dataset : t -> D.t

  val wal : t -> redo Lsm_txn.Wal.t
  (** The write-ahead log, the one log recovery replays — after a
      {!crash}, the durable commit record is the authority on whether an
      in-flight transaction committed. *)

  val set_group_commit : t -> batch:int -> unit
  (** Batched group commit: commits enqueue into a group and one
      simulated fsync makes the whole group durable, amortizing the
      log-force cost ([batch] >= 2; <= 1 restores serial durability).
      {!flush} and {!checkpoint} force the open group out first
      (WAL-before-data), and {!crash} demotes a never-fsynced group's
      commits (torn group tail). *)

  val group_commit_batch : t -> int

  (** {1 Transactions} *)

  val begin_txn : t -> txn

  val txn_id : txn -> int
  (** WAL transaction id — crash checkers use it to ask the recovered WAL
      whether an in-flight transaction's commit record became durable. *)

  val upsert : t -> txn -> R.t -> unit
  val delete : t -> txn -> pk:int -> unit
  val commit : t -> txn -> unit

  val abort : t -> txn -> unit
  (** Apply inverse operations in reverse order: restore memory bindings,
      unset validity bits (the only time bits flip back). *)

  val with_txn : t -> (txn -> 'a) -> 'a
  (** Run in a fresh transaction and commit. *)

  val upsert_auto : t -> R.t -> unit
  val delete_auto : t -> pk:int -> unit

  (** {1 Durability} *)

  val flush : t -> unit
  (** Make memory components durable (and merge); advances each tree's
      durable frontier — the paper's "maximum component LSN", per index —
      and re-anchors the bitmap checkpoint (components are durable via
      shadowing). *)

  val flush_shard : t -> int -> unit
  (** Make one memory shard of every tree durable (and merge) while the
      sibling shards keep their contents; recovery gates redo on
      per-(tree, shard) durable frontiers, derived from component flush
      provenance.  Same WAL-before-data and re-anchor discipline as
      {!flush}.  Requires quiescence. *)

  val checkpoint : t -> unit
  (** Durably flush bitmap pages ("regular checkpointing", Sec. 5.2). *)

  val crash : t -> unit
  (** Simulate failure: memory components vanish; bitmaps revert to the
      last checkpoint. *)

  val recover : t -> unit
  (** Replay committed work: bitmap redo past the checkpoint LSN, then
      structural realignment of the correlated primary pair (redo an
      interrupted lockstep pk-index merge; roll an orphaned primary flush
      back to the aligned cut), then memory redo past each (tree, shard)'s
      own durable frontier.  Discards a torn trailing WAL record first.
      No undo is ever needed. *)
end
