(** Write-ahead logging for mutable bitmaps (Sec. 5.2): each delete/upsert
    record carries an *update bit* saying whether the operation flipped a
    validity bit in a disk component (and which one).  Aborts unset the
    bits a transaction flipped; recovery replays committed
    post-checkpoint records.  The log is generic in its payload: the
    storage owner decides what one redo record holds. *)

type 'a record = { lsn : int; txn : int; payload : 'a }

type txn_state = Active | Committed | Aborted

type sync_stats = {
  mutable fsyncs : int;  (** simulated log fsyncs issued *)
  mutable fsync_time_us : float;  (** total simulated time inside them *)
  mutable groups_sealed : int;  (** commit groups made durable together *)
  mutable durable_commits : int;  (** commits whose record reached media *)
}

type 'a t
(** A log whose records carry ['a] payloads. *)

val create : unit -> 'a t

val set_tracer : 'a t -> Lsm_obs.Tracer.t -> unit
(** Attach the storage environment's tracer so WAL spans share the
    simulated clock. *)

val set_sync_hooks :
  'a t ->
  fsync_us:float ->
  charge:(float -> unit) ->
  fault:(Lsm_sim.Fault_point.t -> unit) ->
  unit
(** Attach the owning environment's cost model and fault machinery:
    [charge] advances the simulated clock by [fsync_us] per log fsync,
    and [fault] announces the [wal.group.*] crash windows. *)

val sync_stats : 'a t -> sync_stats

val begin_txn : 'a t -> int
(** Open a transaction; returns its id. *)

val log : 'a t -> txn:int -> 'a -> int
(** Append a record carrying the payload; returns its LSN. *)

val commit : 'a t -> txn:int -> unit
(** Mark the transaction committed.  Serial mode (batch <= 1) fsyncs the
    commit record immediately; group-commit mode enqueues it into the
    open group, sealing and fsyncing the group — ONE simulated fsync for
    the whole batch — when it reaches the batch size. *)

val abort : 'a t -> txn:int -> unit
val txn_state : 'a t -> txn:int -> txn_state option

(** {1 Group commit (batched durability)}

    Commits enqueue into a group; one simulated fsync per group makes
    every member durable at once, amortizing the log-force cost across
    the batch.  The durable frontier advances per group: a transaction
    can be logically committed yet not durable, and a crash demotes such
    transactions (torn group tail).  Three fault points —
    [wal.group.seal], [wal.group.fsync], [wal.group.ack] — bracket the
    durability transition so the crash checker can enumerate every torn
    and half-acknowledged group state. *)

val set_group_commit : 'a t -> batch:int -> unit
(** Switch to batched group commit ([batch] >= 2) or back to serial
    ([batch] <= 1).  Syncs any open group first. *)

val group_commit_batch : 'a t -> int

val sync : 'a t -> unit
(** Group-commit barrier: seal and fsync the open group.  Must run
    before anything that assumes the log is durable (component flushes,
    checkpoint anchoring). *)

val pending_group : 'a t -> int list
(** Transactions committed but not yet durable, oldest first. *)

val txn_durable : 'a t -> txn:int -> bool
(** Committed AND the commit record reached media — the authority that
    recovery and the crash checker consult. *)

val crash : 'a t -> int list
(** Apply a crash to commit durability: demote the open group's
    transactions (commit records never fsynced — a torn group tail) to
    aborted.  Returns the demoted ids, oldest first. *)

(** {1 Torn tails}

    A crash can interrupt the append of the newest record, leaving a
    partial record on media whose checksum would not verify.  {!tear_tail}
    simulates that; [Lsm_core.Txn_dataset.recover] discards the torn record
    (truncate-at-first-bad-record) before replaying. *)

val tear_tail : 'a t -> unit
(** Mark the newest record as torn (no-op on an empty log). *)

val torn_tail : 'a t -> int option
(** LSN of the torn trailing record, if any. *)

val discard_torn_tail : 'a t -> 'a record option
(** Drop the torn trailing record and return it.  A torn record implies
    its transaction never wrote a commit record after it, so callers must
    treat that transaction as uncommitted. *)

val checkpoint : 'a t -> unit
(** Record that all bitmap pages dirtied so far have been flushed. *)

val checkpoint_lsn : 'a t -> int

val records_after : 'a t -> lsn:int -> 'a record list
(** Records with LSN > [lsn], oldest first — the replay stream. *)

val length : 'a t -> int
