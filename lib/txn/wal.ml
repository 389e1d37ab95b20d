(** Write-ahead logging for mutable bitmaps (Sec. 5.2).

    The paper unifies bitmap recovery with the LSM no-steal/no-force
    scheme: each delete/upsert log record carries an *update bit* saying
    whether the operation flipped a validity bit in a disk component.  On
    abort, a record with the update bit performs a primary-key-index
    lookup to unset the bit; on crash recovery, committed transactions
    after the last checkpoint are replayed onto the bitmaps (only records
    with the update bit matter to bitmaps).

    The log is generic in its payload: the owner of the storage (see
    [Lsm_core.Txn_dataset]) logs one redo record per operation, and this
    module keeps LSNs, transaction states, commit durability, the torn
    tail and the checkpoint LSN around it. *)

type 'a record = { lsn : int; txn : int; payload : 'a }

type txn_state = Active | Committed | Aborted

type sync_stats = {
  mutable fsyncs : int;  (** simulated log fsyncs issued *)
  mutable fsync_time_us : float;  (** total simulated time inside them *)
  mutable groups_sealed : int;  (** commit groups made durable together *)
  mutable durable_commits : int;  (** commits whose record reached media *)
}

type 'a t = {
  mutable records : 'a record list;  (** newest first *)
  mutable next_lsn : int;
  mutable checkpoint_lsn : int;
  txns : (int, txn_state) Hashtbl.t;
  mutable next_txn : int;
  mutable torn_lsn : int option;
      (** LSN of a trailing record whose append a crash interrupted; the
          record exists in [records] but must be treated as never written *)
  mutable tracer : Lsm_obs.Tracer.t;
      (** span tracer for appends; disabled by default.  The
          caller that owns the storage environment attaches the
          environment's tracer so WAL spans share the simulated clock. *)
  mutable group_size : int;
      (** commits per group-commit batch; <= 1 = serial (fsync per commit) *)
  mutable group : int list;
      (** open group: transactions whose commit records are written but not
          yet fsynced (logically committed, not durable), newest first *)
  durable : (int, unit) Hashtbl.t;
      (** transactions whose commit record has been fsynced to media *)
  mutable fsync_us : float;  (** simulated cost of one log fsync *)
  mutable charge : float -> unit;
      (** clock hook: charges fsync time to the owning environment *)
  mutable fault : Lsm_sim.Fault_point.t -> unit;
      (** fault-point hook: announces the group-commit crash windows
          ([wal.group.seal] / [wal.group.fsync] / [wal.group.ack]) to the
          owning environment's fault-injection machinery *)
  sync_stats : sync_stats;
}

let create () =
  {
    records = [];
    next_lsn = 1;
    checkpoint_lsn = 0;
    txns = Hashtbl.create 64;
    next_txn = 1;
    torn_lsn = None;
    tracer = Lsm_obs.Tracer.disabled;
    group_size = 1;
    group = [];
    durable = Hashtbl.create 64;
    fsync_us = 0.0;
    charge = (fun _ -> ());
    fault = (fun _ -> ());
    sync_stats =
      { fsyncs = 0; fsync_time_us = 0.0; groups_sealed = 0; durable_commits = 0 };
  }

(** [set_tracer t tr] attaches a span tracer (see {!type:t}). *)
let set_tracer t tr = t.tracer <- tr

(** [set_sync_hooks t ~fsync_us ~charge ~fault] attaches the owning
    environment's cost model and fault-injection machinery: [charge]
    advances the simulated clock by the time of each log fsync
    ([fsync_us]), and [fault] announces the group-commit crash windows. *)
let set_sync_hooks t ~fsync_us ~charge ~fault =
  t.fsync_us <- fsync_us;
  t.charge <- charge;
  t.fault <- fault

let sync_stats t = t.sync_stats

(** [begin_txn t] opens a transaction and returns its id. *)
let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  Hashtbl.replace t.txns id Active;
  id

(** [log t ~txn payload] appends a record and returns its LSN. *)
let log t ~txn payload =
  Lsm_obs.Tracer.with_span t.tracer ~cat:"wal" "wal.append" @@ fun () ->
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  t.records <- { lsn; txn; payload } :: t.records;
  lsn

let charge_fsync t =
  t.charge t.fsync_us;
  t.sync_stats.fsyncs <- t.sync_stats.fsyncs + 1;
  t.sync_stats.fsync_time_us <- t.sync_stats.fsync_time_us +. t.fsync_us

let mark_durable t txn =
  Hashtbl.replace t.durable txn ();
  t.sync_stats.durable_commits <- t.sync_stats.durable_commits + 1

(* Make the open group durable with ONE fsync — the amortization group
   commit exists for.  Three crash windows, announced in order:
   - [wal.group.seal]: the group is sealed (no further commits join it)
     but nothing has reached media — a crash here tears the whole group;
   - [wal.group.fsync]: the fsync was issued (and its time charged) but
     the durable frontier has not advanced — recovery still treats the
     group's commit records as a torn tail;
   - [wal.group.ack]: the group is durable but its committers were never
     acknowledged — recovery MUST surface these transactions as
     committed even though no client heard back. *)
let fsync_group t =
  match t.group with
  | [] -> ()
  | g ->
      t.fault Wal_group_seal;
      charge_fsync t;
      t.fault Wal_group_fsync;
      List.iter (fun txn -> mark_durable t txn) (List.rev g);
      t.sync_stats.groups_sealed <- t.sync_stats.groups_sealed + 1;
      t.group <- [];
      t.fault Wal_group_ack

(** [sync t] is the group-commit barrier: seal and fsync the open group,
    if any.  Callers must issue it before any action that assumes the log
    is durable — flushing memory components (WAL-before-data) or
    anchoring a checkpoint. *)
let sync t = fsync_group t

(** [set_group_commit t ~batch] switches commit durability to batched
    group commit ([batch] >= 2) or back to serial ([batch] <= 1; the
    default).  Any open group is synced first, so the switch never
    strands enqueued commits. *)
let set_group_commit t ~batch =
  fsync_group t;
  t.group_size <- max 1 batch

let group_commit_batch t = t.group_size
let pending_group t = List.rev t.group

let commit t ~txn =
  Hashtbl.replace t.txns txn Committed;
  if t.group_size <= 1 then begin
    (* Serial: every commit record pays its own fsync. *)
    charge_fsync t;
    mark_durable t txn
  end
  else begin
    t.group <- txn :: t.group;
    if List.length t.group >= t.group_size then fsync_group t
  end

let abort t ~txn = Hashtbl.replace t.txns txn Aborted
let txn_state t ~txn = Hashtbl.find_opt t.txns txn

(** [txn_durable t ~txn]: the transaction committed AND its commit record
    reached media.  Under group commit the two are distinct — a logically
    committed transaction in the open group is not durable, and a crash
    demotes it (see {!crash}).  This is the authority recovery and the
    crash checker consult. *)
let txn_durable t ~txn =
  Hashtbl.find_opt t.txns txn = Some Committed && Hashtbl.mem t.durable txn

(** [crash t] applies a crash's effect to commit durability: every
    transaction in the open (never-fsynced) group is a torn group tail —
    its commit record never reached media — and is demoted to aborted.
    Returns the demoted transaction ids, oldest first. *)
let crash t =
  let demoted = List.rev t.group in
  List.iter (fun txn -> Hashtbl.replace t.txns txn Aborted) demoted;
  t.group <- [];
  demoted

(** [tear_tail t] simulates a crash in the middle of appending the newest
    record: the record occupies log space but is incomplete (on real media,
    its trailing checksum would not verify).  Recovery must ignore it —
    see {!discard_torn_tail}.  No-op on an empty log. *)
let tear_tail t =
  match t.records with [] -> () | r :: _ -> t.torn_lsn <- Some r.lsn

(** [torn_tail t] is the LSN of the torn trailing record, if any. *)
let torn_tail t = t.torn_lsn

(** [discard_torn_tail t] drops the torn trailing record, as a real log
    scan would on a checksum mismatch (truncate-at-first-bad-record).
    Returns the discarded record.  A torn record implies its transaction
    never wrote a commit record after it, so the caller must treat that
    transaction as uncommitted. *)
let discard_torn_tail t =
  match t.torn_lsn with
  | None -> None
  | Some lsn ->
      t.torn_lsn <- None;
      (match t.records with
      | r :: rest when r.lsn = lsn ->
          t.records <- rest;
          Some r
      | _ -> None)

(** [checkpoint t] records that all bitmap pages dirtied by records up to
    this point have been flushed (regular checkpointing, Sec. 5.2). *)
let checkpoint t = t.checkpoint_lsn <- t.next_lsn - 1

let checkpoint_lsn t = t.checkpoint_lsn

(** [records_after t ~lsn] returns records with LSN > [lsn], oldest
    first — the replay stream. *)
let records_after t ~lsn =
  List.rev (List.filter (fun r -> r.lsn > lsn) t.records)

let length t = List.length t.records
