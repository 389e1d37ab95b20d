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
    tail and the checkpoint LSN around it.

    Memory tracks the undurable tail, not the run.  Records sit oldest
    first in three flat columns (LSN, transaction id, payload) between a
    head and a tail offset; {!truncate} advances the head past the oldest
    records that are at or below the checkpoint LSN and that the owner
    declares settled (their writes are on disk in every tree, so no
    recovery can replay them).  Transaction states are one byte per
    transaction id.  {!length} still counts every record appended (less
    torn discards): it is the size of the log on media, which recovery's
    modeled log scan reads back; {!retained} is what memory holds. *)

type 'a record = { lsn : int; txn : int; payload : 'a }

type txn_state = Active | Committed | Aborted

type sync_stats = {
  mutable fsyncs : int;  (** simulated log fsyncs issued *)
  mutable fsync_time_us : float;  (** total simulated time inside them *)
  mutable groups_sealed : int;  (** commit groups made durable together *)
  mutable durable_commits : int;  (** commits whose record reached media *)
}

type 'a t = {
  mutable lsns : int array;
  mutable txn_ids : int array;
  mutable payloads : 'a array;
      (** the record columns, oldest first in [[head, tail)]; each
          truncation points every payload slot outside that range at the
          newest payload, so the records it drops become garbage *)
  mutable head : int;
  mutable tail : int;
  mutable length : int;  (** records appended, less torn discards *)
  mutable next_lsn : int;
  mutable checkpoint_lsn : int;
  mutable cut_lsn : int;  (** LSN of the newest record truncation dropped *)
  mutable states : Bytes.t;
      (** byte [id - 1] is transaction [id]'s state code, plus
          {!durable_bit} once its commit record reached media *)
  mutable next_txn : int;
  mutable torn_lsn : int option;
      (** LSN of a trailing record whose append a crash interrupted; the
          record is still retained but must be treated as never written *)
  env : Lsm_sim.Env.t;
      (** the owning storage environment: appends and fsyncs run as its
          spans, fsyncs charge its clock, and the group-commit crash
          windows are its fault points *)
  mutable group_size : int;
      (** commits per group-commit batch; <= 1 = serial (fsync per commit) *)
  mutable group : int list;
      (** open group: transactions whose commit records are written but not
          yet fsynced (logically committed, not durable), newest first *)
  mutable group_count : int;  (** [List.length group] *)
  sync_stats : sync_stats;
}

(* State codes; 0 is a transaction id never begun. *)
let active = 1
let committed = 2
let aborted = 3
let state_mask = 3
let durable_bit = 4

let create env =
  {
    lsns = [||];
    txn_ids = [||];
    payloads = [||];
    head = 0;
    tail = 0;
    length = 0;
    next_lsn = 1;
    checkpoint_lsn = 0;
    cut_lsn = 0;
    states = Bytes.make 64 '\000';
    next_txn = 1;
    torn_lsn = None;
    env;
    group_size = 1;
    group = [];
    group_count = 0;
    sync_stats =
      { fsyncs = 0; fsync_time_us = 0.0; groups_sealed = 0; durable_commits = 0 };
  }

let sync_stats t = t.sync_stats

(* ------------------------------------------------------------------ *)
(* Transaction states *)

let code t txn =
  if txn < 1 || txn > Bytes.length t.states then 0
  else Char.code (Bytes.unsafe_get t.states (txn - 1))

let set_code t txn c =
  let n = Bytes.length t.states in
  if txn > n then begin
    let grown = Bytes.make (max (2 * n) txn) '\000' in
    Bytes.blit t.states 0 grown 0 n;
    t.states <- grown
  end;
  Bytes.set t.states (txn - 1) (Char.unsafe_chr c)

(* A state change keeps the durable bit, as a separate durable set would. *)
let set_state t txn s = set_code t txn (code t txn land durable_bit lor s)

(** [begin_txn t] opens a transaction and returns its id. *)
let begin_txn t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  set_state t id active;
  id

(* ------------------------------------------------------------------ *)
(* The record columns *)

(* Make room for one more record at [tail]: slide the live records to the
   front when at most half the columns hold them, else double. *)
let make_room t payload =
  let cap = Array.length t.lsns in
  if t.tail = cap then begin
    let live = t.tail - t.head in
    if cap > 0 && 2 * live <= cap then begin
      Array.blit t.lsns t.head t.lsns 0 live;
      Array.blit t.txn_ids t.head t.txn_ids 0 live;
      Array.blit t.payloads t.head t.payloads 0 live
    end
    else begin
      let cap' = max 64 (2 * cap) in
      let lsns = Array.make cap' 0 and txn_ids = Array.make cap' 0 in
      let payloads = Array.make cap' payload in
      Array.blit t.lsns t.head lsns 0 live;
      Array.blit t.txn_ids t.head txn_ids 0 live;
      Array.blit t.payloads t.head payloads 0 live;
      t.lsns <- lsns;
      t.txn_ids <- txn_ids;
      t.payloads <- payloads
    end;
    t.head <- 0;
    t.tail <- live
  end

(** [log t ~txn payload] appends a record and returns its LSN. *)
let log t ~txn payload =
  Lsm_sim.Env.span t.env ~cat:"wal" "wal.append" @@ fun () ->
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  make_room t payload;
  let i = t.tail in
  t.lsns.(i) <- lsn;
  t.txn_ids.(i) <- txn;
  t.payloads.(i) <- payload;
  t.tail <- i + 1;
  t.length <- t.length + 1;
  lsn

(* ------------------------------------------------------------------ *)
(* Commit durability *)

(* Forcing the log is one positioning plus one page write on the
   environment's device; group commit exists to amortize exactly this. *)
let charge_fsync t =
  Lsm_sim.Env.span t.env ~cat:"wal" "wal.fsync" @@ fun () ->
  let dev = Lsm_sim.Env.device t.env in
  let us = dev.Lsm_sim.Device.seek_us +. dev.Lsm_sim.Device.write_us_per_page in
  Lsm_sim.Env.advance t.env us;
  t.sync_stats.fsyncs <- t.sync_stats.fsyncs + 1;
  t.sync_stats.fsync_time_us <- t.sync_stats.fsync_time_us +. us

let mark_durable t txn =
  set_code t txn (code t txn lor durable_bit);
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
      Lsm_sim.Env.fault_point t.env Wal_group_seal;
      charge_fsync t;
      Lsm_sim.Env.fault_point t.env Wal_group_fsync;
      List.iter (fun txn -> mark_durable t txn) (List.rev g);
      t.sync_stats.groups_sealed <- t.sync_stats.groups_sealed + 1;
      t.group <- [];
      t.group_count <- 0;
      Lsm_sim.Env.fault_point t.env Wal_group_ack

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
  set_state t txn committed;
  if t.group_size <= 1 then begin
    (* Serial: every commit record pays its own fsync. *)
    charge_fsync t;
    mark_durable t txn
  end
  else begin
    t.group <- txn :: t.group;
    t.group_count <- t.group_count + 1;
    if t.group_count >= t.group_size then fsync_group t
  end

let abort t ~txn = set_state t txn aborted

let txn_state t ~txn =
  match code t txn land state_mask with
  | 1 -> Some Active
  | 2 -> Some Committed
  | 3 -> Some Aborted
  | _ -> None

(** [txn_durable t ~txn]: the transaction committed AND its commit record
    reached media.  Under group commit the two are distinct — a logically
    committed transaction in the open group is not durable, and a crash
    demotes it (see {!crash}).  This is the authority recovery and the
    crash checker consult. *)
let txn_durable t ~txn = code t txn = committed lor durable_bit

(** [crash t] applies a crash's effect to commit durability: every
    transaction in the open (never-fsynced) group is a torn group tail —
    its commit record never reached media — and is demoted to aborted.
    Returns the demoted transaction ids, oldest first. *)
let crash t =
  let demoted = List.rev t.group in
  List.iter (fun txn -> set_state t txn aborted) demoted;
  t.group <- [];
  t.group_count <- 0;
  demoted

(* ------------------------------------------------------------------ *)
(* Torn tails *)

(** [tear_tail t] simulates a crash in the middle of appending the newest
    record: the record occupies log space but is incomplete (on real media,
    its trailing checksum would not verify).  Recovery must ignore it —
    see {!discard_torn_tail}.  No-op when no record is retained. *)
let tear_tail t = if t.tail > t.head then t.torn_lsn <- Some t.lsns.(t.tail - 1)

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
      let i = t.tail - 1 in
      if i >= t.head && t.lsns.(i) = lsn then begin
        let r = { lsn; txn = t.txn_ids.(i); payload = t.payloads.(i) } in
        t.tail <- i;
        t.length <- t.length - 1;
        Some r
      end
      else None

(* ------------------------------------------------------------------ *)
(* Checkpoints, truncation, replay *)

(** [checkpoint t] records that all bitmap pages dirtied by records up to
    this point have been flushed (regular checkpointing, Sec. 5.2). *)
let checkpoint t = t.checkpoint_lsn <- t.next_lsn - 1

let checkpoint_lsn t = t.checkpoint_lsn

(** [truncate t ~settled] drops the oldest records while each is at or
    below the checkpoint LSN (bitmap redo starts after it) and [settled]
    holds for its payload (memory redo would skip it).  The owner must
    only call it when no recovery can replay such a record again. *)
let truncate t ~settled =
  let i = ref t.head in
  while
    !i < t.tail && t.lsns.(!i) <= t.checkpoint_lsn && settled t.payloads.(!i)
  do
    incr i
  done;
  if !i > t.head then begin
    let newest = t.payloads.(t.tail - 1) and cap = Array.length t.payloads in
    t.cut_lsn <- t.lsns.(!i - 1);
    Array.fill t.payloads 0 !i newest;
    Array.fill t.payloads t.tail (cap - t.tail) newest;
    if !i = t.tail then begin
      t.head <- 0;
      t.tail <- 0
    end
    else t.head <- !i
  end

(** [iter_after t ~lsn f] calls [f ~txn payload] for each retained record
    with LSN > [lsn], oldest first — the replay stream. *)
let iter_after t ~lsn f =
  for i = t.head to t.tail - 1 do
    if t.lsns.(i) > lsn then f ~txn:t.txn_ids.(i) t.payloads.(i)
  done

let length t = t.length
let retained t = t.tail - t.head

(** [check t] verifies the log's structure: retained LSNs strictly
    increase and lie above the last truncation cut, and no more records
    are retained than were appended. *)
let check t =
  let bad = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !bad = None then bad := Some s) fmt in
  if retained t > t.length then
    fail "wal: %d records retained, %d appended" (retained t) t.length;
  for i = t.head to t.tail - 1 do
    if t.lsns.(i) <= t.cut_lsn then
      fail "wal: retained LSN %d at or below the cut %d" t.lsns.(i) t.cut_lsn;
    if i > t.head && t.lsns.(i) <= t.lsns.(i - 1) then
      fail "wal: LSN %d follows %d" t.lsns.(i) t.lsns.(i - 1)
  done;
  match !bad with None -> Ok () | Some s -> Error s
