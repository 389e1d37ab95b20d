(** Record-level transactions over a Mutable-bitmap dataset, with
    write-ahead logging, aborts, checkpoints, and crash recovery —
    Sec. 5.2's protocol, end to end:

    - every delete/upsert log record carries an *update bit* saying whether
      the operation flipped a validity bit in a disk component (and which
      one);
    - {b abort} applies inverse operations: memory-component writes are
      rolled back logically, and if the update bit is set, a primary-key
      index lookup locates the bit to unset (1 -> 0 — the only time bits
      are cleared);
    - no-steal / no-force: disk components hold only committed data;
      bitmap pages dirtied by live transactions are held back until
      {!checkpoint} flushes them;
    - {b crash} loses memory components and post-checkpoint bitmap flips;
      {b recover} replays committed transactions — memory redo from each
      tree's maximum component timestamp (the paper's "maximum component
      LSN", per index), bitmap redo from the checkpoint LSN.  No undo is
      ever needed.

    The WAL is the one log: each operation appends one {!redo} record
    (the op, its timestamp, its update bit) and recovery replays
    [Wal.records_after], memory redo from LSN 0 and bitmap redo from
    [Wal.checkpoint_lsn].  Only the undo information — the memory
    bindings an operation replaced — lives on the transaction handle, so
    it is dropped with the handle when the transaction ends.

    Crashes need not land between operations: a crash may interrupt a
    multi-tree flush or a correlated merge halfway (see [lib/faultsim]).
    Recovery therefore (1) replays bitmap updates onto the surviving
    pre-crash components, (2) realigns the correlated primary /
    primary-key pair — redoing an interrupted lockstep pk-index merge, or
    rolling an orphaned primary flush back to the aligned cut (its
    entries are still in the WAL) — and (3) redoes memory per tree, gated
    on that tree's own durable frontier.

    Restrictions (documented, asserted): flushes and merges must happen at
    transaction-quiescent points, and recovery applies to the component
    layout as of the crash (components are durable via shadowing). *)

module Entry = Lsm_tree.Entry
module Wal = Lsm_txn.Wal

module Make (R : Record.S) (D : module type of Dataset.Make (R)) = struct
  type op = Op_upsert of R.t | Op_delete of int

  (* One WAL payload: everything recovery needs to redo an operation. *)
  type redo = {
    op : op;
    ts : int;  (** ingestion timestamp consumed by the operation *)
    update : (int * int) option;  (** update bit: (component seq, position) *)
  }

  (* What an abort needs to undo one operation: its redo record and the
     memory bindings it replaced. *)
  type undo = {
    redo : redo;
    prior_prim : (int * R.t Entry.t) option;
    prior_pk : (int * unit Entry.t) option;
    prior_sec : (string * int * (int * unit Entry.t) option) list;
        (** per secondary: (name, secondary key, replaced binding) *)
  }

  type txn = { id : int; mutable undo : undo list (* newest first *) }

  type t = {
    d : D.t;
    wal : redo Wal.t;
    mutable checkpoint_bitmaps : (int * Lsm_util.Bitset.t) list;
        (** durable bitmap pages as of [Wal.checkpoint_lsn], keyed by
            pk-index component seq *)
    mutable live_txns : int;
  }

  let create d =
    (match D.strategy d with
    | Strategy.Mutable_bitmap _ | Strategy.Validation _ -> ()
    | _ ->
        invalid_arg
          "Txn_dataset.create: requires the Mutable-bitmap or Validation \
           strategy (Eager's read-modify-write path needs old-record \
           logging this layer does not provide)");
    D.set_auto_maintenance d false;
    let wal = Wal.create () in
    (* WAL spans share the dataset environment's simulated clock. *)
    let env = D.env d in
    Wal.set_tracer wal (Lsm_sim.Env.tracer env);
    (* Forcing the log is one positioning plus one page write on the
       dataset's device; group commit exists to amortize exactly this. *)
    let dev = Lsm_sim.Env.device env in
    Wal.set_sync_hooks wal
      ~fsync_us:
        (dev.Lsm_sim.Device.seek_us +. dev.Lsm_sim.Device.write_us_per_page)
      ~charge:(fun us -> Lsm_sim.Env.advance env us)
      ~fault:(Lsm_sim.Env.fault_point env);
    { d; wal; checkpoint_bitmaps = []; live_txns = 0 }

  let dataset t = t.d
  let wal t = t.wal

  (** [set_group_commit t ~batch] turns on batched group commit in the
      WAL: commits enqueue into a group and one simulated fsync makes the
      whole group durable (Sec. 2.3-style write-path batching).  [batch]
      <= 1 restores serial commit durability. *)
  let set_group_commit t ~batch = Wal.set_group_commit t.wal ~batch

  let group_commit_batch t = Wal.group_commit_batch t.wal

  let pk_index t = Option.get (D.pk_index t.d)

  (* ------------------------------------------------------------------ *)
  (* The write path (Mutable-bitmap ingestion, Sec. 5.2) with capture of
     everything an abort needs. *)

  let capture_prim t pk =
    match D.Prim.mem_find (D.primary t.d) pk with
    | Some r -> Some (r.D.Prim.ts, r.D.Prim.value)
    | None -> None

  let capture_pk t pk =
    match D.Pk.mem_find (pk_index t) pk with
    | Some r -> Some (r.D.Pk.ts, r.D.Pk.value)
    | None -> None

  let capture_sec t pk r_opt =
    match r_opt with
    | None -> []
    | Some r ->
        List.concat_map
          (fun s ->
            List.map
              (fun sk ->
                let prior =
                  match D.Sec.mem_find s.D.tree (sk, pk) with
                  | Some row -> Some (row.D.Sec.ts, row.D.Sec.value)
                  | None -> None
                in
                (s.D.sec_name, sk, prior))
              (s.D.extract_all r))
          (Array.to_list (D.secondaries t.d))

  let apply t txn op =
    let d = t.d in
    (* Crash here: nothing logged, nothing written — the op vanishes. *)
    Lsm_sim.Env.fault_point (D.env d) Txn_op_begin;
    let pk, r_opt =
      match op with
      | Op_upsert r -> (R.primary_key r, Some r)
      | Op_delete pk -> (pk, None)
    in
    let prior_prim = capture_prim t pk in
    let prior_pk = capture_pk t pk in
    let prior_sec = capture_sec t pk r_opt in
    let ts = D.next_timestamp d in
    (* Only the Mutable-bitmap strategy flips validity bits at write time;
       Validation datasets write new entries only (Sec. 4.2). *)
    let update =
      if Strategy.uses_primary_bitmap (D.strategy d) then D.mark_old_deleted d pk
      else None
    in
    (match op with
    | Op_upsert r -> D.write_new_record d r ~ts
    | Op_delete pk -> D.write_delete d pk ~ts);
    let redo = { op; ts; update } in
    ignore (Wal.log t.wal ~txn:txn.id redo);
    txn.undo <- { redo; prior_prim; prior_pk; prior_sec } :: txn.undo;
    (* Crash here: the op's WAL record exists but its transaction has not
       committed — recovery must make the op invisible. *)
    Lsm_sim.Env.fault_point (D.env d) Txn_op_logged

  (* ------------------------------------------------------------------ *)
  (* Transactions *)

  let begin_txn t =
    t.live_txns <- t.live_txns + 1;
    { id = Wal.begin_txn t.wal; undo = [] }

  let txn_id (txn : txn) = txn.id

  let upsert t txn r = apply t txn (Op_upsert r)
  let delete t txn ~pk = apply t txn (Op_delete pk)

  let commit t txn =
    (* Crash before the commit record is durable: the transaction aborts. *)
    Lsm_sim.Env.fault_point (D.env t.d) Txn_commit_pre;
    Wal.commit t.wal ~txn:txn.id;
    t.live_txns <- t.live_txns - 1;
    (* Crash after: the transaction is committed and must survive even
       though [commit] never returned to the caller. *)
    Lsm_sim.Env.fault_point (D.env t.d) Txn_commit_durable

  (** [abort t txn] applies inverse operations in reverse order: restore
      memory bindings, unset update bits. *)
  let abort t txn =
    Lsm_sim.Env.span (D.env t.d) ~cat:"txn" "txn.abort" @@ fun () ->
    let d = t.d in
    let pkt = pk_index t in
    List.iter
      (fun u ->
        let pk =
          match u.redo.op with Op_upsert r -> R.primary_key r | Op_delete pk -> pk
        in
        D.Prim.mem_rollback (D.primary d) ~key:pk ~prior:u.prior_prim;
        D.Pk.mem_rollback pkt ~key:pk ~prior:u.prior_pk;
        List.iter
          (fun (name, sk, prior) ->
            let s = D.secondary d name in
            D.Sec.mem_rollback s.D.tree ~key:(sk, pk) ~prior)
          u.prior_sec;
        (match u.redo.update with
        | Some (comp_seq, pos) ->
            (* "perform a primary key index lookup (without bitmaps) to
               unset the bit": locate the component by its id. *)
            Array.iter
              (fun c ->
                if c.D.Pk.seq = comp_seq then D.Pk.revalidate c pos)
              (D.Pk.components pkt)
        | None -> ()))
      txn.undo (* newest first = reverse chronological *);
    Wal.abort t.wal ~txn:txn.id;
    t.live_txns <- t.live_txns - 1

  (** [with_txn t f] runs [f] in a fresh transaction and commits. *)
  let with_txn t f =
    let txn = begin_txn t in
    let r = f txn in
    commit t txn;
    r

  (* Convenience auto-commit single-op entry points. *)
  let upsert_auto t r = with_txn t (fun txn -> upsert t txn r)
  let delete_auto t ~pk = with_txn t (fun txn -> delete t txn ~pk)

  (* ------------------------------------------------------------------ *)
  (* Durability: flush, checkpoint, crash, recovery *)

  let assert_quiescent t what =
    if t.live_txns > 0 then
      invalid_arg (Printf.sprintf "Txn_dataset.%s: live transactions" what)

  let snapshot_bitmaps t =
    Array.to_list
      (Array.map
         (fun c ->
           ( c.D.Pk.seq,
             match c.D.Pk.bitmap with
             | Some b -> Lsm_util.Bitset.copy b
             | None -> Lsm_util.Bitset.create (D.Pk.component_rows c) ))
         (D.Pk.components (pk_index t)))

  (* A checkpoint has two durable effects: the bitmap-page snapshot and
     the checkpoint LSN.  The snapshot must become durable *first*: a
     crash in between then leaves (new snapshot, old LSN), and replaying
     from the old LSN merely re-sets bits the snapshot already has —
     idempotent.  The opposite order loses every bit flipped between the
     two LSNs: restore yields the old snapshot, but replay starts after
     the new LSN.  The [txn.ckpt.mid] fault point exists to keep this
     ordering honest. *)
  let anchor_checkpoint t =
    Lsm_sim.Env.fault_point (D.env t.d) Txn_ckpt_begin;
    t.checkpoint_bitmaps <- snapshot_bitmaps t;
    Lsm_sim.Env.fault_point (D.env t.d) Txn_ckpt_mid;
    Wal.checkpoint t.wal;
    Lsm_sim.Env.fault_point (D.env t.d) Txn_ckpt_end

  (** [flush t] makes all memory components durable (and runs merges);
      redo for operations up to this point is no longer needed.  Requires
      quiescence. *)
  let flush t =
    assert_quiescent t "flush";
    (* WAL-before-data: an open commit group must reach media before any
       memory component does.  Otherwise a flush could advance a tree's
       durable frontier past operations whose commit record is still
       volatile — after a crash the data would be durable but the commit
       undecided, and recovery would surface uncommitted writes. *)
    Wal.sync t.wal;
    D.flush_now t.d;
    (* Flushes/merges rewrite components; the checkpointed bitmap state is
       superseded (components are durable via shadowing), so checkpoint
       now to re-anchor.  A crash before the re-anchor is safe: restore
       gives unknown (post-merge) components all-valid bitmaps — correct,
       because the merge physically applied their bits — and replayed
       update records that target merged-away seqs are no-ops. *)
    Lsm_sim.Env.fault_point (D.env t.d) Txn_flush_anchor;
    anchor_checkpoint t

  (** [flush_shard t s] makes memory shard [s] of every tree durable (and
      runs merges) while the sibling shards keep their contents; redo for
      operations routed to shard [s] up to this point is no longer needed
      (recovery gates redo on per-shard durable frontiers).  Same
      WAL-before-data and re-anchor discipline as {!flush}.  Requires
      quiescence. *)
  let flush_shard t s =
    assert_quiescent t "flush_shard";
    Wal.sync t.wal;
    D.flush_shard_now t.d s;
    Lsm_sim.Env.fault_point (D.env t.d) Txn_flush_anchor;
    anchor_checkpoint t

  (** [checkpoint t] durably flushes the bitmap pages (Sec. 5.2: "regular
      checkpointing can be performed to flush dirty pages of bitmaps").
      Requires quiescence (pinned pages of live transactions may not be
      flushed under no-steal). *)
  let checkpoint t =
    Lsm_sim.Env.span (D.env t.d) ~cat:"txn" "txn.checkpoint" @@ fun () ->
    assert_quiescent t "checkpoint";
    (* The checkpoint LSN asserts every record below it is settled; an
       open commit group would violate that, so force it out first. *)
    Wal.sync t.wal;
    anchor_checkpoint t

  (** [crash t] simulates failure: memory components vanish; bitmaps
      revert to the last checkpoint.  (Disk components are durable.) *)
  let crash t =
    (* Torn group tail: commits enqueued in the WAL's open group never
       reached media — the crash demotes them to aborted, so recovery's
       committed-transaction predicate (and the crash checker's durable
       authority) exclude them. *)
    ignore (Wal.crash t.wal);
    D.Prim.reset_memory (D.primary t.d);
    D.Pk.reset_memory (pk_index t);
    Array.iter (fun s -> D.Sec.reset_memory s.D.tree) (D.secondaries t.d);
    (* Validity bitmaps exist only under the Mutable-bitmap strategy;
       a Validation pair is not lockstep-aligned, so sharing a pk-index
       bitmap onto a primary component there would mismatch its rows. *)
    if Strategy.uses_primary_bitmap (D.strategy t.d) then begin
      let pkt = pk_index t in
      Array.iter
        (fun c ->
          match List.assoc_opt c.D.Pk.seq t.checkpoint_bitmaps with
          | Some snap -> c.D.Pk.bitmap <- Some (Lsm_util.Bitset.copy snap)
          | None ->
              c.D.Pk.bitmap <-
                Some (Lsm_util.Bitset.create (D.Pk.component_rows c)))
        (D.Pk.components pkt);
      (* Re-share bitmaps with the primary components (aligned layouts). *)
      let pcs = D.Prim.components (D.primary t.d) in
      let kcs = D.Pk.components pkt in
      if Array.length pcs = Array.length kcs then
        Array.iteri (fun i p -> p.D.Prim.bitmap <- kcs.(i).D.Pk.bitmap) pcs
    end;
    t.live_txns <- 0

  (* The durable frontier of one tree, per memory shard: the maximum
     entry timestamp the surviving disk components cover *for that
     shard's key slice*.  Timestamps are handed out monotonically at
     write time and a key always routes to the same shard, so every
     committed write at or below its shard's frontier was in that shard's
     memory at — and therefore included in — some flush; everything above
     it needs memory redo.  Unlike a single dataset-wide LSN (or even a
     single per-tree frontier), this survives a crash that interrupted a
     multi-tree or per-shard flush halfway: each (tree, shard) reports
     exactly what it managed to make durable.  Coverage comes from flush
     provenance: a whole-memory origin ([fo_shard = -1]) covers every
     shard, a per-shard origin covers its shard (under the same shard
     count; origins from a different sharding cover nothing — redo is
     conservative there), and a component with no provenance falls back
     to covering every shard up to its ID range. *)
  let shard_frontiers (type dc) ~nshards ~(prov_of : dc -> Lsm_tree.flush_origin list)
      ~(id_of : dc -> int * int) (comps : dc array) =
    let f = Array.make nshards 0 in
    let cover_all hi =
      for s = 0 to nshards - 1 do
        f.(s) <- max f.(s) hi
      done
    in
    Array.iter
      (fun c ->
        match prov_of c with
        | [] -> cover_all (snd (id_of c))
        | prov ->
            List.iter
              (fun (o : Lsm_tree.flush_origin) ->
                if o.Lsm_tree.fo_shard < 0 then cover_all o.Lsm_tree.fo_max_ts
                else if o.Lsm_tree.fo_shards = nshards then
                  f.(o.Lsm_tree.fo_shard) <-
                    max f.(o.Lsm_tree.fo_shard) o.Lsm_tree.fo_max_ts)
              prov)
      comps;
    f

  let prim_frontiers t ~nshards =
    shard_frontiers ~nshards ~prov_of:(fun c -> c.D.Prim.prov)
      ~id_of:D.Prim.component_id
      (D.Prim.components (D.primary t.d))

  let pk_frontiers t ~nshards =
    shard_frontiers ~nshards ~prov_of:(fun c -> c.D.Pk.prov)
      ~id_of:D.Pk.component_id
      (D.Pk.components (pk_index t))

  let sec_frontiers s ~nshards =
    shard_frontiers ~nshards ~prov_of:(fun c -> c.D.Sec.prov)
      ~id_of:D.Sec.component_id (D.Sec.components s.D.tree)

  (* Restore the structural invariant of the correlated primary pair
     (Mutable-bitmap only): identical component layouts with positionally
     aligned rows and shared bitmaps.  A crash can break it in exactly two
     ways, both one step deep because maintenance is sequential:

     - an interrupted lockstep merge: the primary merged but the pk index
       did not.  Redo the pk side — merge the pk components whose IDs nest
       inside one primary component.  This runs *after* bitmap redo, so
       the re-merge drops exactly the rows the original (crashed) merge
       dropped: merges happen at quiescent points, hence every bit present
       at merge time was committed and is reproduced by checkpoint
       restore + replay.

     - an interrupted flush: the primary flushed a component the pk index
       has no counterpart for.  Roll the primary back to the aligned cut
       by dropping the orphan — its entries are still in the WAL and the
       per-tree frontier (computed after the drop) sends them back through
       memory redo on both trees.

     Finally re-share bitmap objects pairwise so a bit set through either
     index is seen by both. *)
  let prov_eq a b =
    List.length a = List.length b
    && List.for_all2 Lsm_tree.flush_origin_equal a b

  let realign_primary_pair t =
    if Strategy.uses_primary_bitmap (D.strategy t.d) then begin
      let prim = D.primary t.d in
      let pkt = pk_index t in
      (* Catch-up pk-index merges, matched by flush provenance (per-shard
         flushes make component ID ranges overlap across shards, so
         ts-range nesting no longer identifies the merge's inputs). *)
      Array.iter
        (fun pc ->
          ignore
            (D.merge_prov_range
               ~components:(fun () -> D.Pk.components pkt)
               ~prov_of:(fun c -> c.D.Pk.prov)
               ~merge:(fun ~first ~last -> D.Pk.merge pkt ~first ~last)
               ~prov:pc.D.Prim.prov))
        (D.Prim.components prim);
      (* Drop orphaned primary components (no pk counterpart).  The pair
         writes identical key/ts sets, so lockstep counterparts carry
         identical provenance. *)
      let has_pk_counterpart pc =
        Array.exists
          (fun kc ->
            if pc.D.Prim.prov = [] || kc.D.Pk.prov = [] then
              D.Pk.component_id kc = D.Prim.component_id pc
            else prov_eq kc.D.Pk.prov pc.D.Prim.prov)
          (D.Pk.components pkt)
      in
      let orphans = ref [] in
      Array.iteri
        (fun i pc -> if not (has_pk_counterpart pc) then orphans := i :: !orphans)
        (D.Prim.components prim);
      (* Newest-first indices, removed in descending order to stay valid. *)
      List.iter (fun i -> D.Prim.remove_component prim ~at:i) !orphans;
      (* Re-share bitmap objects (pk side is authoritative: it went
         through checkpoint restore + WAL replay). *)
      let pcs = D.Prim.components prim and kcs = D.Pk.components pkt in
      if Array.length pcs = Array.length kcs then
        Array.iteri (fun i pc -> pc.D.Prim.bitmap <- kcs.(i).D.Pk.bitmap) pcs
    end

  (** [recover t] replays committed work: bitmap redo past the checkpoint
      LSN, then structural realignment of the correlated primary pair,
      then memory redo past each tree's own durable frontier. *)
  let recover t =
    Lsm_sim.Env.span (D.env t.d) ~cat:"txn" "recovery.replay" @@ fun () ->
    (* A crash can tear the newest WAL record mid-append; drop it, and
       treat its transaction as uncommitted (its commit record could only
       have followed the torn record). *)
    (match Wal.discard_torn_tail t.wal with
    | Some r when Wal.txn_state t.wal ~txn:r.Wal.txn = Some Wal.Active ->
        Wal.abort t.wal ~txn:r.Wal.txn
    | _ -> ());
    (* Durably committed only: under group commit a logically committed
       transaction whose group never fsynced must not be replayed (its
       demotion happened in {!crash}; the durability check also guards a
       recover driven without the crash entry point).  A discarded torn
       record needs no explicit filtering: it is gone from the log. *)
    let committed (l : redo Wal.record) = Wal.txn_durable t.wal ~txn:l.Wal.txn in
    let d = t.d in
    let pkt = pk_index t in
    (* 1. Bitmap redo: "a log record is replayed on the bitmaps only when
       its update bit is 1".  Runs first, onto the surviving pre-crash
       components, so a redone merge below sees fully recovered bits. *)
    List.iter
      (fun (l : redo Wal.record) ->
        if committed l then
          match l.Wal.payload.update with
          | Some (comp_seq, pos) ->
              Array.iter
                (fun c -> if c.D.Pk.seq = comp_seq then D.Pk.invalidate c pos)
                (D.Pk.components pkt)
          | None -> ())
      (Wal.records_after t.wal ~lsn:(Wal.checkpoint_lsn t.wal));
    (* 2. Structural realignment of the correlated primary pair. *)
    realign_primary_pair t;
    (* 3. Memory redo, per (tree, shard), over the whole log oldest first.
       Frontiers are computed after the realignment (a dropped orphan
       lowers the primary's frontier, which is exactly what routes its
       entries back through redo); each write is gated on the frontier of
       the shard its key routes to. *)
    let nshards = D.mem_shards d in
    let prim_f = prim_frontiers t ~nshards in
    let pk_f = pk_frontiers t ~nshards in
    let sec_f =
      Array.map (fun s -> (s, sec_frontiers s ~nshards)) (D.secondaries d)
    in
    List.iter
      (fun (l : redo Wal.record) ->
        if committed l then begin
          let { op; ts; _ } = l.Wal.payload in
          match op with
          | Op_upsert r ->
              let pk = R.primary_key r in
              if ts > prim_f.(D.Prim.shard_of (D.primary d) pk) then
                D.Prim.write (D.primary d) ~key:pk ~ts (Entry.Put r);
              if ts > pk_f.(D.Pk.shard_of pkt pk) then
                D.Pk.write pkt ~key:pk ~ts (Entry.Put ());
              Array.iter
                (fun (s, f) ->
                  List.iter
                    (fun sk ->
                      if ts > f.(D.Sec.shard_of s.D.tree (sk, pk)) then
                        D.Sec.write s.D.tree ~key:(sk, pk) ~ts (Entry.Put ()))
                    (s.D.extract_all r))
                sec_f
          | Op_delete pk ->
              if ts > prim_f.(D.Prim.shard_of (D.primary d) pk) then
                D.Prim.write (D.primary d) ~key:pk ~ts Entry.Del;
              if ts > pk_f.(D.Pk.shard_of pkt pk) then
                D.Pk.write pkt ~key:pk ~ts Entry.Del
        end)
      (Wal.records_after t.wal ~lsn:0)
end
