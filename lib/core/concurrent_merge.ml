(** Concurrency control between mutable bitmaps and flush/merge (Sec. 5.3).

    When the Mutable-bitmap strategy merges components, concurrent writers
    may need to flip bits in the very components being consumed.  The
    paper proposes two protocols (Figs. 10 and 11), evaluated against an
    unprotected baseline in Fig. 23:

    - {b Lock}: the builder takes a shared lock per scanned key and
      re-checks its bit; a writer that deletes an already-scanned key
      performs a second point lookup to also mark the key in the new
      component.  Correct, but pays two lock operations per merged row.
    - {b Side-file}: the builder scans against bitmap *snapshots*; writers
      append deleted keys to a side-file; a catch-up phase sorts the
      side-file and applies it to the new component.  Near-zero overhead
      per row, at the cost of the catch-up work.
    - {b Baseline}: no protection — deletions racing with the scan are
      silently lost (the motivation for the protocols); it provides the
      merge-time floor.

    The builder merges *all* primary-index components through the
    engine's shared k-way merge ({!Lsm_tree.Make.merge_components}),
    reading each row by position, interleaving writer operations
    deterministically between merged rows on the shared simulated clock.
    It then installs the primary component and its primary-key-index
    twin exactly like a scheduled merge ({!Lsm_tree.Make.install}: same
    ID range, repairedTS, range filter and flush provenance), sharing one
    bitmap, so later lockstep merges keep the pair aligned. *)

module Make (R : Record.S) (D : module type of Dataset.Make (R)) = struct
  type method_ = Baseline | Lock | Side_file

  let method_name = function
    | Baseline -> "baseline"
    | Lock -> "lock"
    | Side_file -> "side-file"

  (** CPU costs of the protocol operations (microseconds). *)
  type costs = {
    lock_us : float;  (** one lock-table acquire or release *)
    bit_check_us : float;  (** re-checking a bitmap bit under lock *)
    side_append_us : float;  (** appending one key to the side-file *)
    snapshot_us_per_kb : float;  (** copying bitmap snapshots *)
    dataset_latch_us : float;  (** S-locking the dataset to drain writers *)
  }

  (* lock_us is deliberately the dominant constant: a lock-table acquire
     under multi-writer contention (hashing, latching, memory fences) is
     ~1us, paid twice per merged row by the Lock method — which is why
     Fig. 23 shows it losing to the Side-file method across the board. *)
  let default_costs =
    {
      lock_us = 1.0;
      bit_check_us = 0.02;
      side_append_us = 0.04;
      snapshot_us_per_kb = 1.0;
      dataset_latch_us = 25.0;
    }

  type result = {
    merge_time_us : float;
    rows_merged : int;
    writer_ops : int;
    lock_acquisitions : int;
    side_file_entries : int;
  }

  type writer_op = Upsert of R.t | Delete of int

  type state = {
    d : D.t;
    env : Lsm_sim.Env.t;
    method_ : method_;
    costs : costs;
    locks : Lsm_txn.Lock_table.t;
    out_keys : int Lsm_util.Vec.t;  (** new component's keys, sorted *)
    out_at : int Lsm_util.Vec.t;
        (** where each new row comes from: its position in its input
            component times the input count, plus the input's index *)
    out_marks : (int, unit) Hashtbl.t;  (** positions invalidated in C' *)
    mutable scanned_key : int;  (** C'.ScannedKey; min_int = none *)
    mutable side : Lsm_txn.Side_file.t option;
    snapshots : (int, Lsm_util.Bitset.t) Hashtbl.t;  (** comp seq -> snapshot *)
    mutable building : bool;
    mutable writer_count : int;
  }

  let charge st us = Lsm_sim.Env.advance st.env us

  (* Point lookup into the partially built component: binary search over
     the sorted prefix (writers use this to mark already-scanned keys). *)
  let mark_in_new st pk =
    let cost = ref 0 in
    (match
       Lsm_util.Vec.binary_search ~cost st.out_keys pk
     with
    | Some pos -> Hashtbl.replace st.out_marks pos ()
    | None -> ());
    Lsm_sim.Env.charge_comparisons st.env !cost

  (* CC-specific handling after a writer invalidated a key in an old
     component while the builder is running. *)
  let propagate_to_new st pk =
    if st.building then
      match st.method_ with
      | Baseline -> () (* the lost-update race the protocols prevent *)
      | Lock -> if st.scanned_key >= pk then mark_in_new st pk
      | Side_file -> (
          match st.side with
          | Some sf ->
              if Lsm_txn.Side_file.append sf pk then charge st st.costs.side_append_us
              else mark_in_new st pk
          | None -> mark_in_new st pk)

  (* A writer transaction: the Mutable-bitmap ingestion path of Sec. 5.2,
     with the concurrency protocol hooked on the bit it flips. *)
  let writer_step st op =
    st.writer_count <- st.writer_count + 1;
    let d = st.d in
    let pk = match op with Upsert r -> R.primary_key r | Delete k -> k in
    let ts = D.next_timestamp d in
    (* Record-level X lock for the transaction (Sec. 5.2). *)
    if st.method_ = Lock then begin
      (match Lsm_txn.Lock_table.acquire st.locks ~owner:(st.writer_count + 1) ~key:pk Lsm_txn.Lock_table.X with
      | `Granted -> ()
      | `Conflict -> failwith "writer lock conflict (protocol bug)");
      charge st st.costs.lock_us
    end;
    if Option.is_some (D.mark_old_deleted d pk) then propagate_to_new st pk;
    (* New entry into the memory components. *)
    (match op with
    | Upsert r -> D.write_new_record d r ~ts
    | Delete pk -> D.write_delete d pk ~ts);
    if st.method_ = Lock then begin
      Lsm_txn.Lock_table.release st.locks ~owner:(st.writer_count + 1) ~key:pk;
      charge st st.costs.lock_us
    end

  (** [run d ~method_ ~next_write ~writer_ops_per_row ()] merges all of
      [d]'s primary (and primary key) components with concurrent writers:
      after each merged row, [writer_ops_per_row] writer operations
      (drawn from [next_write]) execute.  Returns timing and protocol
      counters.  [d] must use the Mutable-bitmap strategy and hold at
      least two disk components. *)
  let run d ~method_ ?(costs = default_costs) ~next_write ~writer_ops_per_row ()
      =
    let env = D.env d in
    let prim = D.primary d in
    let pkt =
      match D.pk_index d with
      | Some p -> p
      | None -> invalid_arg "Concurrent_merge.run: primary key index required"
    in
    let pcomps = D.Prim.components prim in
    let kcomps = D.Pk.components pkt in
    if Array.length pcomps < 2 then
      invalid_arg "Concurrent_merge.run: need >= 2 components";
    let st =
      {
        d;
        env;
        method_;
        costs;
        locks = Lsm_txn.Lock_table.create ();
        out_keys = Lsm_util.Vec.create ();
        out_at = Lsm_util.Vec.create ();
        out_marks = Hashtbl.create 1024;
        scanned_key = min_int;
        side = None;
        snapshots = Hashtbl.create 8;
        building = true;
        writer_count = 0;
      }
    in
    let t0 = Lsm_sim.Env.now_us env in
    (* --- Initialization phase --- *)
    (match method_ with
    | Side_file ->
        charge st costs.dataset_latch_us;
        Array.iter
          (fun c ->
            match c.D.Prim.bitmap with
            | Some b ->
                Hashtbl.replace st.snapshots c.D.Prim.seq (Lsm_util.Bitset.copy b);
                charge st
                  (costs.snapshot_us_per_kb
                  *. Float.of_int (Lsm_util.Bitset.byte_size b)
                  /. 1024.0)
            | None -> ())
          pcomps;
        st.side <- Some (Lsm_txn.Side_file.create ())
    | _ -> ());
    (* --- Build phase: k-way reconciling scan with interleaved writers --- *)
    let row_valid_for_scan c pos =
      match method_ with
      | Side_file -> (
          (* Scan against the snapshot, immune to concurrent flips. *)
          match Hashtbl.find_opt st.snapshots c.D.Prim.seq with
          | Some snap -> not (Lsm_util.Bitset.get snap pos)
          | None -> true)
      | _ -> D.Prim.row_valid c pos
    in
    let m = D.Prim.merge_components prim ~valid:row_valid_for_scan pcomps in
    let writer_budget = ref 0.0 in
    let last_key = ref min_int in
    let first_row = ref true in
    let npcomps = Array.length pcomps in
    let top = ref (Lsm_util.Kmerge.top m.cm_merge) in
    while !top >= 0 do
      let p = !top in
      let pos = m.cm_heads.(p) in
      top := Lsm_util.Kmerge.advance m.cm_merge;
      let k = (Lsm_btree.Disk_btree.keys pcomps.(p).D.Prim.tree).(pos) in
      (* Interleave writers. *)
      writer_budget := !writer_budget +. writer_ops_per_row;
      while !writer_budget >= 1.0 do
        writer_budget := !writer_budget -. 1.0;
        writer_step st (next_write ())
      done;
      let dup = (not !first_row) && k = !last_key in
      first_row := false;
      last_key := k;
      if not dup then begin
        let valid =
          match method_ with
          | Lock ->
              (* S-lock the key, re-check the live bit, unlock (Fig. 10a). *)
              (match
                 Lsm_txn.Lock_table.acquire st.locks ~owner:0 ~key:k
                   Lsm_txn.Lock_table.S
               with
              | `Granted -> ()
              | `Conflict -> failwith "builder lock conflict (protocol bug)");
              charge st costs.lock_us;
              let v = D.Prim.row_valid pcomps.(p) pos in
              charge st costs.bit_check_us;
              Lsm_txn.Lock_table.release st.locks ~owner:0 ~key:k;
              charge st costs.lock_us;
              v
          | Baseline | Side_file -> true
          (* validity was established at scan time (live bitmap for
             Baseline, snapshot for Side-file) *)
        in
        if valid then begin
          Lsm_util.Vec.push st.out_keys k;
          Lsm_util.Vec.push st.out_at ((pos * npcomps) + p);
          st.scanned_key <- k
        end
      end
    done;
    (* --- Catch-up phase (Side-file, Fig. 11a lines 11-16) --- *)
    (match st.side with
    | Some sf ->
        charge st costs.dataset_latch_us;
        Lsm_txn.Side_file.close sf;
        let cost = ref 0 in
        let keys = Lsm_txn.Side_file.sorted_keys ~cost sf in
        Lsm_sim.Env.charge_comparisons env !cost;
        Array.iter (fun k -> mark_in_new st k) keys
    | None -> ());
    st.building <- false;
    (* --- Install the new components (primary + primary key index) like
       a merge, sharing one bitmap --- *)
    let keys = Lsm_util.Vec.to_array st.out_keys in
    let n = Array.length keys in
    let column read =
      Array.init n (fun o ->
          let at = Lsm_util.Vec.get st.out_at o in
          read pcomps.(at mod npcomps) (at / npcomps))
    in
    let tss = column (fun c i -> c.D.Prim.tss.(i)) in
    let b = D.Prim.columns n in
    for o = 0 to n - 1 do
      let at = Lsm_util.Vec.get st.out_at o in
      D.Prim.copy_row b o pcomps.(at mod npcomps) (at / npcomps)
    done;
    let vals, dels = D.Prim.built b in
    let bitmap = Lsm_util.Bitset.create n in
    Hashtbl.iter (fun pos () -> Lsm_util.Bitset.set bitmap pos) st.out_marks;
    ignore (D.Prim.install prim ~inputs:pcomps ~keys ~pks:[||] ~tss ~vals ~dels);
    (* The twin shares the key, timestamp and anti-matter columns (no
       component writes to its columns); its unit values need one slot,
       and none without a [Put] row. *)
    let kc =
      D.Pk.install pkt ~inputs:kcomps ~keys ~pks:[||] ~tss
        ~vals:(if Array.length vals = 0 then [||] else [| () |])
        ~dels
    in
    kc.D.Pk.bitmap <- Some bitmap;
    D.share_pair_bitmaps d;
    {
      merge_time_us = Lsm_sim.Env.now_us env -. t0;
      rows_merged = n;
      writer_ops = st.writer_count;
      lock_acquisitions = Lsm_txn.Lock_table.acquisitions st.locks;
      side_file_entries =
        (match st.side with Some sf -> Lsm_txn.Side_file.length sf | None -> 0);
    }
end
