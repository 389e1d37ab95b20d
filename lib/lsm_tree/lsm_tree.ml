(** A generic LSM-tree over the simulated storage substrate.

    One [Make (K) (V)] instance backs each index of a dataset: the primary
    index (key = primary key, value = record), the primary key index
    (key = primary key, value = unit), and secondary indexes (key =
    (secondary key, primary key), value = unit).  Entries are timestamped;
    component IDs are (minTS, maxTS) ranges over entry timestamps, as in
    Fig. 1 of the paper.

    The tree itself knows nothing about maintenance strategies: it offers
    writes into the memory component, flush, merge of a contiguous
    component range, reconciling and per-component scans, and the point
    lookup algorithms of Sec. 3.2.  Strategy logic lives in [Lsm_core]. *)

module Entry = Entry
module Config = Config
module Merge_policy = Merge_policy
module Fault_point = Lsm_sim.Fault_point

(** Provenance of a disk component w.r.t. memory-shard flushes: which
    flush operation(s) produced its rows.  Lives outside the functor so
    the provenance of components from *different* [Make] instances (the
    primary / primary-key pair of a dataset, whose flush histories are
    identical by construction) can be compared, and so recovery can
    compute per-shard durable frontiers.  A merged component carries the
    concatenation of its inputs' origins, newest first. *)
type flush_origin = {
  fo_shards : int;  (** the tree's shard count when the flush ran *)
  fo_shard : int;  (** flushed shard index; [-1] = whole-memory flush *)
  fo_min_ts : int;  (** component ID bounds of the flushed component *)
  fo_max_ts : int;
}

let flush_origin_equal (a : flush_origin) (b : flush_origin) =
  a.fo_shards = b.fo_shards && a.fo_shard = b.fo_shard
  && a.fo_min_ts = b.fo_min_ts
  && a.fo_max_ts = b.fo_max_ts

module type KEY = Lsm_util.Intf.ORDERED

module type VALUE = Lsm_util.Intf.SIZED

module Make (K : KEY) (V : VALUE) = struct
  module Mbt = Lsm_btree.Mem_btree.Make (K)
  module Dbt = Lsm_btree.Disk_btree.Make (K)
  module View = Sorted_view.Make (K)

  type row = { key : K.t; ts : int; value : V.t Entry.t }

  let row_size r = K.byte_size r.key + 8 + Entry.byte_size V.byte_size r.value

  type mem_component = {
    table : (int * V.t Entry.t) Mbt.t;  (** key -> (ts, entry) *)
    mutable bytes : int;
    mutable min_ts : int;  (** max_int when empty *)
    mutable max_ts : int;  (** -1 when empty *)
    mutable fmin : int;  (** range filter bounds; max_int/min_int = empty *)
    mutable fmax : int;
  }

  type disk_component = {
    tree : row Dbt.t;
    bloom : Lsm_bloom.Filter.t option;
    cmin_ts : int;  (** component ID lower bound *)
    cmax_ts : int;  (** component ID upper bound *)
    range_filter : (int * int) option;
    mutable bitmap : Lsm_util.Bitset.t option;  (** 1 = entry invalid *)
    mutable repaired_ts : int;
        (** entries are valid w.r.t. primary-key-index entries with
            ts <= repaired_ts (Sec. 4.4); 0 = never repaired *)
    mutable quarantined : bool;
        (** a page or filter of this component failed its checksum;
            lookups stop trusting the Bloom filter (degraded reads) until
            the maintenance supervisor rebuilds or scrubs it *)
    seq : int;  (** unique id, for debugging and cache bookkeeping *)
    prov : flush_origin list;
        (** flush provenance, newest first; [[]] for components built by
            machinery that does not track it *)
  }

  type t = {
    env : Lsm_sim.Env.t;
    config : Config.t;
    filter_of : (V.t -> int) option;
        (** extracts the range-filter key from a value; [None] = no filter *)
    mems : mem_component array;
        (** memory shards; writes hash-route by key.  Length 1 behaves
            exactly like the classic single memory component. *)
    mutable disk : disk_component list;  (** newest first *)
    mutable view : (row View.t * disk_component array) option;
        (** REMIX-style sorted view over the *current* [disk] list (the
            array snapshot it was built from), built lazily by the first
            full reconciling scan and dropped — atomically, in the same
            step — whenever [disk] changes, so a view can never outlive
            the component set it orders *)
    mutable views_enabled : bool;
    mutable next_seq : int;
    mutable tombstone_drop_ts : int;
        (** bottom merges may physically drop an anti-matter entry only if
            its timestamp is <= this barrier.  Defaults to [max_int] (drop
            freely).  A dataset whose secondary indexes validate against
            this tree lowers it to the minimum secondary repairedTS, so
            that deletions stay observable until every obsolete secondary
            entry has been repaired. *)
  }

  let fresh_mem () =
    {
      table = Mbt.create ();
      bytes = 0;
      min_ts = max_int;
      max_ts = -1;
      fmin = max_int;
      fmax = min_int;
    }

  let create ?filter_of env config =
    {
      env;
      config;
      filter_of;
      mems = Array.init (max 1 config.Config.shards) (fun _ -> fresh_mem ());
      disk = [];
      view = None;
      views_enabled = true;
      next_seq = 0;
      tombstone_drop_ts = max_int;
    }

  let mem_shards t = Array.length t.mems

  (** [shard_of t key] is the memory shard [key] routes to.  The hash is
      re-mixed so shard routing stays independent of any outer
      partition-by-key routing that used [K.hash] directly. *)
  let shard_of t key =
    let n = Array.length t.mems in
    if n = 1 then 0 else Lsm_bloom.Hashing.mix64 (K.hash key) land max_int mod n

  (** [set_tombstone_drop_ts t ts]: see the field documentation. *)
  let set_tombstone_drop_ts t ts = t.tombstone_drop_ts <- ts

  let env t = t.env
  let config t = t.config
  let name t = t.config.Config.name

  (* ------------------------------------------------------------------ *)
  (* Accessors *)

  let mem_bytes t = Array.fold_left (fun acc m -> acc + m.bytes) 0 t.mems
  let mem_shard_bytes t s = t.mems.(s).bytes
  let mem_count t =
    Array.fold_left (fun acc m -> acc + Mbt.length m.table) 0 t.mems

  let mem_is_empty t = Array.for_all (fun m -> Mbt.is_empty m.table) t.mems

  let mem_id t =
    Array.fold_left
      (fun (lo, hi) m -> (min lo m.min_ts, max hi m.max_ts))
      (max_int, -1) t.mems

  (** [components t] is the disk components, newest first. *)
  let components t = Array.of_list t.disk

  let component_count t = List.length t.disk
  let component_id c = (c.cmin_ts, c.cmax_ts)
  let component_rows c = Dbt.nrows c.tree
  let component_size_bytes t c = Dbt.size_bytes t.env c.tree
  let component_file c = Lsm_sim.Sfile.id (Dbt.file c.tree)
  let quarantined c = c.quarantined

  (** [quarantine t c] marks [c] degraded (see {!disk_component}); counted
      once per component in the environment's resilience stats. *)
  let quarantine t c =
    if not c.quarantined then begin
      c.quarantined <- true;
      let r = Lsm_sim.Env.resil t.env in
      r.Lsm_sim.Env.quarantines <- r.Lsm_sim.Env.quarantines + 1
    end

  let disk_size_bytes t =
    List.fold_left (fun acc c -> acc + component_size_bytes t c) 0 t.disk

  let total_rows t =
    mem_count t + List.fold_left (fun acc c -> acc + component_rows c) 0 t.disk

  let charge_mem_cmps t =
    Lsm_sim.Env.charge_comparisons t.env
      (Array.fold_left
         (fun acc m -> acc + Mbt.take_comparisons m.table)
         0 t.mems)

  (* ------------------------------------------------------------------ *)
  (* Sorted views (REMIX): lifecycle *)

  (** Views only pay off when a scan would otherwise merge multiple
      streams. *)
  let view_min_components = 2

  (** [invalidate_view t] drops the sorted view, if any.  Called
      immediately before *every* assignment of [t.disk] (flush, merge,
      replace_range, remove_component): the drop and the list mutation
      are adjacent non-raising stores, so a crash — which in this
      simulator is an exception at a fault point — can never observe a
      view describing a component set that no longer exists.  Recovery
      needs no view repair: a rebuilt tree starts with [view = None] and
      the next reconciling scan rebuilds it from the surviving
      components. *)
  let invalidate_view t =
    match t.view with
    | None -> ()
    | Some (v, _) ->
        t.view <- None;
        View.release t.env v;
        let vs = Lsm_sim.Env.view_stats t.env in
        vs.Lsm_sim.Env.invalidations <- vs.Lsm_sim.Env.invalidations + 1

  (** [set_sorted_views t on] toggles the subsystem at runtime (the heap
      merge remains the fallback and the differential-test oracle). *)
  let set_sorted_views t on =
    if not on then invalidate_view t;
    t.views_enabled <- on

  let sorted_views_enabled t = t.views_enabled

  (** [view_info t] is [(positions, anchors, run count)] of the current
      view, if one is materialized. *)
  let view_info t =
    match t.view with
    | None -> None
    | Some (v, _) -> Some (View.positions v, View.anchor_count v, View.run_count v)

  let view_matches comps_a built =
    Array.length built = Array.length comps_a
    && begin
         let ok = ref true in
         Array.iteri (fun i c -> if built.(i) != c then ok := false) comps_a;
         !ok
       end

  (* Build (or reuse) the view covering exactly [comps_a] = the current
     disk list.  The build is charged through [Env] (merge comparisons +
     sequential view-page writes) inside its own span, so explain plans
     and traces show rebuild cost where it happens. *)
  let ensure_view t comps_a =
    match t.view with
    | Some (v, built) when view_matches comps_a built -> v
    | _ ->
        invalidate_view t;
        Lsm_sim.Env.span t.env ~cat:(name t) "lsm.view.build" @@ fun () ->
        let runs =
          Array.map
            (fun c ->
              {
                View.keys = Dbt.keys c.tree;
                rows = Dbt.rows c.tree;
                file = Dbt.file c.tree;
                leaf_of_row = (fun i -> Dbt.leaf_of_row c.tree i);
                leaf_pages = Dbt.leaf_pages c.tree;
              })
            comps_a
        in
        let v = View.build t.env runs in
        Lsm_sim.Env.explain_count t.env "view_build_rows" (View.positions v);
        t.view <- Some (v, comps_a);
        v

  (* ------------------------------------------------------------------ *)
  (* Writes *)

  (** [widen_filter t key fkey] widens the range filter of the memory
      shard owning [key] to cover [fkey].  The Eager strategy calls this
      with the *old* record's filter key on upserts and deletes so that
      queries do not erroneously prune the memory component (Sec. 3.1);
      Validation and Mutable-bitmap deliberately do not (Secs. 4.2,
      5.2).  [key] routes the widening to the shard that received the
      same-key write, so a per-shard flush carries its filter. *)
  let widen_filter t key fkey =
    if t.filter_of <> None then begin
      let m = t.mems.(shard_of t key) in
      if fkey < m.fmin then m.fmin <- fkey;
      if fkey > m.fmax then m.fmax <- fkey
    end

  (** [write t ~key ~ts entry] adds an entry to the memory component.  A
      same-key write replaces the previous in-memory entry (newest wins
      within a component).  [Put] values widen the range filter. *)
  let write t ~key ~ts entry =
    let m = t.mems.(shard_of t key) in
    let old = Mbt.put m.table key (ts, entry) in
    charge_mem_cmps t;
    let new_size = K.byte_size key + 8 + Entry.byte_size V.byte_size entry in
    (match old with
    | Some (_, old_e) ->
        m.bytes <-
          m.bytes - (K.byte_size key + 8 + Entry.byte_size V.byte_size old_e)
    | None -> ());
    m.bytes <- m.bytes + new_size;
    if ts < m.min_ts then m.min_ts <- ts;
    if ts > m.max_ts then m.max_ts <- ts;
    (match (entry, t.filter_of) with
    | Entry.Put v, Some f -> widen_filter t key (f v)
    | _ -> ());
    Lsm_sim.Env.charge_entry_visits t.env 1

  (** [mem_rollback t ~key ~prior] undoes a memory-component write as part
      of transaction rollback (Sec. 2.2: in-memory changes are rolled back
      by applying inverse operations): the current entry for [key] is
      removed and [prior] — the binding that the aborted write replaced,
      if any — is restored.  Byte accounting follows; the component ID and
      filter bounds remain conservatively widened, which is safe. *)
  let mem_rollback t ~key ~prior =
    let m = t.mems.(shard_of t key) in
    (match Mbt.remove m.table key with
    | Some (_, old_e) ->
        m.bytes <-
          m.bytes - (K.byte_size key + 8 + Entry.byte_size V.byte_size old_e)
    | None -> ());
    (match prior with
    | Some ((ts : int), entry) ->
        ignore (Mbt.put m.table key (ts, entry));
        m.bytes <-
          m.bytes + K.byte_size key + 8 + Entry.byte_size V.byte_size entry
    | None -> ());
    charge_mem_cmps t

  (** [reset_memory t] discards the memory component (crash simulation:
      under no-steal/no-force, everything unflushed is volatile). *)
  let reset_memory t =
    Array.iteri (fun i _ -> t.mems.(i) <- fresh_mem ()) t.mems

  (** [mem_find t key] searches only the memory component. *)
  let mem_find t key =
    let r = Mbt.find t.mems.(shard_of t key).table key in
    charge_mem_cmps t;
    match r with
    | None -> None
    | Some (ts, entry) ->
        Lsm_sim.Env.charge_entry_visits t.env 1;
        Some { key; ts; value = entry }

  (* ------------------------------------------------------------------ *)
  (* Bloom filter probing with cost accounting *)

  let probe_bloom t c key =
    match c.bloom with
    | None -> true
    | Some _ when c.quarantined ->
        (* Degraded read: the component failed a checksum, so its filter
           cannot be trusted — a corrupt filter's false negative would
           silently lose data.  Fall through to the B+-tree probe, which
           verifies every page it reads. *)
        let r = Lsm_sim.Env.resil t.env in
        r.Lsm_sim.Env.degraded_probes <- r.Lsm_sim.Env.degraded_probes + 1;
        true
    | Some f ->
        let st = Lsm_sim.Env.stats t.env in
        st.Lsm_sim.Io_stats.bloom_probes <- st.Lsm_sim.Io_stats.bloom_probes + 1;
        Lsm_sim.Env.charge_hashes t.env (Lsm_bloom.Filter.hashes_per_probe f);
        Lsm_sim.Env.charge_cache_lines t.env
          (Lsm_bloom.Filter.cache_lines_per_probe f);
        let maybe = Lsm_bloom.Filter.contains f (K.hash key) in
        if not maybe then
          st.Lsm_sim.Io_stats.bloom_negatives <-
            st.Lsm_sim.Io_stats.bloom_negatives + 1;
        maybe

  (* A positive Bloom answer whose component search then missed was a
     false positive; lookups report it here. *)
  let note_bloom_fp t c =
    (* A quarantined component's filter was never consulted, so a miss
       there is not a false positive. *)
    if c.bloom <> None && not c.quarantined then begin
      let st = Lsm_sim.Env.stats t.env in
      st.Lsm_sim.Io_stats.bloom_fps <- st.Lsm_sim.Io_stats.bloom_fps + 1
    end

  (* ------------------------------------------------------------------ *)
  (* Flush *)

  let build_bloom t rows =
    match t.config.Config.bloom with
    | None -> None
    | Some { Config.kind; fpr } ->
        let n = Array.length rows in
        let f = Lsm_bloom.Filter.create kind ~expected:n ~fpr in
        Array.iter (fun r -> Lsm_bloom.Filter.add f (K.hash r.key)) rows;
        Lsm_sim.Env.charge_hashes t.env (2 * n);
        Some f

  let mk_component t rows ~cmin_ts ~cmax_ts ~range_filter ~repaired_ts ~prov =
    let tree = Dbt.build t.env ~key_of:(fun r -> r.key) ~size_of:row_size rows in
    let bloom = build_bloom t rows in
    let bitmap =
      if t.config.Config.validity_bitmap then
        Some (Lsm_util.Bitset.create (Array.length rows))
      else None
    in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    {
      tree;
      bloom;
      cmin_ts;
      cmax_ts;
      range_filter;
      bitmap;
      repaired_ts;
      quarantined = false;
      seq;
      prov;
    }

  let shard_rows m =
    Array.map
      (fun (key, (ts, entry)) -> { key; ts; value = entry })
      (Mbt.to_sorted_array m.table)

  (* Flush pre-sorted rows into a fresh newest component.  [points] is
     the (begin, install) fault-point pair — whole-memory and per-shard
     flushes announce distinct pairs, so the crash harness enumerates
     both windows. *)
  let flush_shard_rows t rows ~cmin_ts ~cmax_ts ~range_filter ~prov
      ~points:(begin_point, install_point) ~reset =
    Lsm_sim.Env.span t.env ~cat:(name t) "lsm.flush" @@ fun () ->
    Lsm_sim.Env.fault_point t.env begin_point;
    Lsm_sim.Env.charge_entry_visits t.env (Array.length rows);
    let c =
      mk_component t rows ~cmin_ts ~cmax_ts ~range_filter ~repaired_ts:0 ~prov
    in
    invalidate_view t;
    t.disk <- c :: t.disk;
    reset ();
    Lsm_obs.Ampstats.on_flush
      (Lsm_sim.Env.amp t.env)
      ~bytes:(component_size_bytes t c) ~rows:(Array.length rows);
    Lsm_sim.Env.fault_point t.env install_point

  (** [flush t] turns a non-empty memory component into the newest disk
      component, inheriting the (possibly widened) memory range filter:
      every shard drains into one component (byte-identical to the
      unsharded tree's flush).  [flush ~shard:s t] flushes only shard
      [s] — its siblings keep their contents — announcing the
      [lsm.flush.shard.*] fault points and stamping the component with a
      per-shard {!flush_origin}. *)
  let flush ?shard t =
    match shard with
    | Some s ->
        let m = t.mems.(s) in
        if not (Mbt.is_empty m.table) then begin
          let range_filter =
            if t.filter_of <> None && m.fmin <= m.fmax then
              Some (m.fmin, m.fmax)
            else None
          in
          let prov =
            [
              {
                fo_shards = Array.length t.mems;
                fo_shard = s;
                fo_min_ts = m.min_ts;
                fo_max_ts = m.max_ts;
              };
            ]
          in
          flush_shard_rows t (shard_rows m) ~cmin_ts:m.min_ts
            ~cmax_ts:m.max_ts ~range_filter ~prov
            ~points:(Fault_point.Lsm_flush_shard_begin, Lsm_flush_shard_install)
            ~reset:(fun () -> t.mems.(s) <- fresh_mem ())
        end
    | None ->
        if not (mem_is_empty t) then begin
          let rows =
            if Array.length t.mems = 1 then shard_rows t.mems.(0)
            else begin
              (* Shard key sets are disjoint, so sorting the concatenation
                 reproduces exactly the rows a single memtable would have
                 held (differential byte-identity). *)
              let all =
                Array.concat (Array.to_list (Array.map shard_rows t.mems))
              in
              Array.sort
                (fun a b ->
                  Lsm_sim.Env.charge_comparisons t.env 1;
                  K.compare a.key b.key)
                all;
              all
            end
          in
          let cmin_ts, cmax_ts = mem_id t in
          let range_filter =
            if t.filter_of = None then None
            else
              Array.fold_left
                (fun acc m ->
                  if m.fmin <= m.fmax then
                    match acc with
                    | None -> Some (m.fmin, m.fmax)
                    | Some (a, b) -> Some (min a m.fmin, max b m.fmax)
                  else acc)
                None t.mems
          in
          let prov =
            [
              {
                fo_shards = Array.length t.mems;
                fo_shard = -1;
                fo_min_ts = cmin_ts;
                fo_max_ts = cmax_ts;
              };
            ]
          in
          flush_shard_rows t rows ~cmin_ts ~cmax_ts ~range_filter ~prov
            ~points:(Fault_point.Lsm_flush_begin, Lsm_flush_install)
            ~reset:(fun () -> reset_memory t)
        end

  (* ------------------------------------------------------------------ *)
  (* Merge *)

  let row_valid c i =
    match c.bitmap with None -> true | Some b -> not (Lsm_util.Bitset.get b i)

  (** An in-flight incremental merge: the k-way reconciling merge of
      {!merge} broken into explicit steps so a scheduler can interleave
      several independent merges deterministically on one simulated clock
      (the overlapping-maintenance pipeline).  Between {!merge_start} and
      {!merge_finish} the job only reads its input components and
      accumulates rows in memory — [t.disk] is untouched, so jobs on
      *different* trees (or provably disjoint ranges) never conflict.
      Two concurrent jobs on overlapping ranges of one tree are a caller
      bug. *)
  type merge_job = {
    mj_inputs : disk_component array;
    mj_scans : row Dbt.Scan.s array;
    mj_heap : (K.t * int * row) Lsm_util.Heap.t;
    mutable mj_out : row list;  (** merged rows, newest-emitted first *)
    mutable mj_last_key : K.t option;
    mutable mj_rows_done : int;
    mj_input_bytes : int;
    mj_input_rows : int;
    mj_includes_oldest : bool;
    mj_drop_ts : int;
        (** tombstone barrier captured at start — a concurrent repair
            raising a secondary's repairedTS mid-merge must not change
            this job's output (serial equivalence) *)
    mj_extra_invalid : disk_component -> int -> bool;
  }

  let mj_push_from t j p =
    let rec go () =
      match Dbt.Scan.next t.env j.mj_scans.(p) with
      | None -> ()
      | Some (i, row) ->
          if
            row_valid j.mj_inputs.(p) i
            && not (j.mj_extra_invalid j.mj_inputs.(p) i)
          then Lsm_util.Heap.push j.mj_heap (row.key, p, row)
          else go ()
    in
    go ()

  (** [merge_start t ~first ~last] opens an incremental merge of the
      contiguous component range [first..last] (indices into
      {!components}, 0 = newest).  Announces [lsm.merge.begin]. *)
  let merge_start ?(extra_invalid = fun _ _ -> false) t ~first ~last =
    let comps = Array.of_list t.disk in
    let n = Array.length comps in
    if not (0 <= first && first <= last && last < n) then
      invalid_arg "Lsm_tree.merge: bad range";
    let inputs = Array.sub comps first (last - first + 1) in
    Lsm_sim.Env.fault_point t.env Lsm_merge_begin;
    let j =
      {
        mj_inputs = inputs;
        mj_scans = Array.map (fun c -> Dbt.Scan.seek t.env c.tree None) inputs;
        mj_heap =
          (* K-way merge ordered by (key, input priority); input 0 is
             newest. *)
          Lsm_util.Heap.create (fun (k1, p1, _) (k2, p2, _) ->
              Lsm_sim.Env.charge_comparisons t.env 1;
              let c = K.compare k1 k2 in
              if c <> 0 then c else compare (p1 : int) p2);
        mj_out = [];
        mj_last_key = None;
        mj_rows_done = 0;
        mj_input_bytes =
          Array.fold_left (fun acc c -> acc + component_size_bytes t c) 0 inputs;
        mj_input_rows =
          Array.fold_left (fun acc c -> acc + component_rows c) 0 inputs;
        mj_includes_oldest = last = n - 1;
        mj_drop_ts = t.tombstone_drop_ts;
        mj_extra_invalid = extra_invalid;
      }
    in
    Array.iteri (fun p _ -> mj_push_from t j p) inputs;
    j

  (** [merge_step t j ~rows] advances the merge by up to [rows] output
      decisions; [false] once the input streams are exhausted. *)
  let merge_step t j ~rows =
    let budget = ref rows in
    while !budget > 0 && not (Lsm_util.Heap.is_empty j.mj_heap) do
      decr budget;
      let k, p, row = Lsm_util.Heap.pop j.mj_heap in
      mj_push_from t j p;
      let dup =
        match j.mj_last_key with
        | Some lk -> K.compare lk k = 0
        | None -> false
      in
      Lsm_sim.Env.charge_comparisons t.env 1;
      j.mj_last_key <- Some k;
      if not dup then
        if
          Entry.is_del row.value && j.mj_includes_oldest
          && row.ts <= j.mj_drop_ts
        then ()
        else begin
          j.mj_out <- row :: j.mj_out;
          j.mj_rows_done <- j.mj_rows_done + 1
        end
    done;
    not (Lsm_util.Heap.is_empty j.mj_heap)

  (** [merge_finish t j] builds and installs the merged component,
      deletes the inputs' files, and announces [lsm.merge.install].  The
      input components must still be present as a contiguous run —
      located by physical identity, so flushes that *prepend* components
      while the merge was in flight (per-shard flushes overlapping
      merges) are tolerated; any other mutation of the inputs is
      rejected. *)
  let merge_finish t j =
    let inputs = j.mj_inputs in
    let k = Array.length inputs in
    let comps = Array.of_list t.disk in
    let n = Array.length comps in
    let found = ref (-1) in
    Array.iteri
      (fun i c -> if !found < 0 && c == inputs.(0) then found := i)
      comps;
    let stable =
      !found >= 0
      && !found + k <= n
      && Array.for_all
           (fun i -> comps.(!found + i) == inputs.(i))
           (Array.init k Fun.id)
    in
    if not stable then invalid_arg "Lsm_tree.merge_finish: tree changed";
    let first = !found in
    let last = first + k - 1 in
    let rows = Array.of_list (List.rev j.mj_out) in
    let cmin_ts =
      Array.fold_left (fun acc c -> min acc c.cmin_ts) max_int inputs
    in
    let cmax_ts = Array.fold_left (fun acc c -> max acc c.cmax_ts) (-1) inputs in
    let repaired_ts =
      Array.fold_left (fun acc c -> min acc c.repaired_ts) max_int inputs
    in
    let repaired_ts = if repaired_ts = max_int then 0 else repaired_ts in
    let range_filter =
      match t.filter_of with
      | None -> None
      | Some f ->
          if j.mj_includes_oldest then begin
            (* No anti-matter survives a bottom merge: recompute tightly. *)
            let fmin = ref max_int and fmax = ref min_int in
            Array.iter
              (fun r ->
                match r.value with
                | Entry.Put v ->
                    let x = f v in
                    if x < !fmin then fmin := x;
                    if x > !fmax then fmax := x
                | Entry.Del -> ())
              rows;
            if !fmin <= !fmax then Some (!fmin, !fmax) else None
          end
          else
            (* Anti-matter may survive: the union of input filters is the
               only safe bound. *)
            Array.fold_left
              (fun acc c ->
                match (acc, c.range_filter) with
                | None, x | x, None -> x
                | Some (a, b), Some (c', d) -> Some (min a c', max b d))
              None inputs
    in
    let prov = List.concat_map (fun c -> c.prov) (Array.to_list inputs) in
    let merged =
      mk_component t rows ~cmin_ts ~cmax_ts ~range_filter ~repaired_ts ~prov
    in
    invalidate_view t;
    t.disk <-
      List.filteri (fun i _ -> i < first) t.disk
      @ [ merged ]
      @ List.filteri (fun i _ -> i > last) t.disk;
    Array.iter (fun c -> Dbt.delete t.env c.tree) inputs;
    Lsm_obs.Ampstats.on_merge
      (Lsm_sim.Env.amp t.env)
      ~bytes_read:j.mj_input_bytes
      ~bytes_written:(component_size_bytes t merged)
      ~rows_in:j.mj_input_rows ~rows_out:(Array.length rows);
    Lsm_sim.Env.fault_point t.env Lsm_merge_install;
    merged

  (** [merge t ~first ~last] merges the contiguous component range
      [first..last] (indices into {!components}, 0 = newest) into one new
      component: a reconciling k-way merge that keeps the newest entry per
      key, drops bitmap-invalidated entries, and — when the range includes
      the oldest component — drops anti-matter.  Returns the new
      component.  The inputs' files are deleted.  (Equivalent to running
      an incremental {!merge_start}/{!merge_step}/{!merge_finish} job to
      completion without interleaving.) *)
  let merge ?extra_invalid t ~first ~last =
    Lsm_sim.Env.span t.env ~cat:(name t) "lsm.merge" @@ fun () ->
    let j = merge_start ?extra_invalid t ~first ~last in
    while merge_step t j ~rows:max_int do
      ()
    done;
    merge_finish t j

  (** [build_component t rows ...] constructs a disk component from
      pre-merged, key-sorted rows without installing it — the low-level
      piece used by the incremental concurrent-merge machinery (Sec. 5.3),
      which interleaves writers with the component builder and therefore
      cannot use the atomic {!merge}. *)
  let build_component ?(prov = []) t rows ~cmin_ts ~cmax_ts ~range_filter
      ~repaired_ts =
    mk_component t rows ~cmin_ts ~cmax_ts ~range_filter ~repaired_ts ~prov

  (** [replace_range t ~first ~last c] atomically replaces the component
      range [first..last] (newest-first indices) with [c], deleting the
      old components' files. *)
  let replace_range t ~first ~last c =
    let comps = Array.of_list t.disk in
    let n = Array.length comps in
    if not (0 <= first && first <= last && last < n) then
      invalid_arg "Lsm_tree.replace_range: bad range";
    invalidate_view t;
    t.disk <-
      List.filteri (fun i _ -> i < first) t.disk
      @ [ c ]
      @ List.filteri (fun i _ -> i > last) t.disk;
    for i = first to last do
      Dbt.delete t.env comps.(i).tree
    done

  (** [remove_component t ~at] removes the component at newest-first index
      [at], deleting its file.  Recovery-only: rolls a tree back to a
      crash-consistent cut when a correlated index's flush did not survive
      the crash (the discarded entries are still in the WAL and are redone
      into memory). *)
  let remove_component t ~at =
    let comps = Array.of_list t.disk in
    let n = Array.length comps in
    if not (0 <= at && at < n) then invalid_arg "Lsm_tree.remove_component";
    invalidate_view t;
    t.disk <- List.filteri (fun i _ -> i <> at) t.disk;
    Dbt.delete t.env comps.(at).tree

  (** [pick_merge t policy] applies a merge policy to this tree's own
      components (the paper's default: "each LSM-tree is merged
      independently") without merging: the newest-first range
      [Some (first, last)] to hand to {!merge} or {!merge_start}, or
      [None] when no merge is due. *)
  let pick_merge t policy =
    let comps = Array.of_list t.disk in
    let n = Array.length comps in
    (* Policy works oldest-first. *)
    let sizes =
      Array.init n (fun i -> component_size_bytes t comps.(n - 1 - i))
    in
    Option.map
      (fun (f_old, l_old) -> (n - 1 - l_old, n - 1 - f_old))
      (Merge_policy.pick policy ~sizes)

  (* ------------------------------------------------------------------ *)
  (* Point lookups (Sec. 3.2) *)

  type lookup_opts = {
    batched : bool;  (** batched point lookup algorithm *)
    batch_bytes : int;  (** batching memory (paper default: 16MB) *)
    stateful : bool;  (** stateful B+-tree search cursors ("sLookup") *)
    use_hints : bool;  (** component-ID propagation ("pID", Jia) *)
  }

  let default_lookup_opts =
    {
      batched = true;
      batch_bytes = 16 * 1024 * 1024;
      stateful = true;
      use_hints = false;
    }

  (** A query key: [hint_ts] is the timestamp of the secondary-index entry
      that produced it (0 = no hint).  With [use_hints], components whose
      maxTS is below the hint cannot hold the sought version and are
      skipped before their Bloom filter is even probed. *)
  type query_key = { qkey : K.t; hint_ts : int }

  let plain_keys keys = Array.map (fun k -> { qkey = k; hint_ts = 0 }) keys

  (** [lookup_one t key] is the newest entry for [key] across the memory
      component and all disk components ([None] if the key was never
      written or its newest disk entry is bitmap-invalidated).  The
      single-key path used by ingestion-time point lookups.

      A bitmap-invalidated hit terminates the search: the bit means the
      entry was deleted or superseded, and any superseding version is
      strictly newer, hence already searched. *)
  let lookup_one t key =
    Lsm_sim.Env.span t.env ~cat:(name t) "lsm.lookup" @@ fun () ->
    match mem_find t key with
    | Some r ->
        Lsm_sim.Env.explain_count t.env "mem_hits" 1;
        Some r
    | None ->
        let rec go = function
          | [] -> None
          | c :: rest ->
              Lsm_sim.Env.explain_count t.env "components_probed" 1;
              if probe_bloom t c key then
                match Dbt.find t.env c.tree key with
                | Some (pos, row) -> if row_valid c pos then Some row else None
                | None ->
                    note_bloom_fp t c;
                    go rest
              else go rest
        in
        go t.disk

  (** [disk_find t key] locates the newest *disk* entry for [key] as
      (component, row position, row), ignoring the memory component and any
      validity bitmap (callers inspect validity themselves).  Used by the
      Mutable-bitmap strategy to find the bit to flip (Sec. 5.2). *)
  let disk_find t key =
    let rec go = function
      | [] -> None
      | c :: rest -> (
          if probe_bloom t c key then
            match Dbt.find t.env c.tree key with
            | Some (pos, row) -> Some (c, pos, row)
            | None ->
                note_bloom_fp t c;
                go rest
          else go rest)
    in
    go t.disk

  (** [component_row_valid c i] consults the validity bitmap. *)
  let component_row_valid = row_valid

  (** [rows_of c] is the component's row array (no I/O charged — callers
      that walk it outside a scan must charge explicitly). *)
  let rows_of c = Dbt.rows c.tree

  (** [charge_component_scan t c] charges the I/O and CPU of a full
      sequential scan of [c] without materializing anything (standalone
      repair reads the component it is repairing; merge repair gets the
      rows for free as a by-product of the merge scan, Fig. 7). *)
  let charge_component_scan t c =
    Lsm_sim.Sfile.scan_all t.env (Dbt.file c.tree);
    Lsm_sim.Env.charge_entry_visits t.env (Dbt.nrows c.tree)

  (** [mem_filter t] is the memory component's current range-filter
      bounds (the union over shards), if the tree has a filter and the
      component is non-empty. *)
  let mem_filter t =
    if t.filter_of = None then None
    else
      Array.fold_left
        (fun acc m ->
          if m.fmin <= m.fmax then
            match acc with
            | None -> Some (m.fmin, m.fmax)
            | Some (a, b) -> Some (min a m.fmin, max b m.fmax)
          else acc)
        None t.mems

  (** [lookup_batch t opts qkeys ~emit] resolves many point lookups.
      [qkeys] must be sorted ascending by key.  [emit key row_opt] is
      called exactly once per query key; emission order is the fetch order
      (memory hits, then per-component hits newest-to-oldest within each
      batch), which for the batched algorithm is *not* global key order —
      the trade-off Fig. 12d measures. *)
  let lookup_batch t opts qkeys ~emit =
    let nq = Array.length qkeys in
    if nq > 0 then
      Lsm_sim.Env.span t.env ~cat:(name t)
        (if opts.batched then "lsm.lookup.batched" else "lsm.lookup.naive")
      @@ fun () ->
      begin
      Lsm_sim.Env.explain_annotate t.env
        [
          ("keys", string_of_int nq);
          ("stateful", string_of_bool opts.stateful);
          ("hints", string_of_bool opts.use_hints);
        ];
      let comps = Array.of_list t.disk in
      let cursors =
        if opts.stateful then
          Some (Array.map (fun c -> Dbt.Cursor.create c.tree) comps)
        else None
      in
      let find_in ci key =
        match cursors with
        | Some cs -> Dbt.Cursor.find t.env cs.(ci) key
        | None -> Dbt.find t.env comps.(ci).tree key
      in
      let per_batch =
        if not opts.batched then 1
        else begin
          let key_bytes =
            K.byte_size qkeys.(0).qkey + 16 (* ts + found slot *)
          in
          max 1 (opts.batch_bytes / key_bytes)
        end
      in
      let start = ref 0 in
      while !start < nq do
        let stop = min nq (!start + per_batch) in
        let bn = stop - !start in
        let resolved = Array.make bn false in
        let remaining = ref bn in
        let resolve i key row_opt =
          resolved.(i) <- true;
          decr remaining;
          emit key row_opt
        in
        (* Memory component first. *)
        for i = 0 to bn - 1 do
          match mem_find t qkeys.(!start + i).qkey with
          | Some r ->
              Lsm_sim.Env.explain_count t.env "mem_hits" 1;
              resolve i qkeys.(!start + i).qkey (Some r)
          | None -> ()
        done;
        (* Components newest to oldest; each component visited once per
           batch, its candidate keys probed in ascending order. *)
        let ci = ref 0 in
        while !remaining > 0 && !ci < Array.length comps do
          let c = comps.(!ci) in
          for i = 0 to bn - 1 do
            if not resolved.(i) then begin
              let qk = qkeys.(!start + i) in
              let skip = opts.use_hints && c.cmax_ts < qk.hint_ts in
              if skip then
                Lsm_sim.Env.explain_count t.env "hint_skips" 1
              else begin
                Lsm_sim.Env.explain_count t.env "components_probed" 1;
                if probe_bloom t c qk.qkey then
                  match find_in !ci qk.qkey with
                  | Some (pos, row) ->
                      (* A bitmap-invalidated hit resolves the key to absent:
                         any superseding version is strictly newer and was
                         already searched. *)
                      if row_valid c pos then resolve i qk.qkey (Some row)
                      else resolve i qk.qkey None
                  | None -> note_bloom_fp t c
              end
            end
          done;
          incr ci
        done;
        for i = 0 to bn - 1 do
          if not resolved.(i) then emit qkeys.(!start + i).qkey None
        done;
        start := stop
      done
    end

  (* ------------------------------------------------------------------ *)
  (* Scans *)

  type scan_spec = {
    lo : K.t option;  (** inclusive *)
    hi : K.t option;  (** inclusive *)
    reconcile : bool;
        (** newest-wins semantics across components; [false] scans each
            component independently (Mutable-bitmap strategy, Sec. 6.4.2) *)
    respect_bitmap : bool;
    include_mem : bool;
    emit_del : bool;
        (** also emit anti-matter entries that win reconciliation (needed
            by validation logic that must see deletions; default: queries
            only see live data) *)
    only : disk_component list option;
        (** restrict to these disk components (newest-first); [None] = all.
            Callers use this for range-filter pruning. *)
  }

  let full_scan_spec =
    {
      lo = None;
      hi = None;
      reconcile = true;
      respect_bitmap = true;
      include_mem = true;
      emit_del = false;
      only = None;
    }

  (* Materialize the in-range slice of the memory component: each shard
     contributes its sorted in-range rows; shard key sets are disjoint,
     so sorting the concatenation reproduces the single-memtable slice
     byte for byte. *)
  let mem_slice t spec =
    if not spec.include_mem then [||]
    else begin
      let hi_ok k =
        match spec.hi with
        | None -> true
        | Some h ->
            Lsm_sim.Env.charge_comparisons t.env 1;
            K.compare k h <= 0
      in
      let count = ref 0 in
      let slice_one m =
        let buf = ref [] in
        (match spec.lo with
        | None ->
            Mbt.iter m.table (fun k (ts, e) ->
                if hi_ok k then begin
                  buf := { key = k; ts; value = e } :: !buf;
                  incr count
                end)
        | Some lo ->
            Mbt.iter_from m.table lo (fun k (ts, e) ->
                if hi_ok k then begin
                  buf := { key = k; ts; value = e } :: !buf;
                  incr count;
                  true
                end
                else false));
        Array.of_list (List.rev !buf)
      in
      let rows =
        if Array.length t.mems = 1 then slice_one t.mems.(0)
        else begin
          let all =
            Array.concat (Array.to_list (Array.map slice_one t.mems))
          in
          Array.sort
            (fun a b ->
              Lsm_sim.Env.charge_comparisons t.env 1;
              K.compare a.key b.key)
            all;
          all
        end
      in
      charge_mem_cmps t;
      Lsm_sim.Env.charge_entry_visits t.env !count;
      rows
    end

  (* Reconciling scan served from the sorted view: one anchor binary
     search plus bounded per-run gallops to position, then a sequential
     walk of the selector stream 2-way merged with the memory slice
     (memory is strictly newer than every disk component, so it wins
     ties).  Within a disk key group the winner is the first live
     position — runs are ordered newest-first — which reproduces the heap
     path's semantics exactly, including "an older valid duplicate wins
     when the newest is bitmap-invalidated". *)
  let scan_view t spec ~f =
    let comps_a = Array.of_list t.disk in
    let v = ensure_view t comps_a in
    let mask =
      match spec.only with
      | None -> None
      | Some cs ->
          let m = Array.make (Array.length comps_a) false in
          List.iter
            (fun c ->
              Array.iteri (fun i c' -> if c' == c then m.(i) <- true) comps_a)
            cs;
          Some m
    in
    let valid r i = (not spec.respect_bitmap) || row_valid comps_a.(r) i in
    let it = View.start t.env v ~lo:spec.lo ~hi:spec.hi ~mask ~valid in
    let mem_rows = mem_slice t spec in
    let nm = Array.length mem_rows in
    let mi = ref 0 in
    let vnext = ref (View.next t.env it) in
    let emit row ~src_repaired =
      match row.value with
      | Entry.Put _ -> f row ~src_repaired
      | Entry.Del -> if spec.emit_del then f row ~src_repaired
    in
    let continue = ref true in
    while !continue do
      match (!mi < nm, !vnext) with
      | false, None -> continue := false
      | true, None ->
          emit mem_rows.(!mi) ~src_repaired:0;
          incr mi
      | false, Some (_, r, row) ->
          emit row ~src_repaired:comps_a.(r).repaired_ts;
          vnext := View.next t.env it
      | true, Some (vk, r, row) ->
          let m = mem_rows.(!mi) in
          Lsm_sim.Env.charge_comparisons t.env 1;
          let c = K.compare m.key vk in
          if c < 0 then begin
            emit m ~src_repaired:0;
            incr mi
          end
          else begin
            (if c = 0 then begin
               (* Memory supersedes the whole disk group. *)
               emit m ~src_repaired:0;
               incr mi
             end
             else emit row ~src_repaired:comps_a.(r).repaired_ts);
            vnext := View.next t.env it
          end
    done;
    Lsm_sim.Env.explain_count t.env "view_scans" 1;
    Lsm_sim.Env.explain_count t.env "view_segments" (View.segments it);
    Lsm_sim.Env.explain_count t.env "view_rows_skipped" (View.skipped it);
    let vs = Lsm_sim.Env.view_stats t.env in
    vs.Lsm_sim.Env.segments <- vs.Lsm_sim.Env.segments + View.segments it;
    vs.Lsm_sim.Env.rows_skipped <-
      vs.Lsm_sim.Env.rows_skipped + View.skipped it;
    vs.Lsm_sim.Env.rows_emitted <- vs.Lsm_sim.Env.rows_emitted + View.emitted it

  (* A reconciling scan prefers the sorted view.  The cases that keep the
     heap merge (so it stays a runtime path, not only a test oracle):
     - fewer than [view_min_components] disk components: there is no
       multi-way merge for a view to precompute;
     - an [only]-restricted scan without a fresh view: it reuses a fresh
       view through a run mask but never *triggers* a build — repair and
       time-range scans run right after merges, and rebuilding the whole
       view to read a component subset would tax ingest;
     - non-reconciling scans, which stream components one by one;
     - views turned off ({!set_sorted_views}): the heap merge is the
       differential oracle the view suite compares against. *)
  let view_usable t spec =
    spec.reconcile && t.views_enabled
    && List.length t.disk >= view_min_components
    &&
    match spec.only with
    | None -> true
    | Some [] -> false
    | Some cs -> (
        match t.view with
        | Some (_, built) ->
            view_matches (Array.of_list t.disk) built
            && List.for_all (fun c -> List.memq c t.disk) cs
        | None -> false)

  (** [scan t spec ~f] streams entries to [f row ~src_repaired], where
      [src_repaired] is the [repaired_ts] of the entry's source component
      (0 for the memory component — never repaired).  With [reconcile],
      output is in ascending key order with newest-wins semantics and
      anti-matter suppressing older entries (anti-matter itself is emitted
      only under [emit_del]).  Without it, components are emitted one by
      one, memory first then newest-to-oldest, each in key order. *)
  let scan t spec ~f =
    let comps =
      match spec.only with Some cs -> cs | None -> t.disk
    in
    let in_hi k =
      match spec.hi with
      | None -> true
      | Some h ->
          Lsm_sim.Env.charge_comparisons t.env 1;
          K.compare k h <= 0
    in
    if view_usable t spec then scan_view t spec ~f
    else if spec.reconcile then begin
      (if t.views_enabled && List.length t.disk >= view_min_components then begin
         let vs = Lsm_sim.Env.view_stats t.env in
         vs.Lsm_sim.Env.fallbacks <- vs.Lsm_sim.Env.fallbacks + 1
       end);
      (* Streams: 0 = memory (newest), then disk components in order. *)
      let mem_rows = mem_slice t spec in
      let mem_pos = ref 0 in
      let comps_a = Array.of_list comps in
      let scans =
        Array.map (fun c -> Dbt.Scan.seek t.env c.tree spec.lo) comps_a
      in
      let cmp (k1, p1, _) (k2, p2, _) =
        Lsm_sim.Env.charge_comparisons t.env 1;
        let c = K.compare k1 k2 in
        if c <> 0 then c else compare (p1 : int) p2
      in
      let heap = Lsm_util.Heap.create cmp in
      let push_mem () =
        if !mem_pos < Array.length mem_rows then begin
          let r = mem_rows.(!mem_pos) in
          incr mem_pos;
          if in_hi r.key then Lsm_util.Heap.push heap (r.key, 0, r)
        end
      in
      let rec push_disk p =
        match Dbt.Scan.next t.env scans.(p) with
        | None -> ()
        | Some (i, row) ->
            if not (in_hi row.key) then ()
            else if
              spec.respect_bitmap && not (row_valid comps_a.(p) i)
            then push_disk p
            else Lsm_util.Heap.push heap (row.key, p + 1, row)
      in
      push_mem ();
      Array.iteri (fun p _ -> push_disk p) comps_a;
      let last_key = ref None in
      while not (Lsm_util.Heap.is_empty heap) do
        let k, p, row = Lsm_util.Heap.pop heap in
        let src_repaired =
          if p = 0 then 0 else comps_a.(p - 1).repaired_ts
        in
        if p = 0 then push_mem () else push_disk (p - 1);
        let dup =
          match !last_key with
          | Some lk ->
              Lsm_sim.Env.charge_comparisons t.env 1;
              K.compare lk k = 0
          | None -> false
        in
        last_key := Some k;
        if not dup then
          match row.value with
          | Entry.Put _ -> f row ~src_repaired
          | Entry.Del -> if spec.emit_del then f row ~src_repaired
      done
    end
    else begin
      (* Component-at-a-time: bitmaps have already removed stale versions,
         so no cross-component reconciliation is necessary. *)
      let emit_mem () =
        Array.iter
          (fun r ->
            match r.value with
            | Entry.Put _ -> f r ~src_repaired:0
            | Entry.Del -> if spec.emit_del then f r ~src_repaired:0)
          (mem_slice t spec)
      in
      emit_mem ();
      List.iter
        (fun c ->
          let s = Dbt.Scan.seek t.env c.tree spec.lo in
          let continue = ref true in
          while !continue do
            match Dbt.Scan.next t.env s with
            | None -> continue := false
            | Some (i, row) ->
                if not (in_hi row.key) then continue := false
                else if spec.respect_bitmap && not (row_valid c i) then ()
                else
                  (match row.value with
                  | Entry.Put _ -> f row ~src_repaired:c.repaired_ts
                  | Entry.Del ->
                      if spec.emit_del then f row ~src_repaired:c.repaired_ts)
          done)
        comps
    end

  (* ------------------------------------------------------------------ *)
  (* Bitmap and repair bookkeeping *)

  (** [ensure_bitmap c] allocates an all-valid bitmap on demand. *)
  let ensure_bitmap c =
    match c.bitmap with
    | Some b -> b
    | None ->
        let b = Lsm_util.Bitset.create (Dbt.nrows c.tree) in
        c.bitmap <- Some b;
        b

  (** [invalidate c pos] marks entry [pos] of [c] invalid (bit 0 -> 1). *)
  let invalidate c pos = Lsm_util.Bitset.set (ensure_bitmap c) pos

  (** [revalidate c pos] flips a bit back (aborts only; Sec. 5.2). *)
  let revalidate c pos =
    match c.bitmap with Some b -> Lsm_util.Bitset.clear b pos | None -> ()

  let set_repaired_ts c ts = c.repaired_ts <- ts

  (** [find_position t c key] locates [key]'s row index within component
      [c], charging the lookup (used by Mutable-bitmap deletes to find the
      bit to set). *)
  let find_position t c key =
    if Dbt.is_empty c.tree then None
    else begin
      let i = Dbt.lower_bound_row t.env c.tree key in
      if i < Dbt.nrows c.tree then begin
        Lsm_sim.Env.charge_comparisons t.env 1;
        if K.compare (Dbt.keys c.tree).(i) key = 0 then Some i else None
      end
      else None
    end
end
