(** A generic LSM-tree over the simulated storage substrate.

    Keys are ints.  A tree names a row by its primary key, or, in a
    secondary index, by (secondary key, primary key), the pk kept in a
    second int column ({!layout}).  Entries are timestamped; component IDs
    are (minTS, maxTS) ranges over entry timestamps, as in Fig. 1.

    The tree itself knows nothing about maintenance strategies: it offers
    writes into the memory component, flush, merge of a contiguous
    component range, reconciling and per-component scans, and the point
    lookup algorithms of Sec. 3.2.  Strategy logic lives in [Lsm_core]. *)

module Entry = Entry
module Config = Config
module Merge_policy = Merge_policy
module Fault_point = Lsm_sim.Fault_point
module Mbt = Lsm_btree.Mem_btree
module Dbt = Lsm_btree.Disk_btree

(* The pk of position [i] of the key columns [keys] and [pks]: its key
   when [pks] is empty. *)
let[@inline] pk_in keys pks i =
  if Array.length pks = 0 then keys.(i) else pks.(i)

(* Whether row [i] is anti-matter in the bit column [dels]: bit [i land 7]
   of byte [i lsr 3], and none at all when [dels] is empty. *)
let[@inline] del_in dels i =
  Bytes.length dels > 0
  && Bytes.get_uint8 dels (i lsr 3) land (1 lsl (i land 7)) <> 0

(* The value of [Put] row [i] in the value column [vals], which holds one
   slot per row, or a single slot for all of them. *)
let[@inline] value_in vals i =
  if Array.length vals = 1 then vals.(0) else vals.(i)

(** How a tree names its rows; see the module header. *)
type layout = Pk | Sk_pk


(** Provenance of a disk component w.r.t. memory-shard flushes: which
    flush operation(s) produced its rows.  Lives outside the functor so
    the provenance of components from *different* [Make] instances (the
    primary / primary-key pair of a dataset, whose flush histories are
    identical by construction) can be compared.  A merged component
    carries the concatenation of its inputs' origins, newest first. *)
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

(** One disk component as Inspect reports it; see {!tree}. *)
type component_summary = {
  cs_id : int * int;
  cs_rows : int;
  cs_bytes : int;
  cs_bloom : bool;
  cs_bitmap : bool;
  cs_repaired_ts : int;
}

(** A tree with its value type erased: the operations a dataset runs on
    every one of its trees alike, closed over one [Make] instance's tree
    by [Make.erase].  Lives outside the functor so the
    differently-typed trees of one dataset fit in one array. *)
type tree = {
  name : string;
  mem_bytes : unit -> int;
  mem_shard_bytes : int -> int;
  flush : ?shard:int -> unit -> unit;
  reset_memory : unit -> unit;
  disk_size_bytes : unit -> int;
  set_sorted_views : bool -> unit;
  quarantine_corrupt : unit -> unit;
  quarantined_count : unit -> int;
  summaries : unit -> component_summary list;
}

module type VALUE = sig type t val byte_size : t -> int end

module Make (V : VALUE) = struct
  type row = { key : int; ts : int; value : V.t option }

  type mem_component = {
    table : V.t Entry.t Mbt.t;
        (** (key, pk) -> the entry as written, its timestamp in the
            leaves' timestamp column *)
    mutable bytes : int;
    mutable min_ts : int;  (** max_int when empty *)
    mutable max_ts : int;  (** -1 when empty *)
    mutable fmin : int;  (** range filter bounds; max_int/min_int = empty *)
    mutable fmax : int;
  }

  type disk_component = {
    tree : Dbt.t;
        (** the key index; its key columns are {!Dbt.keys} and
            {!Dbt.pks} *)
    tss : int array;  (** each row's timestamp, by position *)
    vals : V.t array;
        (** the [Put] rows' values, by position (read through
            {!value_at}): one slot per row, an anti-matter row's slot
            holding another row's value; a single slot when every [Put]
            value is physically the same (always so for [unit]); empty
            without a [Put] row *)
    dels : Bytes.t;
        (** the anti-matter bits, by position (bit [i land 7] of byte
            [i lsr 3]); empty when no row is anti-matter *)
    bloom : Lsm_bloom.Filter.t option;
    cmin_ts : int;  (** component ID lower bound *)
    cmax_ts : int;  (** component ID upper bound *)
    range_filter : (int * int) option;
    fkeys : int array Lazy.t;
        (** each row's filter key ({!no_fkey} for anti-matter), aligned
            with the rows; empty for a tree without range filters.  Built
            by the first filtered scan that reads the component: built at
            every flush and merge, these arrays raised the peak heap of an
            ingest-only run that never scans by time. *)
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
        (** flush provenance, newest first; never empty: a flush stamps
            one origin and {!install} concatenates its inputs' *)
  }

  type t = {
    env : Lsm_sim.Env.t;
    config : Config.t;
    pk_col : bool;  (** the [Sk_pk] layout: rows carry a pk column *)
    filter_of : (V.t -> int) option;
        (** extracts the range-filter key from a value; [None] = no filter *)
    mems : mem_component array;
        (** memory shards; writes hash-route by key.  Length 1 behaves
            exactly like the classic single memory component. *)
    mutable disk : disk_component array;
        (** newest first; every change installs a fresh array, so an
            array once read is a stable snapshot *)
    mutable view : (Sorted_view.t * disk_component array) option;
        (** REMIX-style sorted view over the *current* [disk] array (the
            very array it was built from), built lazily by the first
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
    mutable found_in : disk_component array;
    mutable found_at : int;
        (** the walked array and component index of {!find_newest}'s last
            hit, so the walk returns a bare position; [found_in] is
            emptied whenever [disk] changes, so it never keeps a deleted
            component alive *)
    mutable mem_ts : int;  (** the timestamp of {!mem_find}'s last hit *)
  }

  let fresh_mem ~pk_col filter_of =
    {
      table = Mbt.create ~fkeys:(filter_of <> None) ~pks:pk_col ();
      bytes = 0;
      min_ts = max_int;
      max_ts = -1;
      fmin = max_int;
      fmax = min_int;
    }

  let create ?filter_of ?(layout = Pk) env config =
    let pk_col = layout = Sk_pk in
    {
      env;
      config;
      pk_col;
      filter_of;
      mems =
        Array.init (max 1 config.Config.shards) (fun _ ->
            fresh_mem ~pk_col filter_of);
      disk = [||];
      view = None;
      views_enabled = true;
      next_seq = 0;
      tombstone_drop_ts = max_int;
      found_in = [||];
      found_at = -1;
      mem_ts = 0;
    }

  let mem_shards t = Array.length t.mems

  (** [row_hash t key pk] is the row's Bloom and shard-routing hash. *)
  let[@inline] row_hash t key pk =
    if t.pk_col then Lsm_bloom.Hashing.mix64 (Lsm_bloom.Hashing.mix64 key lxor pk)
    else Lsm_bloom.Hashing.mix64 key

  (** [shard_of t key pk] is the memory shard the row routes to.  The
      hash is re-mixed so shard routing stays independent of any outer
      partition-by-key routing that used the row hash directly. *)
  let shard_of t key pk =
    let n = Array.length t.mems in
    if n = 1 then 0
    else Lsm_bloom.Hashing.mix64 (row_hash t key pk) land max_int mod n

  (* The serialized size of an entry: key (16 bytes with its pk),
     timestamp, value. *)
  let entry_size t value =
    (if t.pk_col then 16 else 8) + 8 + Entry.byte_size V.byte_size value

  (* [entry_size] of row [i] of the columns [vals] and [dels]. *)
  let entry_size_at t vals dels i =
    (if t.pk_col then 16 else 8)
    + 8
    + if del_in dels i then 0 else V.byte_size (value_in vals i)

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
  let components t = t.disk

  let component_count t = Array.length t.disk
  let component_id c = (c.cmin_ts, c.cmax_ts)
  let component_rows c = Dbt.nrows c.tree
  let component_size_bytes t c = Dbt.size_bytes t.env c.tree
  let quarantined c = c.quarantined

  (** [quarantine t c] marks [c] degraded (see {!disk_component}); counted
      once per component in the environment's resilience stats. *)
  let quarantine t c =
    if not c.quarantined then begin
      c.quarantined <- true;
      let r = Lsm_sim.Env.resil t.env in
      r.Lsm_sim.Env.quarantines <- r.Lsm_sim.Env.quarantines + 1
    end

  (** [quarantine_corrupt t] quarantines every component whose backing
      file holds a page that failed its checksum. *)
  let quarantine_corrupt t =
    Array.iter
      (fun c ->
        let file = Lsm_sim.Sfile.id (Dbt.file c.tree) in
        if (not c.quarantined) && Lsm_sim.Env.file_corrupt t.env ~file then
          quarantine t c)
      t.disk

  let quarantined_count t =
    Array.fold_left (fun a c -> if c.quarantined then a + 1 else a) 0 t.disk

  let disk_size_bytes t =
    Array.fold_left (fun acc c -> acc + component_size_bytes t c) 0 t.disk

  (* A loop, not a fold: a fold's closure would capture [Mbt] and
     allocate on every write and memory probe. *)
  let charge_mem_cmps t =
    let c = ref 0 in
    for i = 0 to Array.length t.mems - 1 do
      c := !c + Mbt.take_comparisons t.mems.(i).table
    done;
    Lsm_sim.Env.charge_comparisons t.env !c

  (* ------------------------------------------------------------------ *)
  (* Sorted views (REMIX): lifecycle *)

  (** Views only pay off when a scan would otherwise merge multiple
      streams. *)
  let view_min_components = 2

  (** [invalidate_view t] drops the sorted view, if any.  Called
      immediately before *every* assignment of [t.disk] ({!set_disk}, for
      flush, install and remove_component): the drop and the list
      mutation are adjacent non-raising stores, so a crash — which in
      this simulator is an exception at a fault point — can never observe
      a view describing a component set that no longer exists.  Recovery
      needs no view repair: a rebuilt tree starts with [view = None] and
      the next reconciling scan rebuilds it from the surviving
      components. *)
  let invalidate_view t =
    match t.view with
    | None -> ()
    | Some (v, _) ->
        t.view <- None;
        Sorted_view.release t.env v;
        let vs = Lsm_sim.Env.view_stats t.env in
        vs.Lsm_sim.Env.invalidations <- vs.Lsm_sim.Env.invalidations + 1

  (* The one way [t.disk] changes: drop the view and forget the last
     probe hit (whose array may hold components about to be deleted),
     then install [comps]. *)
  let set_disk t comps =
    invalidate_view t;
    t.found_in <- [||];
    t.disk <- comps

  (** [set_sorted_views t on] toggles the subsystem at runtime (the heap
      merge remains the fallback and the differential-test oracle). *)
  let set_sorted_views t on =
    if not on then invalidate_view t;
    t.views_enabled <- on

  (** [view_info t] is [(positions, anchors, run count)] of the current
      view, if one is materialized. *)
  let view_info t =
    match t.view with
    | None -> None
    | Some (v, _) ->
        Some (Sorted_view.(positions v, anchor_count v, run_count v))

  (* Build (or reuse) the view covering exactly [comps_a] = the current
     disk list.  The build is charged through [Env] (merge comparisons +
     sequential view-page writes) inside its own span, so explain plans
     and traces show rebuild cost where it happens. *)
  let ensure_view t comps_a =
    match t.view with
    | Some (v, built) when built == comps_a -> v
    | _ ->
        invalidate_view t;
        Lsm_sim.Env.span t.env ~cat:(name t) "lsm.view.build" @@ fun () ->
        let v = Sorted_view.build t.env (Array.map (fun c -> c.tree) comps_a) in
        Lsm_sim.Env.explain_count t.env "view_build_rows" (Sorted_view.positions v);
        t.view <- Some (v, comps_a);
        v

  (* ------------------------------------------------------------------ *)
  (* Writes *)

  (** The filter-key column's entry for anti-matter, and for every row of
      a tree without range filters. *)
  let no_fkey = Lsm_btree.Mem_btree.no_fkey

  (* A row's filter-key column entry: its value's filter key for a [Put]
     in a tree with range filters, else [no_fkey].  Memory leaves and
     disk components store it beside the keys, so a filtered scan tests
     rows without reading them. *)
  let fkey_of t = function
    | Entry.Put v -> ( match t.filter_of with Some f -> f v | None -> no_fkey)
    | Entry.Del -> no_fkey


  (** [widen_filter t key pk fkey] widens the range filter of the memory
      shard owning the row to cover [fkey].  The Eager strategy calls this
      with the *old* record's filter key on upserts and deletes so that
      queries do not erroneously prune the memory component (Sec. 3.1);
      Validation and Mutable-bitmap deliberately do not (Secs. 4.2,
      5.2).  The row routes the widening to the shard that received the
      same-key write, so a per-shard flush carries its filter. *)
  let widen_filter t key pk fkey =
    if t.filter_of <> None then begin
      let m = t.mems.(shard_of t key pk) in
      if fkey < m.fmin then m.fmin <- fkey;
      if fkey > m.fmax then m.fmax <- fkey
    end

  (** [write t ~key ~pk ~ts entry] adds an entry for the row (key, pk)
      to the memory component.  A same-row write replaces the previous
      in-memory entry (newest wins within a component).  [Put] values
      widen the range filter. *)
  let write t ~key ~pk ~ts entry =
    let m = t.mems.(shard_of t key pk) in
    let fkey = fkey_of t entry in
    let old = Mbt.put m.table key pk ~ts ~fkey entry in
    charge_mem_cmps t;
    (match old with
    | Some old_e -> m.bytes <- m.bytes - entry_size t old_e
    | None -> ());
    m.bytes <- m.bytes + entry_size t entry;
    if ts < m.min_ts then m.min_ts <- ts;
    if ts > m.max_ts then m.max_ts <- ts;
    (match (entry, t.filter_of) with
    | Entry.Put _, Some _ -> widen_filter t key pk fkey
    | _ -> ());
    Lsm_sim.Env.charge_entry_visits t.env 1

  (** [mem_rollback t ~key ~pk ~prior] undoes a memory-component write
      as part of transaction rollback (Sec. 2.2: in-memory changes are
      rolled back by applying inverse operations): the current entry for
      the row is removed and [prior] — the binding that the aborted write
      replaced, if any — is restored.  Byte accounting follows; the
      component ID and filter bounds remain conservatively widened, which
      is safe. *)
  let mem_rollback t ~key ~pk ~prior =
    let m = t.mems.(shard_of t key pk) in
    (match Mbt.remove m.table key pk with
    | Some old_e -> m.bytes <- m.bytes - entry_size t old_e
    | None -> ());
    (match prior with
    | Some (ts, entry) ->
        ignore (Mbt.put m.table key pk ~ts ~fkey:(fkey_of t entry) entry);
        m.bytes <- m.bytes + entry_size t entry
    | None -> ());
    charge_mem_cmps t

  (** [reset_memory t] discards the memory component (crash simulation:
      under no-steal/no-force, everything unflushed is volatile). *)
  let reset_memory t =
    Array.iteri
      (fun i _ -> t.mems.(i) <- fresh_mem ~pk_col:t.pk_col t.filter_of)
      t.mems

  (** [mem_find t key pk] searches only the memory component for the row
      (key, pk): its entry, if any, with the timestamp then {!mem_ts}. *)
  let mem_find t key pk =
    let table = t.mems.(shard_of t key pk).table in
    let r = Mbt.find table key pk in
    charge_mem_cmps t;
    if Option.is_some r then begin
      t.mem_ts <- Mbt.found_ts table;
      Lsm_sim.Env.charge_entry_visits t.env 1
    end;
    r

  let mem_ts t = t.mem_ts

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

  (* The rows (k1, p1) and (k2, p2), compared inline: by key, then (in
     a tree with a pk column) by pk. *)
  let[@inline] cmp_rows t (k1 : int) (p1 : int) k2 p2 =
    if k1 < k2 then -1
    else if k1 > k2 then 1
    else if t.pk_col then compare p1 p2
    else 0

  (* One charged row comparison: several memory shards sort their
     concatenation with it, and a view-served scan orders the memory head
     against the view's with it. *)
  let[@inline] compare_rows t k1 p1 k2 p2 =
    Lsm_sim.Env.charge_comparisons t.env 1;
    cmp_rows t k1 p1 k2 p2

  (* The probe family names a row by its key, which must be its pk. *)
  let check_pk_keyed t what =
    if t.pk_col then invalid_arg ("Lsm_tree." ^ what ^ ": needs a Pk-layout tree")

  (* ------------------------------------------------------------------ *)
  (* The newest-first component probe *)

  (* [bloom_maybe t c key] probes [c]'s Bloom filter: one probe counted,
     its hashes and cache lines charged, a negative counted.  A
     filterless component answers "maybe" for free; a quarantined one
     takes the degraded path: its filter cannot be trusted (a corrupt
     filter's false negative would silently lose data), so the probe is
     counted as degraded and falls through to the B+-tree, which
     verifies every page it reads. *)
  let bloom_maybe t c key =
    match c.bloom with
    | None -> true
    | Some _ when c.quarantined ->
        let r = Lsm_sim.Env.resil t.env in
        r.Lsm_sim.Env.degraded_probes <- r.Lsm_sim.Env.degraded_probes + 1;
        true
    | Some f ->
        let st = Lsm_sim.Env.stats t.env in
        st.Lsm_sim.Io_stats.bloom_probes <- st.Lsm_sim.Io_stats.bloom_probes + 1;
        Lsm_sim.Env.charge_hashes t.env (Lsm_bloom.Filter.hashes_per_probe f);
        Lsm_sim.Env.charge_cache_lines t.env
          (Lsm_bloom.Filter.cache_lines_per_probe f);
        let maybe = Lsm_bloom.Filter.contains f (row_hash t key key) in
        if not maybe then
          st.Lsm_sim.Io_stats.bloom_negatives <-
            st.Lsm_sim.Io_stats.bloom_negatives + 1;
        maybe

  type cursors = {
    snapshot : disk_component array;
    curs : Dbt.Cursor.cur array;
  }

  let cursors t =
    {
      snapshot = t.disk;
      curs = Array.map (fun c -> Dbt.Cursor.create c.tree) t.disk;
    }

  (* Probe component [i] of the walked snapshot, [c], for [key]: its
     Bloom filter unless [positive] (already probed and positive), then a
     descent — with [i]'s cursor when [cursors] holds one, else from the
     root — and on a miss a false positive, when the filter was
     consulted.  The one place these charges are made.  The hit's row
     position, or [-1]. *)
  let probe_at t cursors ~positive i c key =
    if positive || bloom_maybe t c key then begin
      let pos =
        match cursors with
        | Some k -> Dbt.Cursor.find t.env k.curs.(i) key key
        | None -> Dbt.find t.env c.tree key key
      in
      if pos < 0 && c.bloom <> None && not c.quarantined then begin
        let st = Lsm_sim.Env.stats t.env in
        st.Lsm_sim.Io_stats.bloom_fps <- st.Lsm_sim.Io_stats.bloom_fps + 1
      end;
      pos
    end
    else -1

  let rec walk t cursors comps skip positive key i =
    if i >= Array.length comps then -1
    else
      let c = comps.(i) in
      if skip c then walk t cursors comps skip positive key (i + 1)
      else
        let pos = probe_at t cursors ~positive:(i = positive) i c key in
        if pos >= 0 then begin
          t.found_in <- comps;
          t.found_at <- i;
          pos
        end
        else walk t cursors comps skip positive key (i + 1)

  (** [find_newest t ?cursors ?from ?skip ?positive key]: the row
      position of the newest disk entry for [key] ([-1]: none), probing
      components newest to oldest from [from], passing over those [skip]
      accepts unprobed, until one hits; the
      hit's component is {!found}.  With [cursors], the walk reads their
      snapshot. *)
  let find_newest t ?cursors ?(from = 0) ?(skip = fun _ -> false)
      ?(positive = -1) key =
    check_pk_keyed t "find_newest";
    let comps = match cursors with Some k -> k.snapshot | None -> t.disk in
    walk t cursors comps skip positive key from

  (** [found t] is the component of {!find_newest}'s last hit. *)
  let found t = t.found_in.(t.found_at)

  (** [is_del c i]: whether row [i] of [c] is anti-matter. *)
  let is_del c i = del_in c.dels i

  (** [value_at c i] is the value of [Put] row [i] of [c]. *)
  let value_at c i = value_in c.vals i

  (** [row_at c i] is the row at position [i] of [c], built from its
      columns. *)
  let row_at c i =
    {
      key = (Dbt.keys c.tree).(i);
      ts = c.tss.(i);
      value = (if is_del c i then None else Some (value_at c i));
    }

  (** [first_positive t ?eligible key]: the newest [eligible] component
      whose Bloom filter may hold [key], or [-1]. *)
  let first_positive t ?(eligible = fun _ -> true) key =
    check_pk_keyed t "first_positive";
    let rec go i =
      if i >= Array.length t.disk then -1
      else
        let c = t.disk.(i) in
        if eligible c && bloom_maybe t c key then i else go (i + 1)
    in
    go 0

  (* ------------------------------------------------------------------ *)
  (* Flush *)

  let build_bloom t keys pks =
    match t.config.Config.bloom with
    | None -> None
    | Some { Config.kind; fpr } ->
        let n = Array.length keys in
        let f = Lsm_bloom.Filter.create kind ~expected:n ~fpr in
        for i = 0 to n - 1 do
          Lsm_bloom.Filter.add f
            (row_hash t keys.(i) (pk_in keys pks i))
        done;
        Lsm_sim.Env.charge_hashes t.env (2 * n);
        Some f

  (* A component's value and anti-matter columns under construction,
     row by row in any order: [c_vals] is empty until the first [Put]
     row, then that row's value alone while every [Put] value is
     physically the same, then one slot per row, the slots of anti-matter
     rows keeping the first [Put] row's value. *)
  type columns = {
    c_rows : int;
    mutable c_vals : V.t array;
    mutable c_dels : Bytes.t;
  }

  let columns n = { c_rows = n; c_vals = [||]; c_dels = Bytes.empty }

  let set_put b o v =
    let vs = b.c_vals in
    if Array.length vs = 0 then b.c_vals <- [| v |]
    else if Array.length vs < b.c_rows then begin
      if vs.(0) != v then begin
        let a = Array.make b.c_rows vs.(0) in
        a.(o) <- v;
        b.c_vals <- a
      end
    end
    else vs.(o) <- v

  let set_del b o =
    if Bytes.length b.c_dels = 0 then
      b.c_dels <- Bytes.make ((b.c_rows + 7) / 8) '\000';
    Bytes.set_uint8 b.c_dels (o lsr 3)
      (Bytes.get_uint8 b.c_dels (o lsr 3) lor (1 lsl (o land 7)))

  let copy_row b o c i =
    if is_del c i then set_del b o else set_put b o (value_at c i)

  let built b = (b.c_vals, b.c_dels)

  (* The filter-key column of [n] rows: [f] of each [Put] row's value,
     [no_fkey] for anti-matter.  A function of the columns alone, so the
     lazy column of a component keeps nothing else alive. *)
  let fkey_column f vals dels n =
    Array.init n (fun i -> if del_in dels i then no_fkey else f (value_in vals i))

  (* A component over the row-sorted columns [keys], [pks], [tss],
     [vals], [dels]; the key index keeps [keys] and [pks] as its key
     columns. *)
  let mk_component t ~keys ~pks ~tss ~vals ~dels ~cmin_ts ~cmax_ts
      ~range_filter ~repaired_ts ~prov =
    let n = Array.length keys in
    if
      not
        ((Array.length vals <= 1 || Array.length vals = n)
        && (Bytes.length dels = 0 || Bytes.length dels = (n + 7) / 8))
    then invalid_arg "Lsm_tree: value or anti-matter column of the wrong length";
    let tree =
      Dbt.build t.env ~size_of:(fun i -> entry_size_at t vals dels i) keys pks
    in
    let bloom = build_bloom t keys pks in
    let bitmap =
      if t.config.Config.validity_bitmap then
        Some (Lsm_util.Bitset.create (Array.length keys))
      else None
    in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    {
      tree;
      tss;
      vals;
      dels;
      bloom;
      cmin_ts;
      cmax_ts;
      range_filter;
      fkeys =
        (match t.filter_of with
        | None -> Lazy.from_val [||]
        | Some f -> lazy (fkey_column f vals dels n));
      bitmap;
      repaired_ts;
      quarantined = false;
      seq;
      prov;
    }

  (* One column of the bindings ahead of each slice's cursor (a cursor
     and the count of bindings to read), concatenated in slice order. *)
  let gather slices n read =
    let sh = ref 0 and cur = ref (fst slices.(0)) and left = ref 0 in
    Array.init n (fun _ ->
        while !left = 0 do
          cur := Mbt.copy (fst slices.(!sh));
          left := snd slices.(!sh);
          incr sh
        done;
        decr left;
        ignore (Mbt.step !cur);
        read !cur)

  (* The key, pk ([||] in a [Pk] tree), timestamp, value and anti-matter
     columns of the memory shards [mems], in row order, read straight
     from the memtables.  Several shards are gathered and their row order
     sorted, charged: shard row sets are disjoint, so that reproduces a
     single memtable's order — and the comparisons of sorting its rows —
     exactly.  The value and anti-matter columns are then written by
     sorted position from one more walk over the bindings. *)
  let mem_columns t mems =
    let slices = Array.map (fun m -> (Mbt.seek m.table None 0, Mbt.length m.table)) mems in
    let n = Array.fold_left (fun acc (_, k) -> acc + k) 0 slices in
    let keys = gather slices n Mbt.key
    and pks = if t.pk_col then gather slices n Mbt.pk else [||]
    and tss = gather slices n Mbt.ts in
    let keys, pks, tss, rank =
      if Array.length mems = 1 then (keys, pks, tss, [||])
      else begin
        let order = Array.init n Fun.id in
        Array.sort
          (fun a b ->
            compare_rows t keys.(a) (pk_in keys pks a) keys.(b) (pk_in keys pks b))
          order;
        let sorted col =
          if Array.length col = 0 then col else Array.map (fun i -> col.(i)) order
        in
        let rank = Array.make n 0 in
        Array.iteri (fun r g -> rank.(g) <- r) order;
        (sorted keys, sorted pks, sorted tss, rank)
      end
    in
    let b = columns n and g = ref 0 in
    Array.iter
      (fun (c, k) ->
        let c = Mbt.copy c in
        for _ = 1 to k do
          ignore (Mbt.step c);
          let o = if Array.length rank = 0 then !g else rank.(!g) in
          (match Mbt.value c with
          | Entry.Put v -> set_put b o v
          | Entry.Del -> set_del b o);
          incr g
        done)
      slices;
    (keys, pks, tss, b.c_vals, b.c_dels)

  (* Flush the memory shards [mems] into a fresh newest component, stamped
     with one flush origin ([fo_shard]: the flushed shard, [-1] = all).
     [points] is the (begin, install) fault-point pair — whole-memory and
     per-shard flushes announce distinct pairs, so the crash harness
     enumerates both windows. *)
  let flush_shards t mems ~cmin_ts ~cmax_ts ~range_filter ~fo_shard
      ~points:(begin_point, install_point) ~reset =
    let keys, pks, tss, vals, dels = mem_columns t mems in
    let n = Array.length keys in
    Lsm_sim.Env.span t.env ~cat:(name t) "lsm.flush" @@ fun () ->
    Lsm_sim.Env.fault_point t.env begin_point;
    Lsm_sim.Env.charge_entry_visits t.env n;
    let prov =
      [
        {
          fo_shards = Array.length t.mems;
          fo_shard;
          fo_min_ts = cmin_ts;
          fo_max_ts = cmax_ts;
        };
      ]
    in
    let c =
      mk_component t ~keys ~pks ~tss ~vals ~dels ~cmin_ts ~cmax_ts
        ~range_filter ~repaired_ts:0 ~prov
    in
    set_disk t (Array.append [| c |] t.disk);
    reset ();
    Lsm_obs.Ampstats.on_flush
      (Lsm_sim.Env.amp t.env)
      ~bytes:(component_size_bytes t c) ~rows:n;
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
          flush_shards t [| m |] ~cmin_ts:m.min_ts
            ~cmax_ts:m.max_ts ~range_filter ~fo_shard:s
            ~points:(Fault_point.Lsm_flush_shard_begin, Lsm_flush_shard_install)
            ~reset:(fun () -> t.mems.(s) <- fresh_mem ~pk_col:t.pk_col t.filter_of)
        end
    | None ->
        if not (mem_is_empty t) then begin
          let cmin_ts, cmax_ts = mem_id t in
          flush_shards t t.mems ~cmin_ts ~cmax_ts ~range_filter:(mem_filter t)
            ~fo_shard:(-1)
            ~points:(Fault_point.Lsm_flush_begin, Lsm_flush_install)
            ~reset:(fun () -> reset_memory t)
        end

  (* ------------------------------------------------------------------ *)
  (* Merge *)

  let[@inline] row_valid c i =
    match c.bitmap with None -> true | Some b -> not (Lsm_util.Bitset.get b i)

  (* The row (key, pk) <= (hi, hi_pk), charging the comparison; no bound
     = no comparison. *)
  let[@inline] within_hi t hi hi_pk key pk =
    match hi with
    | None -> true
    | Some h ->
        Lsm_sim.Env.charge_comparisons t.env 1;
        cmp_rows t key pk h hi_pk <= 0

  type scan_spec = {
    lo : int option;  (** inclusive, with [lo_pk] *)
    lo_pk : int;
    hi : int option;  (** inclusive, with [hi_pk] *)
    hi_pk : int;
    reconcile : bool;
        (** newest-wins semantics across components; [false] scans each
            component independently (Mutable-bitmap strategy, Sec. 6.4.2) *)
    respect_bitmap : bool;
    include_mem : bool;
    only : disk_component list option;
        (** restrict to these disk components (newest-first); [None] = all.
            Callers use this for range-filter pruning. *)
    filter : (int * int) option;
        (** emit only [Put] rows whose filter key lies in [\[a, b\]]
            (anti-matter is not filtered); every row is still read,
            reconciled and charged.  Needs a tree with range filters. *)
  }

  let full_scan_spec =
    {
      lo = None;
      lo_pk = min_int;
      hi = None;
      hi_pk = max_int;
      reconcile = true;
      respect_bitmap = true;
      include_mem = true;
      only = None;
      filter = None;
    }

  (* Scans over components, newest first, read by position: source [s]
     scans [comps.(s)] from [lo] up to [hi], skipping the positions its
     bitmap marks invalid (with [bitmap]) and those [valid] rejects; its
     head is row [pos.(s)] ([-1] before the first pull and once
     exhausted).  The seeks run at creation, in source order. *)
  type heads = {
    h_comps : disk_component array;
    h_scans : Dbt.Scan.s array;
    h_keys : int array array;  (** each source's key columns *)
    h_pks : int array array;
    h_pos : int array;
    h_spec : scan_spec;  (** its [hi] and [hi_pk] bound the rows *)
    h_bitmap : bool;
    h_valid : (disk_component -> int -> bool) option;
  }

  (* Scans of the rows [spec] bounds. *)
  let open_heads t spec ~bitmap ?valid comps =
    let h_scans =
      Array.map (fun c -> Dbt.Scan.seek t.env c.tree spec.lo spec.lo_pk) comps
    in
    {
      h_comps = comps;
      h_scans;
      h_keys = Array.map (fun c -> Dbt.keys c.tree) comps;
      h_pks = Array.map (fun c -> Dbt.pks c.tree) comps;
      h_pos = Array.make (Array.length comps) (-1);
      h_spec = spec;
      h_bitmap = bitmap;
      h_valid = valid;
    }

  (* Source [s]'s next row position: [-1] once its rows run out or reach
     a row past [hi].  Charges the rows it reads (a leaf fetch on a
     crossing, an entry visit, a hi comparison). *)
  let[@inline] next_pos t h s =
    let scan = h.h_scans.(s) and c = h.h_comps.(s) in
    let keys = h.h_keys.(s) and pks = h.h_pks.(s) in
    let pos = ref (-2) (* undecided *) in
    while !pos = -2 do
      let i = Dbt.Scan.next t.env scan in
      if
        i < 0
        || not (within_hi t h.h_spec.hi h.h_spec.hi_pk keys.(i) (pk_in keys pks i))
      then pos := -1
      else if
        ((not h.h_bitmap) || row_valid c i)
        && match h.h_valid with None -> true | Some v -> v c i
      then pos := i
    done;
    !pos

  (* Move source [s]'s head to its next row; [false] once exhausted. *)
  let[@inline] pull_head t h s =
    let p = next_pos t h s in
    h.h_pos.(s) <- p;
    p >= 0

  type component_merge = {
    cm_merge : Lsm_util.Kmerge.t;
    cm_heads : int array;
  }

  (* A k-way merge of [h]'s sources by row, one comparison charged per
     heap comparison. *)
  let merge_heads t h =
    let key s = h.h_keys.(s).(h.h_pos.(s)) in
    let pk s = pk_in h.h_keys.(s) h.h_pks.(s) h.h_pos.(s) in
    {
      cm_merge =
        Lsm_util.Kmerge.create (Array.length h.h_comps)
          ~compare:(fun a b ->
            Lsm_sim.Env.charge_comparisons t.env 1;
            (* the pks are read only on a key tie *)
            let c = compare (key a : int) (key b) in
            if c <> 0 || not t.pk_col then c else compare (pk a : int) (pk b))
          ~pull:(pull_head t h);
      cm_heads = h.h_pos;
    }

  (** [merge_components t ?valid comps] merges [comps] (newest first) by
      key, skipping the positions [valid c] rejects (default: none):
      source [s] is [comps.(s)], its head the row position
      [cm_heads.(s)].  One comparison is charged per heap comparison. *)
  let merge_components t ?valid comps =
    merge_heads t (open_heads t full_scan_spec ~bitmap:false ?valid comps)

  (** An in-flight incremental merge: the k-way reconciling merge of
      {!merge} broken into explicit steps so a scheduler can interleave
      several independent merges deterministically on one simulated clock
      (the overlapping-maintenance pipeline).  Between {!merge_start} and
      {!merge_finish} the job only reads its input components and
      accumulates its output rows' positions — [t.disk] is untouched, so
      jobs on *different* trees (or provably disjoint ranges) never
      conflict.  Two concurrent jobs on overlapping ranges of one tree are
      a caller bug. *)
  type merge_job = {
    mj_inputs : disk_component array;
    mj_merge : component_merge;
    mj_out : int Lsm_util.Vec.t;
        (** the merged rows, in key order, each as one int: its position
            times the input count plus its source.  In an array of the
            inputs' row count: a merge never outputs more rows than it
            reads, and an array grown by doubling raised the peak heap of
            ingest *)
    mutable mj_last : int;
    mutable mj_last_pos : int;
        (** source and row position of the row taken last ([-1]: none) *)
    mj_input_bytes : int;
    mj_input_rows : int;
    mj_includes_oldest : bool;
    mj_drop_ts : int;
        (** tombstone barrier captured at start — a concurrent repair
            raising a secondary's repairedTS mid-merge must not change
            this job's output (serial equivalence) *)
  }

  (** [merge_start t ~first ~last] opens an incremental merge of the
      contiguous component range [first..last] (indices into
      {!components}, 0 = newest).  Announces [lsm.merge.begin]. *)
  let merge_start ?extra_invalid t ~first ~last =
    let comps = t.disk in
    let n = Array.length comps in
    if not (0 <= first && first <= last && last < n) then
      invalid_arg "Lsm_tree.merge: bad range";
    let inputs = Array.sub comps first (last - first + 1) in
    Lsm_sim.Env.fault_point t.env Lsm_merge_begin;
    let input_rows =
      Array.fold_left (fun acc c -> acc + component_rows c) 0 inputs
    in
    {
      mj_inputs = inputs;
      mj_merge =
        merge_heads t
          (open_heads t full_scan_spec ~bitmap:true
             ?valid:(Option.map (fun x c i -> not (x c i)) extra_invalid)
             inputs);
      mj_out = Lsm_util.Vec.create ~capacity:input_rows ();
      mj_last = -1;
      mj_last_pos = -1;
      mj_input_bytes =
        Array.fold_left (fun acc c -> acc + component_size_bytes t c) 0 inputs;
      mj_input_rows = input_rows;
      mj_includes_oldest = last = n - 1;
      mj_drop_ts = t.tombstone_drop_ts;
    }

  (** [merge_step t j ~rows] advances the merge by up to [rows] output
      decisions; [false] once the input streams are exhausted. *)
  let merge_step t j ~rows =
    let m = j.mj_merge.cm_merge in
    let k = Array.length j.mj_inputs in
    let keys = Array.map (fun c -> Dbt.keys c.tree) j.mj_inputs in
    let pks = Array.map (fun c -> Dbt.pks c.tree) j.mj_inputs in
    let key s i = keys.(s).(i) and pk s i = pk_in keys.(s) pks.(s) i in
    let rec step budget s =
      if budget = 0 || s < 0 then s >= 0
      else begin
        let i = j.mj_merge.cm_heads.(s) in
        let next = Lsm_util.Kmerge.advance m in
        (* A source's rows strictly increase: only another source's last
           row can equal [s]'s. *)
        let dup =
          j.mj_last >= 0 && j.mj_last <> s
          && key j.mj_last j.mj_last_pos = key s i
          && ((not t.pk_col) || pk j.mj_last j.mj_last_pos = pk s i)
        in
        Lsm_sim.Env.charge_comparisons t.env 1;
        j.mj_last <- s;
        j.mj_last_pos <- i;
        (if not dup then
           let c = j.mj_inputs.(s) in
           if
             not
               (is_del c i && j.mj_includes_oldest
              && c.tss.(i) <= j.mj_drop_ts)
           then Lsm_util.Vec.push j.mj_out ((i * k) + s));
        step (budget - 1) next
      end
    in
    step rows (Lsm_util.Kmerge.top m)

  (** [install t ~inputs ~keys ~pks ~tss ~vals ~dels] replaces [inputs]
      — a contiguous run of the current components, newest first, located
      by physical identity so components prepended meanwhile (per-shard
      flushes overlapping a merge) are tolerated — with one component
      over the row-sorted columns ([pks]: [[||]] in a [Pk] tree; [vals]
      and [dels] as {!columns} builds them).  Its ID range, repairedTS
      (the inputs' minimum), range filter and flush provenance derive
      from the inputs exactly as for a merge.  The inputs' files are
      deleted. *)
  let install t ~inputs ~keys ~pks ~tss ~vals ~dels =
    if Array.length pks <> (if t.pk_col then Array.length keys else 0) then
      invalid_arg "Lsm_tree.install: pk column does not match the layout";
    let k = Array.length inputs in
    let comps = t.disk in
    let n = Array.length comps in
    let rec run_from f i =
      i = k || (comps.(f + i) == inputs.(i) && run_from f (i + 1))
    in
    let rec find f =
      if k = 0 || f + k > n then
        invalid_arg "Lsm_tree.install: inputs are not a run of the tree"
      else if run_from f 0 then f
      else find (f + 1)
    in
    let first = find 0 in
    let last = first + k - 1 in
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
          if last = n - 1 then begin
            (* No anti-matter survives a bottom merge: recompute tightly. *)
            let fmin = ref max_int and fmax = ref min_int in
            for i = 0 to Array.length keys - 1 do
              if not (del_in dels i) then begin
                let x = f (value_in vals i) in
                if x < !fmin then fmin := x;
                if x > !fmax then fmax := x
              end
            done;
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
    let c =
      mk_component t ~keys ~pks ~tss ~vals ~dels ~cmin_ts ~cmax_ts
        ~range_filter ~repaired_ts ~prov
    in
    set_disk t
      (Array.concat
         [
           Array.sub comps 0 first;
           [| c |];
           Array.sub comps (last + 1) (n - last - 1);
         ]);
    Array.iter (fun c -> Dbt.delete t.env c.tree) inputs;
    c

  (** [merge_finish t j] installs the merged component (see {!install}),
      records the merge's amplification and announces
      [lsm.merge.install]. *)
  let merge_finish t j =
    let inputs = j.mj_inputs and out = j.mj_out in
    let k = Array.length inputs in
    let n = Lsm_util.Vec.length out in
    (* Copy each output row's fields from its input, by position. *)
    let column read =
      Array.init n (fun o ->
          let p = Lsm_util.Vec.get out o in
          read inputs.(p mod k) (p / k))
    in
    let b = columns n in
    for o = 0 to n - 1 do
      let p = Lsm_util.Vec.get out o in
      copy_row b o inputs.(p mod k) (p / k)
    done;
    let merged =
      install t ~inputs
        ~keys:(column (fun c i -> (Dbt.keys c.tree).(i)))
        ~pks:(if t.pk_col then column (fun c i -> (Dbt.pks c.tree).(i)) else [||])
        ~tss:(column (fun c i -> c.tss.(i)))
        ~vals:b.c_vals ~dels:b.c_dels
    in
    Lsm_obs.Ampstats.on_merge
      (Lsm_sim.Env.amp t.env)
      ~bytes_read:j.mj_input_bytes
      ~bytes_written:(component_size_bytes t merged)
      ~rows_in:j.mj_input_rows ~rows_out:n;
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

  (** [remove_component t ~at] removes the component at newest-first index
      [at], deleting its file.  Recovery-only: rolls a tree back to a
      crash-consistent cut when a correlated index's flush did not survive
      the crash (the discarded entries are still in the WAL and are redone
      into memory). *)
  let remove_component t ~at =
    let comps = t.disk in
    let n = Array.length comps in
    if not (0 <= at && at < n) then invalid_arg "Lsm_tree.remove_component";
    set_disk t
      (Array.append (Array.sub comps 0 at)
         (Array.sub comps (at + 1) (n - at - 1)));
    Dbt.delete t.env comps.(at).tree

  (** [pick_merge t policy] applies a merge policy to this tree's own
      components (the paper's default: "each LSM-tree is merged
      independently") without merging: the newest-first range
      [Some (first, last)] to hand to {!merge} or {!merge_start}, or
      [None] when no merge is due. *)
  let pick_merge t policy =
    let comps = t.disk in
    let n = Array.length comps in
    (* Policy works oldest-first. *)
    let sizes =
      Array.init n (fun i -> component_size_bytes t comps.(n - 1 - i))
    in
    Option.map
      (fun (f_old, l_old) -> (n - 1 - l_old, n - 1 - f_old))
      (Merge_policy.pick policy ~sizes)

  (* ------------------------------------------------------------------ *)
  (* Flush provenance queries *)

  (** [prov_run t prov]: the run of components whose provenance
      concatenates to exactly [prov] — a lockstep merge's inputs on the
      counterpart tree, which ID nesting cannot find once per-shard
      flushes make ID ranges overlap across shards. *)
  let prov_run t prov =
    let rec strip p rem =
      match (p, rem) with
      | [], rest -> Some rest
      | o :: p, o' :: rem when flush_origin_equal o o' -> strip p rem
      | _ -> None
    in
    (* [Some last] when components [i..last] (the head of [cs] is
       component [i]) concatenate to exactly [rem]. *)
    let rec run i cs rem =
      match (cs, rem) with
      | _, [] -> Some (i - 1)
      | [], _ -> None
      | c :: cs, _ -> Option.bind (strip c.prov rem) (run (i + 1) cs)
    in
    let rec find i = function
      | [] -> None
      | _ :: rest as cs -> (
          match run i cs prov with
          | Some last -> Some (i, last)
          | None -> find (i + 1) rest)
    in
    find 0 (Array.to_list t.disk)

  let id_run t ~lo ~hi =
    let run = ref None in
    Array.iteri
      (fun i c ->
        if c.cmin_ts >= lo && c.cmax_ts <= hi then
          run := Some (match !run with None -> (i, i) | Some (f, _) -> (f, i)))
      t.disk;
    !run

  (** [durable_frontiers t]: timestamps are handed out monotonically and
      a key always routes to the same shard, so every write at or below
      its shard's frontier reached disk in some flush and everything
      above it did not.  A whole-memory origin covers every shard, a
      per-shard origin its own shard (under another shard count,
      nothing). *)
  let durable_frontiers t =
    let n = Array.length t.mems in
    let f = Array.make n 0 in
    let cover s ts = f.(s) <- max f.(s) ts in
    Array.iter
      (fun c ->
        List.iter
          (fun o ->
            if o.fo_shard < 0 then
              for s = 0 to n - 1 do
                cover s o.fo_max_ts
              done
            else if o.fo_shards = n then cover o.fo_shard o.fo_max_ts)
          c.prov)
      t.disk;
    f

  let durable_floor t ~now =
    let f = durable_frontiers t in
    let floor = ref now in
    Array.iteri
      (fun s m -> if not (Mbt.is_empty m.table) then floor := min !floor f.(s))
      t.mems;
    !floor

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
  type query_key = { qkey : int; hint_ts : int }

  let plain_keys keys = Array.map (fun k -> { qkey = k; hint_ts = 0 }) keys

  (* The disk half of {!lookup_one}: a function of its own, so the span's
     closure there captures one function for it, not each one it calls. *)
  let lookup_disk t key =
    let pos = find_newest t key in
    let probed = if pos >= 0 then t.found_at + 1 else Array.length t.disk in
    if probed > 0 then Lsm_sim.Env.explain_count t.env "components_probed" probed;
    if pos >= 0 && row_valid (found t) pos && not (is_del (found t) pos) then
      Some (value_at (found t) pos)
    else None

  (** [lookup_one t key] is the value of the newest entry for [key] across
      the memory component and all disk components, when that entry is a
      [Put] ([None] if the key was never written, its newest entry is
      anti-matter, or its newest disk entry is bitmap-invalidated).  The
      single-key path used by ingestion-time point lookups.

      A bitmap-invalidated hit terminates the search: the bit means the
      entry was deleted or superseded, and any superseding version is
      strictly newer, hence already searched. *)
  let lookup_one t key =
    check_pk_keyed t "lookup_one";
    Lsm_sim.Env.span t.env ~cat:(name t) "lsm.lookup" @@ fun () ->
    match mem_find t key key with
    | Some e ->
        Lsm_sim.Env.explain_count t.env "mem_hits" 1;
        Entry.value e
    | None -> lookup_disk t key

  (** [disk_find t key] locates the newest *disk* entry for [key] as
      (component, row position), ignoring the memory component and any
      validity bitmap (callers inspect validity themselves).  Used by the
      Mutable-bitmap strategy to find the bit to flip (Sec. 5.2). *)
  let disk_find t key =
    let pos = find_newest t key in
    if pos >= 0 then Some (found t, pos) else None

  (** [charge_component_scan t c] charges the I/O and CPU of a full
      sequential scan of [c] without materializing anything (standalone
      repair reads the component it is repairing; merge repair gets the
      rows for free as a by-product of the merge scan, Fig. 7). *)
  let charge_component_scan t c =
    Lsm_sim.Sfile.scan_all t.env (Dbt.file c.tree);
    Lsm_sim.Env.charge_entry_visits t.env (Dbt.nrows c.tree)

  (** [lookup_batch t opts qkeys ~emit] resolves many point lookups.
      [qkeys] must be sorted ascending by key.  [emit key v] is called
      exactly once per query key, with what {!lookup_one} would return;
      emission order is the fetch order
      (memory hits, then per-component hits newest-to-oldest within each
      batch), which for the batched algorithm is *not* global key order —
      the trade-off Fig. 12d measures. *)
  let lookup_batch t opts qkeys ~emit =
    check_pk_keyed t "lookup_batch";
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
      let comps = t.disk in
      let cursors = if opts.stateful then Some (cursors t) else None in
      let per_batch =
        if not opts.batched then 1
        else begin
          let key_bytes = 8 + 16 (* pk, ts + found slot *) in
          max 1 (opts.batch_bytes / key_bytes)
        end
      in
      let start = ref 0 in
      while !start < nq do
        let stop = min nq (!start + per_batch) in
        let bn = stop - !start in
        let resolved = Array.make bn false in
        let remaining = ref bn in
        let resolve i key v =
          resolved.(i) <- true;
          decr remaining;
          emit key v
        in
        (* Memory component first. *)
        for i = 0 to bn - 1 do
          let key = qkeys.(!start + i).qkey in
          match mem_find t key key with
          | Some e ->
              Lsm_sim.Env.explain_count t.env "mem_hits" 1;
              resolve i qkeys.(!start + i).qkey (Entry.value e)
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
                let pos = probe_at t cursors ~positive:false !ci c qk.qkey in
                (* A bitmap-invalidated hit resolves the key to absent: any
                   superseding version is strictly newer and was already
                   searched. *)
                if pos >= 0 then
                  resolve i qk.qkey
                    (if row_valid c pos && not (is_del c pos) then
                       Some (value_at c pos)
                     else None)
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

  (* The memory component's in-range bindings, read through one head: a
     single memtable's cursor with the count of in-range bindings still
     ahead of it, or several shards' bindings gathered into columns (key,
     pk, timestamp, entry, filter key) with their row order and a
     position in it.  The head is the binding the last successful pull
     moved to. *)
  type mem_source =
    | Mem_cursor of {
        cur : V.t Entry.t Mbt.cursor;
        mutable left : int;
      }
    | Mem_sorted of {
        keys : int array;
        pks : int array;
        tss : int array;
        es : V.t Entry.t array;
        fks : int array;
        order : int array;
        mutable at : int;
      }

  let[@inline] mem_key = function
    | Mem_cursor m -> Mbt.key m.cur
    | Mem_sorted m -> m.keys.(m.order.(m.at))

  let[@inline] mem_pk = function
    | Mem_cursor m -> Mbt.pk m.cur
    | Mem_sorted m -> m.pks.(m.order.(m.at))

  let[@inline] mem_ts_of = function
    | Mem_cursor m -> Mbt.ts m.cur
    | Mem_sorted m -> m.tss.(m.order.(m.at))

  let[@inline] mem_entry = function
    | Mem_cursor m -> Mbt.value m.cur
    | Mem_sorted m -> m.es.(m.order.(m.at))

  let[@inline] mem_fkey = function
    | Mem_cursor m -> Mbt.fkey m.cur
    | Mem_sorted m -> m.fks.(m.order.(m.at))

  (* Move the head to the next in-range binding: [false] once they run
     out, or when the binding is past [hi] (charging that comparison; with
     no [hi], no comparison and no key read).  This and the readers above
     run per scanned row, so they are inlined. *)
  let[@inline] mem_pull t hi hi_pk = function
    | Mem_cursor m ->
        m.left > 0
        &&
        (m.left <- m.left - 1;
         if not (Mbt.step m.cur) then
           invalid_arg "Lsm_tree.scan: memtable changed mid-scan";
         Option.is_none hi
         || within_hi t hi hi_pk (Mbt.key m.cur) (Mbt.pk m.cur))
    | Mem_sorted m ->
        m.at + 1 < Array.length m.order
        &&
        (m.at <- m.at + 1;
         let o = m.order.(m.at) in
         within_hi t hi hi_pk m.keys.(o) m.pks.(o))

  (* Open the memory component's in-range bindings for a scan.  Every
     charge lands here, before the first pull: one hi comparison per
     memtable binding the counting walk visits, the seeks' comparisons
     ([charge_mem_cmps]), then one entry visit per in-range binding.  A
     single memtable is read in place through an {!Mbt.seek} cursor; the
     counting walk runs on a copy of it.  Several shards are gathered and
     their row order sorted, charged: shard row sets are disjoint, so that
     reproduces the single-memtable order byte for byte.  Without
     [include_mem] the source is an empty cursor and charges nothing.

     Two charge quirks are kept, because fixing them moves the simulated
     gates: with no [lo] the counting walk charges a hi comparison on
     every memtable binding, even on those past [hi]; and a reconciling
     merge charges each memory binding a second hi comparison when it
     pulls it ({!scan}). *)
  let mem_source t spec =
    if not spec.include_mem then
      Mem_cursor { cur = Mbt.seek t.mems.(0).table None 0; left = 0 }
    else begin
      let seek m =
        let c = Mbt.seek m.table spec.lo spec.lo_pk in
        let n =
          match (spec.lo, spec.hi) with
          | None, None -> Mbt.length m.table
          | _ ->
              let w = Mbt.copy c in
              let rec count n =
                if not (Mbt.step w) then n
                else if within_hi t spec.hi spec.hi_pk (Mbt.key w) (Mbt.pk w)
                then count (n + 1)
                else if Option.is_none spec.lo then count n
                else n
              in
              count 0
        in
        (c, n)
      in
      let src, n =
        if Array.length t.mems = 1 then begin
          let cur, n = seek t.mems.(0) in
          (Mem_cursor { cur; left = n }, n)
        end
        else begin
          let slices = Array.map seek t.mems in
          let n = Array.fold_left (fun acc (_, k) -> acc + k) 0 slices in
          let keys = gather slices n Mbt.key in
          let pks = if t.pk_col then gather slices n Mbt.pk else keys in
          let order = Array.init n Fun.id in
          Array.sort
            (fun a b -> compare_rows t keys.(a) pks.(a) keys.(b) pks.(b))
            order;
          ( Mem_sorted
              {
                keys;
                pks;
                tss = gather slices n Mbt.ts;
                es = gather slices n Mbt.value;
                fks = gather slices n Mbt.fkey;
                order;
                at = -1;
              },
            n )
        end
      in
      charge_mem_cmps t;
      Lsm_sim.Env.charge_entry_visits t.env n;
      src
    end

  (* Open the sorted view for a reconciling scan: the component array it
     orders, and an iterator at the first key group >= [lo] that takes
     [only] as a run mask and the bitmaps (under [respect_bitmap]) as the
     validity that picks each group's winner. *)
  let view_start t spec =
    let comps_a = t.disk in
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
    ( comps_a,
      Sorted_view.start t.env v ~lo:spec.lo ~lo_pk:spec.lo_pk ~hi:spec.hi
        ~hi_pk:spec.hi_pk ~mask ~valid )

  (* Report a finished view scan to EXPLAIN and the view stats. *)
  let view_finish t it =
    Lsm_sim.Env.explain_count t.env "view_scans" 1;
    Lsm_sim.Env.explain_count t.env "view_segments" (Sorted_view.segments it);
    Lsm_sim.Env.explain_count t.env "view_rows_skipped" (Sorted_view.skipped it);
    let vs = Lsm_sim.Env.view_stats t.env in
    vs.Lsm_sim.Env.segments <- vs.Lsm_sim.Env.segments + Sorted_view.segments it;
    vs.Lsm_sim.Env.rows_skipped <-
      vs.Lsm_sim.Env.rows_skipped + Sorted_view.skipped it;
    vs.Lsm_sim.Env.rows_emitted <- vs.Lsm_sim.Env.rows_emitted + Sorted_view.emitted it

  (* A reconciling scan prefers the sorted view.  The cases that merge
     the scan's sources instead (so that stays a runtime path, not only a
     test oracle):
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
    && Array.length t.disk >= view_min_components
    &&
    match spec.only with
    | None -> true
    | Some [] -> false
    | Some cs -> (
        match t.view with
        | Some (_, built) ->
            built == t.disk && List.for_all (fun c -> Array.memq c t.disk) cs
        | None -> false)

  (** [scan ?on_del t spec ~f] streams the [Put] rows to
      [f key pk ts value ~src_repaired] ([pk] is the key in a [Pk] tree),
      where [src_repaired] is the [repaired_ts] of the row's source
      component (0 for the memory component — never repaired), and the
      anti-matter rows to [on_del key pk ts ~src_repaired] (default: none
      — queries only see live data).  With [reconcile], output is in
      ascending row order with newest-wins semantics and anti-matter
      suppressing older entries.  Without it, components are emitted one
      by one, memory first then newest-to-oldest, each in row order.
      With [filter], a [Put] row reaches [f] only if its filter key is in
      range.  Every path reconciles on keys and positions, tests the
      filter-key and anti-matter columns, and hands [f] the fields of a
      row, never a row or an entry. *)
  let scan ?on_del t spec ~f =
    let comps_a =
      match spec.only with Some cs -> Array.of_list cs | None -> t.disk
    in
    let flo, fhi =
      match (spec.filter, t.filter_of) with
      | None, _ -> (min_int, max_int)
      | Some (a, b), Some _ -> (a, b)
      | Some _, None ->
          invalid_arg "Lsm_tree.scan: filter on a tree without range filters"
    in
    let filtered = Option.is_some spec.filter in
    let in_range fk = flo <= fk && fk <= fhi in
    let[@inline] emit_del key pk ts src =
      match on_del with Some g -> g key pk ts ~src_repaired:src | None -> ()
    in
    (* Emit the memory binding (key, pk) at [ts] with entry [e] and
       filter-key column [fk]: a column other than [no_fkey] belongs to a
       [Put]. *)
    let[@inline] emit_mem key pk ts e fk =
      match e with
      | Entry.Put v -> if in_range fk then f key pk ts v ~src_repaired:0
      | Entry.Del -> emit_del key pk ts 0
    in
    (* The memory head; a column out of range rejects it unread. *)
    let[@inline] emit_head ms =
      let fk = mem_fkey ms in
      if fk = no_fkey || in_range fk then
        emit_mem (mem_key ms) (mem_pk ms) (mem_ts_of ms) (mem_entry ms) fk
    in
    let col c = if filtered then Lazy.force c.fkeys else [||] in
    (* Emit row [i] of component [c] (key columns [keys] and [pks],
       filter-key column [col]), testing the columns.  An unfiltered scan
       reads no filter-key column. *)
    let[@inline] emit_row c keys pks col i =
      let fk = if Array.length col = 0 then no_fkey else col.(i) in
      if fk = no_fkey && is_del c i then
        emit_del keys.(i) (pk_in keys pks i) c.tss.(i) c.repaired_ts
      else if in_range fk then
        f keys.(i) (pk_in keys pks i) c.tss.(i) (value_at c i)
          ~src_repaired:c.repaired_ts
    in
    if view_usable t spec then begin
      (* Served from the sorted view: the selector stream's key-group
         winners merged with the memory head (memory is strictly newer
         than every disk component, so it wins ties).  Within a disk key
         group the winner is the first live position — runs are ordered
         newest-first — which reproduces the merge's semantics exactly,
         including "an older valid duplicate wins when the newest is
         bitmap-invalidated". *)
      let comps_a, it = view_start t spec in
      let keys = Array.map (fun c -> Dbt.keys c.tree) comps_a in
      let pks = Array.map (fun c -> Dbt.pks c.tree) comps_a in
      let ms = mem_source t spec in
      let ml = ref (mem_pull t None 0 ms) in
      let r = ref (Sorted_view.next t.env it) in
      while !ml || !r >= 0 do
        if !r < 0 then begin
          emit_head ms;
          ml := mem_pull t None 0 ms
        end
        else begin
          let w = !r and i = Sorted_view.position it in
          let o =
            if !ml then
              compare_rows t (mem_key ms) (mem_pk ms) keys.(w).(i)
                (pk_in keys.(w) pks.(w) i)
            else 1
          in
          (* Memory first; on a tie it supersedes the whole disk group. *)
          if o <= 0 then begin
            emit_head ms;
            ml := mem_pull t None 0 ms
          end;
          if o >= 0 then begin
            if o > 0 then begin
              let c = comps_a.(w) in
              emit_row c keys.(w) pks.(w) (col c) i
            end;
            r := Sorted_view.next t.env it
          end
        end
      done;
      view_finish t it
    end
    else if spec.reconcile then begin
      (* Sources, newest first: memory (source 0), then the disk
         components.  Every charge lands in the order of the k-way heap
         merge: the memory source, each component's seek, each source's
         first pull, then per output the pull that refills the top
         source, the merge comparisons that pull causes, and the
         duplicate-row comparison.  A head is emitted after the pull that
         replaces it, from what was read of it before. *)
      let ms = mem_source t spec in
      (if t.views_enabled && Array.length comps_a >= view_min_components then
         let vs = Lsm_sim.Env.view_stats t.env in
         vs.Lsm_sim.Env.fallbacks <- vs.Lsm_sim.Env.fallbacks + 1);
      let h = open_heads t spec ~bitmap:spec.respect_bitmap comps_a in
      let cols = Array.map col comps_a in
      let[@inline] key s =
        if s > 0 then h.h_keys.(s - 1).(h.h_pos.(s - 1)) else mem_key ms
      in
      let[@inline] pk s =
        if s > 0 then pk_in h.h_keys.(s - 1) h.h_pks.(s - 1) h.h_pos.(s - 1)
        else mem_pk ms
      in
      let m =
        Lsm_util.Kmerge.create
          (Array.length comps_a + 1)
          ~compare:(fun a b ->
            Lsm_sim.Env.charge_comparisons t.env 1;
            (* the pks are read only on a key tie *)
            let c = compare (key a : int) (key b) in
            if c <> 0 || not t.pk_col then c else compare (pk a : int) (pk b))
          ~pull:(fun s ->
            if s = 0 then mem_pull t spec.hi spec.hi_pk ms
            else pull_head t h (s - 1))
      in
      (* Whether the top's row (k, p), from source [s], differs from the
         last output row (lk, lp), from source [last] ([-1]: no output
         yet).  The comparison is charged after the first output; a
         source's rows strictly increase, so against its own last output
         it is not made. *)
      let[@inline] fresh s k p ~last lk lp =
        last < 0
        || begin
             Lsm_sim.Env.charge_comparisons t.env 1;
             s = last || cmp_rows t lk lp k p <> 0
           end
      in
      (* [drain s ~last lk lp] emits the top source [s]'s head after the
         pull that replaces it, unless it repeats the last output row. *)
      let rec drain s ~last lk lp =
        if s >= 0 then begin
          let k = key s in
          let p = if t.pk_col then pk s else k in
          if s > 0 then begin
            let j = s - 1 in
            let i = h.h_pos.(j) in
            let next = Lsm_util.Kmerge.advance m in
            if fresh s k p ~last lk lp then
              emit_row comps_a.(j) h.h_keys.(j) h.h_pks.(j) cols.(j) i;
            drain next ~last:s k p
          end
          else begin
            let fk = if filtered then mem_fkey ms else no_fkey in
            (* A column out of range rejects the binding unread. *)
            let ts = mem_ts_of ms and e = mem_entry ms in
            let next = Lsm_util.Kmerge.advance m in
            if fresh s k p ~last lk lp && (fk = no_fkey || in_range fk) then
              emit_mem k p ts e fk;
            drain next ~last:s k p
          end
        end
      in
      let s = Lsm_util.Kmerge.top m in
      if s >= 0 then drain s ~last:(-1) (key s) (pk s)
    end
    else begin
      (* Component-at-a-time: bitmaps have already removed stale versions,
         so no cross-component reconciliation is necessary. *)
      let ms = mem_source t spec in
      while mem_pull t None 0 ms do
        emit_head ms
      done;
      Array.iter
        (fun c ->
          let h = open_heads t spec ~bitmap:spec.respect_bitmap [| c |] in
          let keys = Dbt.keys c.tree and pks = Dbt.pks c.tree and col = col c in
          let rec drain () =
            let i = next_pos t h 0 in
            if i >= 0 then begin
              emit_row c keys pks col i;
              drain ()
            end
          in
          drain ())
        comps_a
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

  (* ------------------------------------------------------------------ *)
  (* Type erasure *)

  let erase t =
    {
      name = name t;
      mem_bytes = (fun () -> mem_bytes t);
      mem_shard_bytes = mem_shard_bytes t;
      flush = (fun ?shard () -> flush ?shard t);
      reset_memory = (fun () -> reset_memory t);
      disk_size_bytes = (fun () -> disk_size_bytes t);
      set_sorted_views = set_sorted_views t;
      quarantine_corrupt = (fun () -> quarantine_corrupt t);
      quarantined_count = (fun () -> quarantined_count t);
      summaries =
        (fun () ->
          List.map
            (fun c ->
              {
                cs_id = component_id c;
                cs_rows = component_rows c;
                cs_bytes = component_size_bytes t c;
                cs_bloom = c.bloom <> None;
                cs_bitmap = c.bitmap <> None;
                cs_repaired_ts = c.repaired_ts;
              })
            (Array.to_list t.disk));
    }
end
