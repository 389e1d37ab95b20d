(** A generic LSM-tree over the simulated storage substrate.

    Keys are ints, compared inline.  One [Make (V)] instance serves the
    indexes of a value type: the primary index (value = record), and the
    primary key, deleted-key and secondary indexes (value = unit), whose
    {!layout} sets how a row is named.  Entries are timestamped;
    component IDs are (minTS, maxTS) ranges over entry timestamps
    (Fig. 1).

    The tree knows nothing about maintenance strategies: it offers writes
    into the memory component, flush, merge of a contiguous component
    range, reconciling and per-component scans, and the point-lookup
    algorithms of Sec. 3.2.  Strategy logic lives in [Lsm_core].

    A disk component is a key index ({!Lsm_btree.Disk_btree}) plus columns
    read by the index's row positions: timestamps, values, anti-matter
    bits and, for a tree with range filters, filter keys.  No component
    stores a row record or an {!Entry.t}: an anti-matter row is a set bit
    and a [Put] row's value sits unboxed in the value column.  Entries
    are what a write and a rollback take; reads hand out the fields of a
    row, and a {!Make.row} is built only by {!Make.row_at}. *)

module Entry = Entry
module Config = Config
module Merge_policy = Merge_policy

(** How a tree names a row.  [Pk]: by its key, the primary key.  [Sk_pk]:
    by (key, pk), ordered by key then pk, the pk kept in a second int
    column — a secondary index (Sec. 3).  It fixes the key's size (8 or
    16 bytes) and the row hash: [mix64 key], or [mix64 (mix64 key lxor
    pk)] ([Lsm_bloom.Hashing.mix64]). *)
type layout = Pk | Sk_pk

(** Provenance of a disk component w.r.t. memory-shard flushes.  Lives
    outside the functor so origins of components from different [Make]
    instances (a dataset's primary / primary-key pair, whose flush
    histories are identical by construction) can be compared.  A merged
    component carries the concatenation of its inputs' origins, newest
    first. *)
type flush_origin = {
  fo_shards : int;  (** the tree's shard count when the flush ran *)
  fo_shard : int;  (** flushed shard index; [-1] = whole-memory flush *)
  fo_min_ts : int;  (** component ID bounds of the flushed component *)
  fo_max_ts : int;
}

val flush_origin_equal : flush_origin -> flush_origin -> bool

(** One disk component's state, as [lsm_repro inspect] reports it. *)
type component_summary = {
  cs_id : int * int;  (** (minTS, maxTS) *)
  cs_rows : int;
  cs_bytes : int;
  cs_bloom : bool;
  cs_bitmap : bool;
  cs_repaired_ts : int;
}

(** A tree with its value type erased, built by {!Make.erase}: the
    operations a dataset runs on all of its trees alike (its primary tree
    instantiates [Make] at the record type, the others at unit).  A field
    named after a [Make] function applies it to the erased tree. *)
type tree = {
  name : string;
  mem_bytes : unit -> int;
  mem_shard_bytes : int -> int;
  flush : ?shard:int -> unit -> unit;
  reset_memory : unit -> unit;
  disk_size_bytes : unit -> int;
  set_sorted_views : bool -> unit;
  quarantine_corrupt : unit -> unit;
      (** quarantine every component whose backing file holds a page that
          failed its checksum *)
  quarantined_count : unit -> int;  (** components currently quarantined *)
  summaries : unit -> component_summary list;  (** newest first *)
}

(** Values stored in a tree; only their serialized size matters to it. *)
module type VALUE = sig type t val byte_size : t -> int end

module Make (V : VALUE) : sig
  type row = { key : int; ts : int; value : V.t option }
  (** One disk row, as {!row_at} hands it out ([value = None]:
      anti-matter). *)

  type mem_component

  type disk_component = {
    tree : Lsm_btree.Disk_btree.t;
        (** the key index; its key columns are [Disk_btree.keys tree] and
            [Disk_btree.pks tree] (empty in a [Pk] tree) *)
    tss : int array;  (** each row's timestamp, by position *)
    vals : V.t array;
        (** the [Put] rows' values, by position — read them through
            {!value_at}.  One slot per row, where an anti-matter row's
            slot holds another row's value of the same component; a
            single slot when every [Put] value is physically the same
            (always so for [unit]: the pk index and secondaries keep no
            per-row value); empty when no row is a [Put]. *)
    dels : Bytes.t;
        (** the anti-matter bits, by position ({!is_del}); empty when no
            row is anti-matter *)
    bloom : Lsm_bloom.Filter.t option;
    cmin_ts : int;  (** component ID lower bound *)
    cmax_ts : int;  (** component ID upper bound *)
    range_filter : (int * int) option;
    fkeys : int array Lazy.t;
        (** each row's filter key, by position ({!no_fkey} for
            anti-matter); empty for a tree without range filters.  Built
            by the first filtered scan that reads the component, from
            [vals] and [dels] alone. *)
    mutable bitmap : Lsm_util.Bitset.t option;  (** 1 = entry invalid *)
    mutable repaired_ts : int;
        (** entries are valid w.r.t. primary-key-index entries with
            ts <= repaired_ts (Sec. 4.4); 0 = never repaired *)
    mutable quarantined : bool;
        (** failed a checksum; lookups stop trusting the Bloom filter
            (degraded reads) until rebuilt or scrubbed *)
    seq : int;  (** unique id *)
    prov : flush_origin list;
        (** flush provenance, newest first; never empty: a flush stamps
            one origin and {!install} concatenates its inputs' *)
  }

  type t

  val create :
    ?filter_of:(V.t -> int) -> ?layout:layout -> Lsm_sim.Env.t -> Config.t -> t
  (** [filter_of] extracts the range-filter key from a value; absent = no
      component range filters.  With it, every row's filter key is also
      kept in a column beside its key — in the memory leaves, and in each
      disk component's [fkeys] once a filtered scan has read it.
      [layout] defaults to [Pk].  Calls below that name a row take its key
      and pk as ints; in a [Pk] tree pass the pk as both. *)

  val no_fkey : int
  (** The filter-key column's entry for anti-matter ([min_int]), and for
      every row of a tree without range filters. *)

  val set_tombstone_drop_ts : t -> int -> unit
  (** Bottom merges may drop an anti-matter entry only if its timestamp is
      at or below this barrier (default [max_int]).  Datasets whose
      secondary indexes validate against this tree lower it to the minimum
      secondary repairedTS so deletions stay observable until every
      obsolete entry has been repaired. *)

  val env : t -> Lsm_sim.Env.t
  val config : t -> Config.t
  val name : t -> string

  (** {1 Memory component} *)

  val mem_bytes : t -> int
  val mem_count : t -> int
  val mem_is_empty : t -> bool

  val mem_shards : t -> int
  (** Number of memory shards ([Config.shards]; 1 = classic single
      memtable). *)

  val row_hash : t -> int -> int -> int
  (** [row_hash t key pk]: the row's Bloom hash, per {!layout}. *)

  val shard_of : t -> int -> int -> int
  (** [shard_of t key pk]: the memory shard the row routes to (0 when
      unsharded), [mix64 (row_hash t key pk) land max_int mod shards]. *)

  val mem_shard_bytes : t -> int -> int
  (** In-memory bytes of one shard. *)

  val mem_id : t -> int * int
  (** (minTS, maxTS) of the memory component (union over shards);
      [(max_int, -1)] if empty. *)

  val mem_filter : t -> (int * int) option
  (** Current memory range-filter bounds (union over shards), if any. *)

  val widen_filter : t -> int -> int -> int -> unit
  (** [widen_filter t key pk fkey] widens the filter of the shard owning
      the row to cover [fkey] — the Eager strategy calls this with *old*
      records' filter keys (Sec. 3.1). *)

  val write : t -> key:int -> pk:int -> ts:int -> V.t Entry.t -> unit
  (** Add an entry for the row (key, pk); a same-row write replaces the
      in-memory entry (newest wins within a component).  [Put] values
      widen the filter. *)

  val mem_rollback :
    t -> key:int -> pk:int -> prior:(int * V.t Entry.t) option -> unit
  (** Undo a memory write (transaction rollback): remove the current entry
      and restore the replaced binding (timestamp, entry), if any. *)

  val reset_memory : t -> unit
  (** Discard the memory component (crash simulation). *)

  val mem_find : t -> int -> int -> V.t Entry.t option
  (** [mem_find t key pk]: the row's memory entry as written, if any;
      its timestamp is then {!mem_ts}. *)

  val mem_ts : t -> int
  (** The timestamp of {!mem_find}'s last hit on this tree. *)

  (** {1 Components} *)

  val components : t -> disk_component array
  (** Newest first.  A snapshot: the tree installs a fresh array on every
      change and never writes to one it handed out; callers must not
      write to it either. *)

  val component_count : t -> int
  val component_id : disk_component -> int * int
  val component_rows : disk_component -> int
  val disk_size_bytes : t -> int

  val quarantined : disk_component -> bool

  val quarantine : t -> disk_component -> unit
  (** Mark a component degraded: its Bloom filter is no longer consulted
      (every lookup falls through to the checksum-verified B+-tree probe)
      and the maintenance supervisor will rebuild or scrub it. *)

  val flush : ?shard:int -> t -> unit
  (** Turn a non-empty memory component into the newest disk component,
      inheriting the (possibly widened) memory range filter.  Without
      [?shard], every shard drains into one component (byte-identical to
      the unsharded tree) under the [lsm.flush.*] fault points; with
      [~shard:s], only shard [s] flushes — siblings keep absorbing
      writes — under [lsm.flush.shard.begin] / [lsm.flush.shard.install]. *)

  val merge :
    ?extra_invalid:(disk_component -> int -> bool) ->
    t ->
    first:int ->
    last:int ->
    disk_component
  (** Merge the contiguous range [first..last] (indices into
      {!components}, 0 = newest): reconciling k-way merge keeping the
      newest entry per key, dropping bitmap-invalidated entries and — on
      bottom merges, subject to the tombstone barrier — anti-matter.  The
      output columns are copied from the inputs' by position.  Inputs'
      files are deleted. *)

  val pick_merge : t -> Merge_policy.t -> (int * int) option
  (** Apply a merge policy to this tree's own components ("each LSM-tree
      is merged independently") without merging: the newest-first range
      [(first, last)] to hand to {!merge} or {!merge_start}, or [None]
      when no merge is due. *)

  (** {1 Flush provenance} *)

  val prov_run : t -> flush_origin list -> (int * int) option
  (** [prov_run t prov]: the newest-first index range [(first, last)] of
      the contiguous run of components whose concatenated provenance is
      exactly [prov] (non-empty) — a lockstep merge's inputs on the
      counterpart tree.  Per-shard flushes make ID ranges overlap across
      shards, so ID nesting cannot find them; provenance can. *)

  val id_run : t -> lo:int -> hi:int -> (int * int) option
  (** [id_run t ~lo ~hi]: the newest-first index range spanning every
      component whose ID nests in [[lo, hi]]. *)

  val durable_frontiers : t -> int array
  (** Recovery's redo gate, per memory shard: the maximum entry
      timestamp the disk components cover for that shard's keys.  A
      write routed to shard [s] reached disk iff its timestamp is at or
      below element [s]. *)

  val durable_floor : t -> now:int -> int
  (** The lowest {!durable_frontiers} element over the shards that hold
      data in memory, and [now] when none does.  Given that [now] is at
      or above every timestamp handed out, no write to the tree at or
      below the floor is in memory: each either reached disk under its
      shard's frontier or was rolled back. *)

  (** {1 Incremental merges (overlapping maintenance)}

      {!merge} broken into explicit steps so a scheduler can interleave
      several independent merges deterministically on one simulated
      clock.  Between {!merge_start} and {!merge_finish} the job only
      reads its inputs and accumulates the positions of its output rows;
      the input components must survive untouched as a contiguous run,
      which {!merge_finish} verifies by physical identity — so per-shard
      flushes may *prepend* new components while the job is in flight.
      The output is byte-for-byte the output {!merge} would have
      produced — the tombstone barrier is captured at start. *)

  type merge_job

  val merge_start :
    ?extra_invalid:(disk_component -> int -> bool) ->
    t ->
    first:int ->
    last:int ->
    merge_job
  (** Open an incremental merge of [first..last]; announces
      [lsm.merge.begin]. *)

  val merge_step : t -> merge_job -> rows:int -> bool
  (** Advance by up to [rows] output decisions; [false] once the input
      streams are exhausted. *)

  val merge_finish : t -> merge_job -> disk_component
  (** {!install} the merged rows' columns in place of the job's inputs,
      record the merge's amplification, and announce
      [lsm.merge.install]. *)

  (** {2 Value and anti-matter columns}

      A component's [vals] and [dels], built row by row: in any order, by
      output position, from a value or another component's row, without
      an entry in between. *)

  type columns

  val columns : int -> columns
  (** The columns of that many rows, none set yet. *)

  val set_put : columns -> int -> V.t -> unit
  (** Row [o] is a [Put] of the value. *)

  val set_del : columns -> int -> unit
  (** Row [o] is anti-matter. *)

  val copy_row : columns -> int -> disk_component -> int -> unit
  (** [copy_row b o c i]: row [o] is what row [i] of [c] is. *)

  val built : columns -> V.t array * Bytes.t
  (** The [vals] and [dels] columns, once every row is set. *)

  val install :
    t ->
    inputs:disk_component array ->
    keys:int array ->
    pks:int array ->
    tss:int array ->
    vals:V.t array ->
    dels:Bytes.t ->
    disk_component
  (** [install t ~inputs ~keys ~pks ~tss ~vals ~dels] builds one component
      over the row-sorted columns (equal lengths, except [pks], which is
      [[||]] in a [Pk] tree, and [vals] and [dels], laid out as in
      {!disk_component} — {!built} makes them; the component keeps the
      arrays)
      and splices it in place of [inputs], a contiguous newest-first run
      of the current components located by physical identity (components
      prepended since the inputs were read are tolerated; anything else
      raises [Invalid_argument]).  The component's ID range, repairedTS
      (the inputs' minimum), range filter and flush provenance derive
      from the inputs as for a merge: a run reaching the oldest component
      recomputes the filter from its [Put] rows, any other run takes the union of
      the inputs' filters.  The inputs' files are deleted.  Merges, the
      concurrent builder (Sec. 5.3) and secondary rebuilds all install
      through this. *)

  val remove_component : t -> at:int -> unit
  (** Remove the component at newest-first index [at], deleting its file.
      Recovery-only: rolls a tree back to a crash-consistent cut when a
      correlated index's flush did not survive a crash (the discarded
      entries are still in the WAL and are redone into memory). *)

  (** {1 Bitmaps and repair bookkeeping} *)

  val row_valid : disk_component -> int -> bool
  val ensure_bitmap : disk_component -> Lsm_util.Bitset.t
  val invalidate : disk_component -> int -> unit
  val revalidate : disk_component -> int -> unit
  (** Flip a bit back (transaction aborts only, Sec. 5.2). *)

  val set_repaired_ts : disk_component -> int -> unit

  val is_del : disk_component -> int -> bool
  (** Whether the row at a position is anti-matter. *)

  val value_at : disk_component -> int -> V.t
  (** The value of the [Put] row at a position (for an anti-matter row,
      another row's). *)

  val row_at : disk_component -> int -> row
  (** The row at a position, built from the columns (no I/O charged):
      for tests that compare whole components. *)

  val charge_component_scan : t -> disk_component -> unit
  (** Charge the I/O and CPU of a full sequential scan of a component
      without materializing anything (standalone repair). *)

  (** {1 The newest-first component probe}

      Point lookups, timestamp validation (Sec. 4.3) and Bloom-opt repair
      (Sec. 4.4) all ask: what is the newest disk entry for a key, in the
      components newer than some bound?  {!find_newest} is the one walk
      that answers it.  Newest to oldest, for each component it runs
      [skip] ([true] passes the component over, unprobed and uncharged);
      unless the component is
      [positive], probes its Bloom filter — one [bloom_probes], hashes,
      cache lines, and on a negative a [bloom_negatives] and the next
      component (a filterless component is a free "maybe"; a quarantined
      one counts a [degraded_probes] and is searched); descends its
      B+-tree with the component's cursor from [cursors], else from the
      root (comparisons, page reads); returns a hit, or on a miss counts
      a [bloom_fps] if the filter was consulted and moves on.  The walk
      and the descents allocate nothing.  It and the point lookups below
      take a key alone: on an [Sk_pk] tree they raise [Invalid_argument]. *)

  type cursors
  (** Stateful search cursors ("sLookup") over a snapshot of {!components}. *)

  val cursors : t -> cursors

  val find_newest :
    t ->
    ?cursors:cursors ->
    ?from:int ->
    ?skip:(disk_component -> bool) ->
    ?positive:int ->
    int ->
    int
  (** The row position of the newest disk entry for the key ([-1]: none),
      walking from component [from] (default 0) of {!components} or of
      [cursors]' snapshot; the component holding it is {!found}.  Memory
      and bitmaps are the caller's.  Callers prune with [skip], not by
      ending the walk: per-shard flushes can place a component behind one
      with a lower maxTS. *)

  val found : t -> disk_component
  (** The component of {!find_newest}'s last hit on this tree. *)

  val first_positive : t -> ?eligible:(disk_component -> bool) -> int -> int
  (** The index of the newest component [eligible] accepts (default: all)
      whose Bloom filter, probed as {!find_newest} does, may hold the
      key; [-1] if none. *)

  (** {1 Point lookups (Sec. 3.2)} *)

  type lookup_opts = {
    batched : bool;  (** batched point-lookup algorithm *)
    batch_bytes : int;  (** batching memory (paper default: 16MB) *)
    stateful : bool;  (** stateful B+-tree cursors ("sLookup") *)
    use_hints : bool;  (** component-ID propagation ("pID") *)
  }

  val default_lookup_opts : lookup_opts

  type query_key = { qkey : int; hint_ts : int }
  (** [hint_ts] is the timestamp of the secondary-index entry that
      produced the key (0 = no hint); with [use_hints], components whose
      maxTS is below it are skipped before their Bloom filter is probed. *)

  val plain_keys : int array -> query_key array

  val lookup_one : t -> int -> V.t option
  (** The value of the newest entry across memory and disk, when it is a
      [Put]: [None] if the key was never written, its newest entry is
      anti-matter, or its newest disk entry is bitmap-invalidated.  A hit
      allocates the option and no row. *)

  val disk_find : t -> int -> (disk_component * int) option
  (** Newest *disk* entry (component, position), ignoring memory and
      bitmaps — the Mutable-bitmap strategy's bit-location search. *)

  val lookup_batch :
    t -> lookup_opts -> query_key array -> emit:(int -> V.t option -> unit) -> unit
  (** Resolve many point lookups; [qkeys] sorted ascending.  [emit key v]
      fires exactly once per key, with {!lookup_one}'s answer, in fetch
      order (which for the batched algorithm is not global key order —
      the Fig. 12d trade-off). *)

  (** {1 Scans} *)

  type component_merge = {
    cm_merge : Lsm_util.Kmerge.t;
        (** source [s] is the [s]-th component, newest first *)
    cm_heads : int array;  (** each source's head: a row position *)
  }

  val merge_components :
    t ->
    ?valid:(disk_component -> int -> bool) ->
    disk_component array ->
    component_merge
  (** [merge_components t ?valid comps] is a k-way merge of [comps]
      (newest first) by row.  Each component is scanned in order by row
      position, skipping the positions [valid c] rejects (default: none);
      its seek runs now, and each pull charges the rows it reads (a leaf
      fetch on a crossing, an entry visit).  One comparison is charged per
      heap comparison.  Read the {!Lsm_util.Kmerge.top} source's head,
      position [cm_heads.(s)] of [comps.(s)]'s columns, before
      {!Lsm_util.Kmerge.advance}: equal rows surface newest first. *)

  type scan_spec = {
    lo : int option;  (** inclusive, with [lo_pk] in an [Sk_pk] tree *)
    lo_pk : int;  (** [min_int] in {!full_scan_spec}: all of key [lo] *)
    hi : int option;  (** inclusive, with [hi_pk] in an [Sk_pk] tree *)
    hi_pk : int;  (** [max_int] in {!full_scan_spec} *)
    reconcile : bool;
        (** newest-wins across components; [false] scans components
            independently (Mutable-bitmap strategy, Sec. 6.4.2) *)
    respect_bitmap : bool;
    include_mem : bool;
    only : disk_component list option;
        (** restrict to these components (newest-first); [None] = all —
            used for range-filter pruning *)
    filter : (int * int) option;
        (** [Some (a, b)]: emit only the [Put] rows whose filter key
            ([filter_of] of the value) lies in [\[a, b\]]; anti-matter
            is not filtered.  Output is exactly that of the scan without
            [filter] with the test applied afterwards — every row is still
            read, reconciled, bitmap-checked and charged, so the simulated
            cost does not change.  Raises [Invalid_argument] on a tree
            without [filter_of].  [None] (in {!full_scan_spec}) emits all. *)
  }

  val full_scan_spec : scan_spec

  val scan :
    ?on_del:(int -> int -> int -> src_repaired:int -> unit) ->
    t ->
    scan_spec ->
    f:(int -> int -> int -> V.t -> src_repaired:int -> unit) ->
    unit
  (** Stream the [Put] rows as [f key pk ts value ~src_repaired] ([pk =
      key] in a [Pk] tree), and the anti-matter rows, if [on_del] is
      given, as [on_del key pk ts ~src_repaired]; [src_repaired] is the
      source component's repairedTS (0 for memory).  Reconciled output is
      in ascending row order, anti-matter included only where it wins
      reconciliation.

      Reconciling scans over >= 2 disk components are served from a
      REMIX-style persistent sorted view ({!Sorted_view}): built lazily by
      the first unrestricted reconciling scan, reused (through a run mask)
      by [only]-restricted scans while fresh, and invalidated atomically
      whenever the component list changes, so crash recovery simply
      rebuilds on the next scan.  Output is byte-identical to a merge of
      the scan's sources, which remains the fallback for: fewer than 2
      disk components; [only]-restricted scans without a fresh view (a
      build there would tax ingest); and views turned off with
      {!set_sorted_views}, the differential oracle.  That merge is one
      {!Lsm_util.Kmerge} over the memory head and each component's row
      position, whatever the number of shards and components.
      Non-reconciling scans stream components one by one and never use a
      view.

      Every path reads the memory component in place, through a cursor
      over a single memtable (several shards are gathered into columns
      and their key order sorted instead), so a scan does not copy its
      rows; [f] must therefore not write to [t].  Simulated charges match
      those of a scan that copies the memtable first, in count and order.

      A [filter] is pushed down: every path reconciles on keys and
      positions and tests the filter-key and anti-matter columns.  No
      path builds a row or an entry: [f] receives the emitted row's
      fields, the value read by position. *)

  (** {1 Sorted views (REMIX)} *)

  val set_sorted_views : t -> bool -> unit
  (** Enable (default) or disable sorted-view-backed reconciling scans;
      disabling drops any materialized view. *)

  val view_info : t -> (int * int * int) option
  (** [(positions, anchors, runs)] of the materialized view, if any. *)

  val erase : t -> tree
  (** The type-erased handle of a tree.  Build it once: calling one of
      its fields allocates no more than the function it wraps. *)
end
