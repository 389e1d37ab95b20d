(** The LSM storage architecture of Sec. 3 (Fig. 1): per dataset, a
    primary index, an optional primary key index, and a set of secondary
    indexes — all LSM-trees sharing one memory budget, flushed together,
    with Bloom filters on primary / primary-key components and an optional
    range filter on the primary index.

    Ingestion follows the configured {!Strategy.t}; query plans implement
    Secs. 3.2 and 4.3; background index repair implements Sec. 4.4. *)

module Entry = Lsm_tree.Entry

(** Counters for the maintenance scheduler (Sec. 2.3). *)
type maint_stats = {
  mutable maint_rounds : int;  (** scheduler rounds that dispatched jobs *)
  mutable maint_jobs : int;  (** merge jobs executed *)
  mutable maint_max_overlap : int;  (** widest observed concurrency *)
  mutable maint_shared_claims : int;
      (** runnable jobs skipped because a tree was already claimed in the
          round — must stay zero: jobs are constructed over disjoint
          trees *)
  mutable maint_serial_us : float;  (** sum of per-job busy times *)
  mutable maint_makespan_us : float;
      (** modeled W-worker makespan actually charged to the clock *)
}

module Make (R : Record.S) : sig
  (** The three index families (Fig. 1): records by primary key, primary
      keys alone, and (secondary key, primary key) composites.  The last
      two store unit values, so they share one tree instance: a secondary
      tree is an [Sk_pk]-layout {!Pk} tree. *)
  module Prim : module type of Lsm_tree.Make (R)

  module Pk : module type of Lsm_tree.Make (Lsm_util.Keys.Unit_value)
  module Sec = Pk

  type sec_index = {
    sec_name : string;
    extract_all : R.t -> int list;  (** all secondary keys of a record *)
    tree : Sec.t;
    del_tree : Pk.t option;
        (** deleted-key structure (Deleted_key_btree strategy only) *)
  }

  type config = {
    strategy : Strategy.t;
    mem_budget : int;  (** shared across all the dataset's memory components *)
    merge_policy : Lsm_tree.Merge_policy.t;
    use_pk_index : bool;  (** Fig. 13 evaluates inserts without one *)
    bloom : Lsm_tree.Config.bloom option;
        (** Bloom settings for primary / primary-key / deleted-key
            components *)
    maint_workers : int;
        (** modeled maintenance workers of the merge scheduler (default
            1: jobs run one after another); with more, it overlaps
            independent merge jobs deterministically and charges the
            clock their modeled makespan instead of the serial sum
            (Sec. 2.3) *)
    mem_shards : int;
        (** memory shards per tree (default 1): with more, writes
            hash-route across sub-memtables and the budget can flush one
            full shard while its siblings keep absorbing writes
            (Sec. 2.3 flush granularity) *)
  }

  val default_config : config

  type stats = {
    mutable n_inserts : int;
    mutable n_upserts : int;
    mutable n_deletes : int;
    mutable n_duplicates : int;
    mutable n_flushes : int;
    mutable n_merges : int;
    mutable n_repairs : int;
    mutable flush_us : float;
    mutable merge_us : float;
    mutable repair_us : float;
  }

  type t

  val create :
    ?filter_key:(R.t -> int) ->
    ?secondaries:R.t Record.secondary list ->
    Lsm_sim.Env.t ->
    config ->
    t

  val env : t -> Lsm_sim.Env.t
  val stats : t -> stats
  val strategy : t -> Strategy.t
  val config : t -> config

  val secondary : t -> string -> sec_index
  (** @raise Invalid_argument for unknown index names. *)

  val now_ts : t -> int

  val next_timestamp : t -> int
  (** Fresh ingestion timestamp, for machinery that bypasses the regular
      ingestion entry points (e.g. concurrent-merge writers). *)

  (** {1 Ingestion (Secs. 3.1, 4.2, 5.2)} *)

  val insert : t -> R.t -> [ `Inserted | `Duplicate ]
  (** Rejects duplicates by primary key (via the primary key index when
      present — the Fig. 13 optimization). *)

  val upsert : t -> R.t -> unit
  (** Insert, superseding any record with the same key.  The strategies
      differ only in how a write retires the old version (Fig. 14): Eager
      anti-matters it everywhere, Validation only while it is in memory,
      Mutable-bitmap also flips its bit, Deleted-key also records the key
      in every deleted-key tree. *)

  val delete : t -> pk:int -> unit
  (** Retire the key's old version as {!upsert} does, then write
      anti-matter for the key.  Under Eager writes, a key with no live
      version is left alone: no anti-matter, no count in [n_deletes]. *)

  val set_eager_writes : t -> bool -> unit
  (** [set_eager_writes t true] makes a Validation dataset's writes
      retire old versions Eager's way, so secondaries stay current and
      queries may skip validation; switching on runs {!standalone_repair}
      once first.  Everything else still follows the Validation strategy.
      @raise Invalid_argument unless the strategy is Validation. *)

  val key_exists : t -> int -> bool

  (** {2 The Mutable-bitmap write path}

      The pieces of {!upsert} and {!delete} that transactional and
      concurrent-merge writers reuse, so the bit flip and the entry writes
      have one implementation. *)

  val mark_old_deleted : t -> int -> (int * int) option
  (** Flip the validity bit of the key's newest disk version, located via
      the primary key index (Sec. 5.2); [Some (component seq, position)]
      names the flipped bit, [None] when the newest version is in memory,
      deleted, or already invalid.
      @raise Invalid_argument without a primary key index. *)

  val write_new_record : t -> R.t -> ts:int -> unit
  (** Write the record's entries into every memory component. *)

  val write_delete : t -> int -> ts:int -> unit
  (** Write anti-matter for the key into the primary and primary key
      memory components. *)

  (** {1 Maintenance} *)

  val total_mem_bytes : t -> int

  val flush_now : t -> unit
  (** Flush all memory components and run the merge scheduler, both under
      the maintenance supervisor: a pass whose I/O retries were exhausted
      is rescheduled with backoff (the partial component's file is
      already discarded) before the failure propagates as
      [Lsm_sim.Resilience.Unrecoverable].  If corruption has been
      detected, {!heal} follows. *)

  val flush_memory : t -> unit
  (** Flush without merging. *)

  val flush_shard_now : t -> int -> unit
  (** [flush_shard_now t s] flushes memory shard [s] of every tree and
      runs the merge scheduler, both supervised.  With one worker the
      flush runs before the scheduler's first pick (nothing could overlap
      it); with [maint_workers > 1] it rides the first round as one more
      job so it overlaps runnable merges on the modeled workers.  Fault
      points
      [dataset.flush.shard.begin] / [dataset.flush.shard.pair] mirror the
      whole-memory flush's crash windows. *)

  val mem_shards : t -> int
  (** Configured memory shards (>= 1). *)

  val mem_shard_bytes : t -> int -> int
  (** Aggregate bytes of one memory shard across every tree of the
      dataset — the budget's eviction unit when sharded. *)

  val share_pair_bitmaps : t -> unit
  (** Under Mutable-bitmap, point each primary component's bitmap at its
      pk-index counterpart's, so the positionally aligned pair shares one
      validity bitmap object (Sec. 5.1).  The pk side is authoritative:
      bits are set through it, and recovery restores and replays them
      there.  A no-op while the pair's component counts differ, and for
      other strategies. *)

  val realign_pk_to_primary : t -> unit
  (** Under Mutable-bitmap, complete any lockstep pk-index merge the
      primary has run but the pk index has not (a retry or recovery after
      a crash between the two): merge each pk run whose flush provenance
      ({!Lsm_tree.Make.prov_run}) matches a primary component, then
      re-share bitmaps.  No-op otherwise. *)

  val set_auto_maintenance : t -> bool -> unit
  (** Default [true]: flush/merge when the shared budget fills. *)

  val maint_workers : t -> int
  (** The configured worker count, clamped to >= 1.  Every worker count
      runs the same scheduler and produces byte-for-byte identical trees
      (installs stay in pick order); only the modeled clock differs. *)

  val maint_stats : t -> maint_stats
  (** Live counters of the merge scheduler, at any worker count;
      published as [maint.*] gauges after each merge sweep when
      observability is enabled. *)

  val standalone_repair : ?bloom_opt:bool -> t -> unit
  (** Repair every disk component of every secondary index in place
      (Sec. 4.4; [bloom_opt] overrides the strategy's setting). *)

  val primary_repair : t -> with_merge:bool -> unit
  (** The DELI baseline: repair secondaries by scanning primary
      components and anti-mattering superseded versions — reading full
      records, the cost secondary repair avoids. *)

  val heal : t -> unit
  (** Self-healing sweep: quarantine every component whose backing file
      holds a checksum-failed page, scrub quarantined primary-family
      components through single-component merges (lockstep for the
      Mutable-bitmap pair), and rebuild quarantined secondary components
      from the primary key index via the Sec. 4 standalone-repair path.
      Afterwards nothing is quarantined and the corruption is physically
      gone.  Idempotent; cheap when there is nothing to do. *)

  val quarantined_count : t -> int
  (** Number of disk components currently quarantined (degraded), across
      all indexes. *)

  (** {1 Query processing (Secs. 3.2, 4.3)} *)

  type sec_entry = {
    e_sk : int;
    e_pk : int;
    e_ts : int;
    e_src_repaired : int;
  }

  type validation_mode = [ `Assume_valid | `Direct | `Timestamp ]
  (** [`Assume_valid] for Eager-maintained indexes; [`Direct] fetches then
      re-checks (Fig. 5a); [`Timestamp] validates against the primary key
      index (Fig. 5b). *)

  val search_secondary : t -> sec_index -> lo:int -> hi:int -> sec_entry list

  val query_secondary :
    t ->
    sec:string ->
    lo:int ->
    hi:int ->
    mode:validation_mode ->
    ?lookup:Prim.lookup_opts ->
    unit ->
    R.t list
  (** Records whose secondary key lies in [lo, hi] (Fig. 16's
      non-index-only query). *)

  val query_secondary_keys :
    t ->
    sec:string ->
    lo:int ->
    hi:int ->
    mode:[ `Assume_valid | `Timestamp ] ->
    unit ->
    (int * int) list
  (** Index-only variant (Fig. 17): (secondary key, primary key) pairs,
      never touching records.  [`Direct] is not offered — it must fetch
      records (Sec. 4.3). *)

  val full_scan : t -> f:(R.t -> unit) -> int
  (** Every live record (reconciled); returns the count.  [f] runs while
      the scan reads the memory component in place, so it must not write
      to [t]. *)

  val query_time_range : t -> tlo:int -> thi:int -> f:(R.t -> unit) -> int
  (** Primary scan with component-level range-filter pruning
      (Sec. 6.4.2); pruning power depends on the strategy.  [f] gets the
      records whose filter key lies in [[tlo, thi]], and the count of them
      is returned; the range test runs inside the scan, on the primary
      tree's filter-key columns.  As with {!full_scan}, [f] must not write
      to [t].
      @raise Invalid_argument if the dataset has no filter key. *)

  val point_query : t -> int -> R.t option

  (** {1 Introspection} *)

  val primary : t -> Prim.t
  val pk_index : t -> Pk.t option
  val secondaries : t -> sec_index array

  val trees : t -> Lsm_tree.tree array
  (** Every tree of the dataset, type-erased, in flush order: the
      primary, the primary key index, then each secondary followed by its
      deleted-key tree.  Built once by {!create}. *)

  (** [set_sorted_views t on] toggles REMIX-style sorted-view scans on
      every index of the dataset; on by default; the heap merge remains
      the fallback. *)
  val set_sorted_views : t -> bool -> unit

  val total_disk_bytes : t -> int
end
