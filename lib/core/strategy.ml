(** Maintenance strategies for LSM auxiliary structures — the heart of the
    paper.

    How should secondary indexes and filters be kept consistent with the
    primary index as records are inserted, updated, and deleted?

    - {b Eager} (Sec. 3.1): every upsert/delete performs a point lookup to
      fetch the old record, then inserts anti-matter into each secondary
      index whose key changed and widens memory-component filters to cover
      the old record.  Queries get always-up-to-date structures; ingestion
      pays a point lookup per write.  (AsterixDB, MyRocks, Phoenix.)

    - {b Validation} (Sec. 4): writes insert new entries only; secondary
      indexes may return obsolete keys, and queries run an extra validation
      step (Direct or Timestamp, Fig. 5).  Obsolete entries are cleaned up
      by background index repair driven by the primary key index.

    - {b Mutable_bitmap} (Sec. 5): each disk component of the primary
      index carries a mutable validity bitmap, maintained by searching the
      primary key index (never full records).  Filters keep their full
      pruning power and ingestion avoids record-sized point lookups.
      Secondary indexes are maintained with the Validation scheme.

    - {b Deleted_key_btree} (Sec. 4.1, baseline): AsterixDB's alternative —
      each secondary index carries its own deleted-key structure recording
      the keys deleted in each component's time window; duplicated per
      secondary index. *)

type validation_opts = {
  repair_on_merge : bool;
      (** run merge repair (Fig. 7) whenever a secondary component merge
          happens; [false] = "validation (no repair)" in the figures *)
  bloom_opt : bool;
      (** the Bloom-filter repair optimization of Sec. 4.4: requires the
          correlated merge policy across all indexes, and lets repair skip
          keys whose Bloom probes on the newer primary-key components are
          all negative *)
}

type t =
  | Eager
  | Validation of validation_opts
  | Mutable_bitmap
  | Deleted_key_btree

let eager = Eager
let validation = Validation { repair_on_merge = true; bloom_opt = false }
let validation_no_repair = Validation { repair_on_merge = false; bloom_opt = false }
let validation_bloom_opt = Validation { repair_on_merge = true; bloom_opt = true }
let mutable_bitmap = Mutable_bitmap
let deleted_key_btree = Deleted_key_btree

(** Does this strategy keep a validity bitmap on primary / primary-key
    components?  Such a pair shares its bitmaps, so it must also merge in
    lockstep (Sec. 5.1). *)
let uses_primary_bitmap = function Mutable_bitmap -> true | _ -> false

(** Must secondary-index merges be synchronized *with the primary key
    index*?  The Bloom-repair optimization needs this (Sec. 4.4: "use a
    correlated merge policy to synchronize the merge of all secondary
    indexes with the primary key index") so that the unpruned primary-key
    components a repair consults are always strictly newer than the
    repairing component's keys. *)
let correlates_secondaries = function
  | Validation { bloom_opt = true; _ } -> true
  | _ -> false

(** Does every secondary-component merge repair its output (Fig. 7)?
    Eager's secondaries are never stale. *)
let repairs_on_merge = function
  | Validation { repair_on_merge; _ } -> repair_on_merge
  | Deleted_key_btree -> true
  | Eager | Mutable_bitmap -> false

(** Do secondary entries validate lazily against the primary key index
    (so pk-index merges keep tombstones behind the repair barrier)?  The
    deleted-key baseline validates against its own per-index trees. *)
let validates_against_pk = function
  | Validation _ | Mutable_bitmap -> true
  | Eager | Deleted_key_btree -> false

(** Eager's invariant: indexes and filters are always current, so queries
    skip validation and time-range scans prune freely. *)
let exact = function Eager -> true | _ -> false

(** The cheapest secondary-query plan the strategy keeps correct. *)
let query_mode t = if exact t then `Assume_valid else `Timestamp

let name = function
  | Eager -> "eager"
  | Validation { repair_on_merge = false; _ } -> "validation(no-repair)"
  | Validation { bloom_opt = true; _ } -> "validation(bf)"
  | Validation _ -> "validation"
  | Mutable_bitmap -> "mutable-bitmap"
  | Deleted_key_btree -> "deleted-key-btree"

let pp fmt t = Fmt.string fmt (name t)
