(** Maintenance strategies for LSM auxiliary structures — the heart of
    the paper.  See the implementation header for the full narrative of
    Eager (Sec. 3.1), Validation (Sec. 4), Mutable-bitmap (Sec. 5), and
    the deleted-key B+-tree baseline (Sec. 4.1). *)

type validation_opts = {
  repair_on_merge : bool;
      (** run merge repair (Fig. 7) whenever a secondary component merge
          happens; [false] = "validation (no repair)" in the figures *)
  bloom_opt : bool;
      (** the Bloom-filter repair optimization of Sec. 4.4 (requires the
          correlated merge policy across pk index and secondaries) *)
}

type t =
  | Eager
  | Validation of validation_opts
  | Mutable_bitmap
  | Deleted_key_btree

val eager : t
val validation : t
val validation_no_repair : t
val validation_bloom_opt : t
val mutable_bitmap : t
val deleted_key_btree : t

val uses_primary_bitmap : t -> bool
(** Does the strategy keep validity bitmaps on primary / primary-key
    components?  The pair then shares them and merges in lockstep
    (Sec. 5.1). *)

val correlates_secondaries : t -> bool
(** Must secondary merges be synchronized with the primary key index
    (Bloom-repair optimization, Sec. 4.4)? *)

val repairs_on_merge : t -> bool
(** Does every secondary-component merge repair the merged component
    (Fig. 7)? *)

val validates_against_pk : t -> bool
(** Do secondary entries validate lazily against the primary key index,
    so pk-index merges must keep tombstones behind the repair barrier? *)

val exact : t -> bool
(** Eager's invariant: indexes and filters are always current, so
    queries skip validation and time-range scans prune freely. *)

val query_mode : t -> [> `Assume_valid | `Timestamp ]
(** [`Assume_valid] when {!exact}, else [`Timestamp] validation. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
