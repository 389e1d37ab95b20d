(** Immutable disk-resident B+-trees — the key index inside every LSM disk
    component.  Bulk-loaded once from sorted key columns and a size per
    row position; the rows themselves are the caller's, stored as columns
    and read by the positions this index returns.  Leaf pages live in a
    phantom file so page counts and I/O costs reflect real entry sizes.
    Interior levels are fence-key arrays: their descent charges
    comparisons but no page I/O (they are a fraction of a percent of the
    data and pinned in any real cache); interior pages are written — and
    charged — at build time.

    Keys are ints.  A tree over a secondary index's rows also keeps each
    row's pk in a second int column: rows are ordered by (key, pk) and a
    search names a row by the pair.  Without that column (an empty [pks])
    the key is the pk and every [pk] argument is ignored.  One pair
    comparison is one charged comparison.

    Three access paths mirror Sec. 3.2: {!val-find} (stateless, the
    "naive" baseline), {!Cursor} (stateful, resuming from the last leaf
    with exponential search — "sLookup"), and {!Scan} (sequential
    read-ahead iteration for range scans and merges). *)

type t

val build : Lsm_sim.Env.t -> size_of:(int -> int) -> int array -> int array -> t
(** [build env ~size_of keys pks]: bulk-load from rows sorted ascending by
    (key, pk) (duplicates allowed; [pks = [||]]: no pk column),
    [size_of i] being the serialized size of the row at position [i];
    charges sequential writes for leaf and interior pages (a fence takes
    8 bytes, 16 with its pk).  The tree keeps both arrays as its
    columns. *)

val delete : Lsm_sim.Env.t -> t -> unit
(** Release the underlying file. *)

val nrows : t -> int
val is_empty : t -> bool
val file : t -> Lsm_sim.Sfile.t
val leaf_pages : t -> int
val interior_pages : t -> int

val keys : t -> int array
(** The key of each row position, ascending (no I/O charged; callers
    reading it outside a search or scan must charge explicitly). *)

val pks : t -> int array
(** The pk of each row position, or [[||]] when the key is the pk. *)

val size_bytes : Lsm_sim.Env.t -> t -> int

val lower_bound_row : Lsm_sim.Env.t -> t -> int -> int -> int
(** [lower_bound_row env t key pk]: index of the first row >= (key, pk)
    (or [nrows]); charges the interior descent and one leaf read. *)

val leaf_of_row : t -> int -> int
(** Leaf index holding a row (no I/O charged; callers fetch the leaf
    themselves).  Lets the sorted-view layer charge exactly the page
    fetches a sequential scan of the same rows would. *)

val find : Lsm_sim.Env.t -> t -> int -> int -> int
(** [find env t key pk]: stateless point lookup, the position of the
    first row equal to (key, pk), or [-1].  Allocates nothing, on a hit
    or a miss. *)

(** Stateful search cursors ("sLookup"): remember the last leaf and row
    position and gallop from there, so sorted key batches cost O(log gap)
    per key. *)
module Cursor : sig
  type cur

  val create : t -> cur

  val find : Lsm_sim.Env.t -> cur -> int -> int -> int
  (** As {!val-find}, galloping from the cursor's last position. *)
end

(** Sequential scans in leaf order, prefetching [Env.read_ahead_pages]
    leaves per device request (the paper's 4MB read-ahead), so many
    interleaved scan streams do not degrade to a seek per page. *)
module Scan : sig
  type s

  val seek : Lsm_sim.Env.t -> t -> int option -> int -> s
  (** [seek env t lo pk]: position at the first row >= (lo, pk) ([None]:
      at the first row). *)

  val next : Lsm_sim.Env.t -> s -> int
  (** Consume the next row and return its position ([-1] when
      exhausted), charging page fetches as leaves are entered and one
      entry visit per row.  Allocates nothing. *)
end
