(** Immutable disk-resident B+-trees — the structure inside every LSM disk
    component.  Bulk-loaded once from a key-sorted row array; leaf pages
    live in a phantom file so page counts and I/O costs reflect real entry
    sizes.  Interior levels are fence-key arrays: their descent charges
    comparisons but no page I/O (they are a fraction of a percent of the
    data and pinned in any real cache); interior pages are written — and
    charged — at build time.

    Three access paths mirror Sec. 3.2: {!val-find} (stateless, the
    "naive" baseline), {!Cursor} (stateful, resuming from the last leaf
    with exponential search — "sLookup"), and {!Scan} (sequential
    read-ahead iteration for range scans and merges). *)

module Make (K : Lsm_util.Intf.ORDERED) : sig
  type 'row t

  val build :
    Lsm_sim.Env.t ->
    key_of:('row -> K.t) ->
    size_of:('row -> int) ->
    'row array ->
    'row t
  (** Bulk-load from rows sorted ascending by [key_of] (duplicates
      allowed); charges sequential writes for leaf and interior pages. *)

  val delete : Lsm_sim.Env.t -> 'row t -> unit
  (** Release the underlying file. *)

  val nrows : 'row t -> int
  val is_empty : 'row t -> bool
  val file : 'row t -> Lsm_sim.Sfile.t
  val leaf_pages : 'row t -> int
  val interior_pages : 'row t -> int

  val rows : 'row t -> 'row array
  (** The raw sorted rows (no I/O charged; callers walking them outside a
      scan must charge explicitly). *)

  val keys : 'row t -> K.t array
  val min_key : 'row t -> K.t option
  val max_key : 'row t -> K.t option
  val size_bytes : Lsm_sim.Env.t -> 'row t -> int

  val lower_bound_row : Lsm_sim.Env.t -> 'row t -> K.t -> int
  (** Index of the first row with key >= the bound (or [nrows]); charges
      the interior descent and one leaf read. *)

  val leaf_of_row : 'row t -> int -> int
  (** Leaf index holding a row (no I/O charged; callers fetch the leaf
      themselves).  Lets the sorted-view layer charge exactly the page
      fetches a sequential scan of the same rows would. *)

  val find : Lsm_sim.Env.t -> 'row t -> K.t -> (int * 'row) option
  (** Stateless point lookup: first row equal to the key, with its index. *)

  (** Stateful search cursors ("sLookup"): remember the last leaf and row
      position and gallop from there, so sorted key batches cost
      O(log gap) per key. *)
  module Cursor : sig
    type 'row cur

    val create : 'row t -> 'row cur
    val find : Lsm_sim.Env.t -> 'row cur -> K.t -> (int * 'row) option
  end

  (** Sequential scans in leaf order, prefetching
      [Env.read_ahead_pages] leaves per device request (the paper's 4MB
      read-ahead), so many interleaved scan streams do not degrade to a
      seek per page. *)
  module Scan : sig
    type 'row s

    val seek : Lsm_sim.Env.t -> 'row t -> K.t option -> 'row s
    (** Position at the first row with key >= the bound ([None] = start). *)

    val has_next : 'row s -> bool
    val peek_key : 'row s -> K.t option

    val next : Lsm_sim.Env.t -> 'row s -> int
    (** Consume the next row and return its index into {!rows} ([-1] when
        exhausted), charging page fetches as leaves are entered and one
        entry visit per row.  Allocates nothing. *)
  end
end
