(** Mutable in-memory B+-trees — the data structure of LSM *memory
    components* (Sec. 2.2).  Insert-or-replace, point lookup, leaf-linked
    in-order iteration, and a rollback-only removal (LSM deletion inserts
    anti-matter values; physical removal exists solely for transaction
    rollback, Sec. 5.2).  Each binding also carries an int filter key,
    kept in a leaf column aligned with the keys, so a cursor walk can test
    a range predicate on it without reading the value.

    Key comparisons are counted per tree; the LSM layer drains the counter
    into the simulated clock after each operation. *)

val no_fkey : int
(** [min_int]: the filter key every binding of a tree created without the
    filter-key column reads back. *)

module Make (K : sig
  type t

  val compare : t -> t -> int
end) : sig
  type 'v t

  val create : ?fkeys:bool -> unit -> 'v t
  (** [~fkeys:false] leaves out the filter-key column (default: kept);
      {!put} then drops its [fkey] and {!fkey} reads {!no_fkey}. *)

  val length : 'v t -> int
  val is_empty : 'v t -> bool

  val take_comparisons : 'v t -> int
  (** Return and reset the comparison counter. *)

  val put : 'v t -> K.t -> fkey:int -> 'v -> 'v option
  (** Insert or replace the value and filter key bound to a key; returns
      the previous value, if any. *)

  val remove : 'v t -> K.t -> 'v option
  (** Remove a binding (transaction rollback only).  Leaves may underflow;
      search correctness is unaffected. *)

  val find : 'v t -> K.t -> 'v option
  val mem : 'v t -> K.t -> bool

  val iter : 'v t -> (K.t -> 'v -> unit) -> unit
  (** Ascending key order: a walk of [seek t None]. *)

  val to_sorted_array : 'v t -> (K.t * 'v) array
  (** Materialize all bindings in key order (the tests' model). *)

  val iter_from : 'v t -> K.t -> (K.t -> 'v -> bool) -> unit
  (** Bindings with key >= the bound, in order, while the callback returns
      [true]: a walk of [seek t (Some bound)]. *)

  type 'v cursor
  (** A pull cursor over the bindings in ascending key order.  It reads the
      leaves in place: the tree must not be modified while a cursor over
      it is in use. *)

  val seek : 'v t -> K.t option -> 'v cursor
  (** [seek t lo] positions a cursor at the first binding with key >= [lo]
      ([None] = the first binding).  It is the tree's one ordered descent:
      it adds to the comparison counter the comparisons of a root-to-leaf
      lower-bound search ({!find} adds at most one more, its equality
      check); [None] adds nothing. *)

  val step : 'v cursor -> bool
  (** Move the cursor past the binding under it, along the leaf links:
      [false] once exhausted, and on every later call.  Makes no
      comparisons and allocates nothing. *)

  val key : 'v cursor -> K.t
  val value : 'v cursor -> 'v
  val fkey : 'v cursor -> int
  (** The binding the last successful {!step} moved past: its key, value
      and filter key.
      @raise Invalid_argument before the first. *)

  val copy : 'v cursor -> 'v cursor
  (** An independent cursor at the same position. *)

  val min_binding : 'v t -> (K.t * 'v) option
  val max_binding : 'v t -> (K.t * 'v) option
end
