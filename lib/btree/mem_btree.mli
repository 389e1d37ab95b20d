(** Mutable in-memory B+-trees — the data structure of LSM *memory
    components* (Sec. 2.2).  Insert-or-replace, point lookup, leaf-linked
    in-order iteration, and a rollback-only removal (LSM deletion inserts
    anti-matter values; physical removal exists solely for transaction
    rollback, Sec. 5.2).

    Keys are ints.  A tree created with [~pks:true] names each binding by
    the pair (key, pk), ordered by key and then pk — a secondary index's
    (secondary key, primary key), kept as a second int column beside the
    keys.  Without it a binding is named by its key alone, which is its
    pk: every [pk] argument is then ignored and {!pk} reads the key.
    Each binding also carries an int timestamp and an int filter key,
    kept in leaf columns aligned with the keys: a leaf slot holds the
    value as it was written, with no (timestamp, value) pair around it,
    and a cursor walk can test a range predicate on the filter key
    without reading the value.

    Key comparisons are counted per tree (a (key, pk) comparison counts
    one); the LSM layer drains the counter into the simulated clock after
    each operation. *)

val no_fkey : int
(** [min_int]: the filter key every binding of a tree created without the
    filter-key column reads back. *)

type 'v t

val create : ?fkeys:bool -> ?pks:bool -> unit -> 'v t
(** [~fkeys:false] leaves out the filter-key column (default: kept);
    {!put} then drops its [fkey] and {!fkey} reads {!no_fkey}.
    [~pks:true] adds the pk column (default: none). *)

val length : 'v t -> int
val is_empty : 'v t -> bool

val take_comparisons : 'v t -> int
(** Return and reset the comparison counter. *)

val put : 'v t -> int -> int -> ts:int -> fkey:int -> 'v -> 'v option
(** [put t key pk ~ts ~fkey v] inserts or replaces the value, timestamp
    and filter key bound to (key, pk); returns the previous value, if
    any. *)

val remove : 'v t -> int -> int -> 'v option
(** Remove a binding (transaction rollback only).  Leaves may underflow;
    search correctness is unaffected. *)

val find : 'v t -> int -> int -> 'v option
(** [find t key pk]: the value bound to (key, pk), if any. *)

val found_ts : 'v t -> int
(** The timestamp of {!find}'s last hit on this tree. *)

val to_sorted_array : 'v t -> (int * int * int * 'v) array
(** All bindings as (key, pk, ts, value), in order (the tests' model). *)

type 'v cursor
(** A pull cursor over the bindings in ascending order.  It reads the
    leaves in place: the tree must not be modified while a cursor over it
    is in use. *)

val seek : 'v t -> int option -> int -> 'v cursor
(** [seek t lo pk] positions a cursor at the first binding >= (lo, pk)
    ([None] = the first binding).  It is the tree's one ordered descent:
    it adds to the comparison counter the comparisons of a root-to-leaf
    lower-bound search ({!find} adds at most one more, its equality
    check); [None] adds nothing. *)

val step : 'v cursor -> bool
(** Move the cursor past the binding under it, along the leaf links:
    [false] once exhausted, and on every later call.  Makes no
    comparisons and allocates nothing. *)

val key : 'v cursor -> int
val pk : 'v cursor -> int
val ts : 'v cursor -> int
val value : 'v cursor -> 'v
val fkey : 'v cursor -> int
(** The binding the last successful {!step} moved past: its key, pk
    (its key, without the pk column), timestamp, value and filter key.
    @raise Invalid_argument before the first. *)

val copy : 'v cursor -> 'v cursor
(** An independent cursor at the same position. *)
