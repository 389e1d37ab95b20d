(** K-way merge of sorted sources — the one merge behind every
    reconciling path of the engine: tiering merges, reconciling scans,
    sorted-view builds, DELI repair and the concurrent builder.

    The merge orders sources, not elements.  The caller owns each
    source's head (a row position in a disk component, the memtable
    cursor, an index into a key array) and reads it directly; this
    module only keeps the live sources in heap order. *)

type t

val create : compare:(int -> int -> int) -> pull:(int -> bool) -> int -> t
(** [create ~compare ~pull k] merges sources [0 .. k-1], listed newest
    first.  [pull s] advances source [s]'s head and returns [false] once
    the source is exhausted; [compare a b] orders the current heads of
    live sources [a] and [b].  Pulls every source once, in source order.
    [compare] runs exactly once per heap comparison, so callers may charge
    it to a cost model; equal heads surface in source order (newest
    first).

    On one or two sources the calls are fixed: a pull that leaves both
    heads live is followed by one [compare pulled other], and nothing
    else compares. *)

val top : t -> int
(** The live source with the smallest (head, source index), [-1] once
    every source is exhausted.  Its head is the merge's next element:
    read it before {!advance}. *)

val advance : t -> int
(** [advance t] pulls the {!top} source, restores heap order and returns
    the new {!top}.  A source is pulled only here, when it is the top, and
    never again once its pull returned [false].  Allocates nothing.
    @raise Invalid_argument if [t] is empty. *)
