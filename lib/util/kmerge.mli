(** K-way merge of sorted pull streams — the one merge behind every
    reconciling path of the engine that reads two or more disk components
    (tiering merges, reconciling scans, sorted-view builds, DELI repair,
    the concurrent builder).  A reconciling scan over memory and at most
    one disk component merges its two streams inline instead
    ({!Lsm_tree.Make.scan}), with the comparisons this module would make
    on two sources. *)

type 'a t

val create : compare:('a -> 'a -> int) -> (unit -> 'a option) array -> 'a t
(** [create ~compare sources] merges [sources], each a stream of elements
    sorted by [compare] ([None] = exhausted), listed newest first.  Pulls
    every source's first element, in source order.  [compare] runs
    exactly once per heap comparison, so callers may charge it to a cost
    model; equal elements pop in source order (newest first).

    On one or two sources the calls are fixed: pulling a head while the
    other source's head is live runs [compare new_head other_head] once,
    and nothing else compares. *)

val is_empty : 'a t -> bool

val pop : 'a t -> 'a
(** [pop t] removes and returns the head with the smallest (element,
    source index), then pulls the next element of that source only,
    before returning: a source is never pulled before its previous head
    was popped, nor again after it returned [None].  Nothing is allocated.
    @raise Invalid_argument if [t] is empty. *)

val last_source : 'a t -> int
(** The source index of the element the last {!pop} returned ([-1]
    before the first). *)
