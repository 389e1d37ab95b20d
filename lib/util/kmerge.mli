(** K-way merge of sorted pull streams — the one merge behind every
    reconciling path of the engine (tiering merges, reconciling scans,
    sorted-view builds, DELI repair, the concurrent builder). *)

type 'a t

val create : compare:('a -> 'a -> int) -> (unit -> 'a option) array -> 'a t
(** [create ~compare sources] merges [sources], each a stream of elements
    sorted by [compare] ([None] = exhausted), listed newest first.  Pulls
    every source's first element.  [compare] runs exactly once per heap
    comparison, so callers may charge it to a cost model; equal elements
    pop in source order (newest first). *)

val is_empty : 'a t -> bool

val pop : 'a t -> int * 'a
(** [pop t] removes the head with the smallest (element, source index)
    and returns it with its source index, then pulls the next element of
    that source only: a source is never pulled before its previous head
    was popped, nor again after it returned [None].
    @raise Invalid_argument if [t] is empty. *)
