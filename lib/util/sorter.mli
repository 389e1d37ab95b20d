(** Sorting with comparison counting (query-plan sorts and repair streams
    charge simulated CPU per comparison). *)

val sort : cmp:('a -> 'a -> int) -> cost:int ref -> 'a array -> unit
(** [sort ~cmp ~cost a] sorts in place, adding comparisons to [cost]. *)

val dedup_sorted : eq:('a -> 'a -> bool) -> 'a array -> 'a array
(** Distinct elements of a sorted array, keeping the first of each run
    (the sort-distinct step of Direct Validation, Fig. 5a). *)

val is_sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
