(** Array search primitives with comparison counting.

    Every search reports its comparisons into the caller-supplied [cost]
    counter; the storage environment converts counts into simulated CPU
    time.

    A search runs over a sorted int key column [keys] and a tie-break
    column [pks]: position [i] holds [(keys.(i), pks.(i))], ordered
    lexicographically, a secondary index's (sk, pk).  With [pks = [||]]
    it holds its key alone and the sought [pk] is ignored. *)

val compare_at : int array -> int array -> int -> int -> int -> int
(** [compare_at keys pks i key pk]: position [i]'s pair against
    [(key, pk)], as [compare] does (not counted). *)

val lower_bound :
  cost:int ref -> int array -> int array -> lo:int -> hi:int -> int -> int -> int
(** [lower_bound ~cost keys pks ~lo ~hi key pk]: the smallest [i] in
    [[lo, hi)] whose pair is [>= (key, pk)], else [hi]. *)

val upper_bound :
  cost:int ref -> int array -> int array -> lo:int -> hi:int -> int -> int -> int
(** The smallest [i] in [[lo, hi)] whose pair is [> (key, pk)], else
    [hi]. *)

val exponential_lower_bound :
  cost:int ref ->
  int array ->
  int array ->
  lo:int ->
  hi:int ->
  start:int ->
  int ->
  int ->
  int
(** [lower_bound], but galloping from [start] (the previous search
    position) à la Bentley & Yao — O(log distance) when consecutive
    lookups target nearby keys, as in sorted batched point lookups. *)
