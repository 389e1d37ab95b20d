(** Mutable binary min-heaps (the priority queue under {!Kmerge}). *)

type 'a t

val create : ('a -> 'a -> int) -> 'a t
(** [create cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element, if any, without removing it. *)

val pop : 'a t -> 'a
(** Remove and return the minimum. @raise Invalid_argument if empty. *)

val pop_opt : 'a t -> 'a option
