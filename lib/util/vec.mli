(** Minimal growable arrays (OCaml 5.1 predates [Dynarray]); merges
    append their output rows, and the concurrent component builder does
    too while writers binary-search the sorted prefix. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** The first push allocates an array of [capacity] elements (default
    16); a full array doubles. *)

val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** @raise Invalid_argument out of bounds. *)

val to_array : 'a t -> 'a array

val binary_search : cost:int ref -> int t -> int -> int option
(** [binary_search ~cost t key]: index of an element equal to [key] in
    the (sorted) contents, counting comparisons into [cost]. *)

val iter : 'a t -> ('a -> unit) -> unit
