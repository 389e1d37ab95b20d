(** A bounded ring keeping the last [capacity] values pushed, with a
    count of every push; shared by the span tracer and the time-series
    flight recorder. *)

type 'a t

val create : int -> 'a t
(** [create capacity]; [capacity] >= 1 unless the ring is never pushed. *)

val push : 'a t -> 'a -> unit
(** Store a value, overwriting the oldest one once the ring is full. *)

val recorded : 'a t -> int
(** Values ever pushed. *)

val dropped : 'a t -> int
(** Values overwritten: [recorded - capacity] when positive. *)

val to_array : 'a t -> 'a array
(** The ring's contents, oldest first. *)
