(** Query generation with controlled selectivity (Sec. 6.2): secondary
    ranges over the uniform user_id domain, and time ranges over the
    monotone creation_time attribute (Fig. 19). *)

type t

val create : ?seed:int -> unit -> t

val user_range : t -> selectivity:float -> int * int
(** A random [lo, hi] over the user_id domain covering [selectivity]
    (e.g. 0.001 = 0.1% of records). *)

val recent_time_range : now:int -> days:int -> day_span:int -> int * int
(** The "recent data" query of Fig. 19: the last [days] out of
    [day_span], scaled to the generated creation-time domain [0, now]. *)

val old_time_range : now:int -> days:int -> day_span:int -> int * int
(** The "old data" variant: the first [days] worth. *)

