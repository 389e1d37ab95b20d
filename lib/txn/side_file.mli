(** Side-files for the Side-file concurrency-control method (Sec. 5.3,
    Fig. 11): writers append deleted keys while the builder scans against
    bitmap snapshots; catch-up sorts and applies them. *)

type t

val create : unit -> t

val append : t -> int -> bool
(** [false] once closed — the writer must then apply the deletion to the
    new component directly (Fig. 11b line 8). *)

val close : t -> unit
val length : t -> int

val sorted_keys : cost:int ref -> t -> int array
(** Deduplicated sorted keys, charging comparisons into [cost]. *)
