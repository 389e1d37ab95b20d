(** Page-granular LRU buffer cache.  Keys are (file id, page number); the
    cache stores residency only — files in this simulation are phantom.

    Access allocates nothing: {!mem}, {!touch}, {!insert}, {!remove} and
    evictions work on flat int arrays.  Memory grows with the resident
    set — the arrays double on demand up to the capacity — not with the
    configured capacity. *)

type t

val create : capacity_pages:int -> t
(** [create ~capacity_pages]: capacity 0 disables caching. *)

val size : t -> int
val capacity : t -> int

val mem : t -> file:int -> page:int -> bool
(** Residency without touching recency. *)

val touch : t -> file:int -> page:int -> bool
(** [touch t ~file ~page] is [true] on a hit (promoting to MRU); [false]
    on a miss (caller fetches and {!insert}s). *)

val insert : t -> file:int -> page:int -> unit
(** Make the page resident at MRU, evicting the LRU page if at capacity.
    An already-resident page is promoted to MRU; a zero-capacity cache
    ignores the call. *)

val remove : t -> file:int -> page:int -> unit
(** Discard one resident page (e.g. a checksum-failed copy); no-op if
    absent. *)

val drop_file : t -> int -> unit
(** Discard all pages of a deleted file. *)

val clear : t -> unit
(** Empty the cache (cold-cache experiments). *)
