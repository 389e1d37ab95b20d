(** Standard Bloom filters (Bloom, CACM 1970): one per primary /
    primary-key disk component, consulted before the component's B+-tree
    (Sec. 3, Fig. 1).  [add]/[contains] take a pre-computed 64-bit key
    hash (see {!Hashing}). *)

type t

val params : expected:int -> fpr:float -> int * int
(** [params ~expected ~fpr] is [(bits, probes)]:
    m/n = -ln p / (ln 2)², k = (m/n) ln 2.
    @raise Invalid_argument unless [0 < fpr < 1] and [expected >= 0]. *)

val create : expected:int -> fpr:float -> t

val position : m:int -> int -> int -> int -> int
(** [position ~m h1 h2 i]: the [i]-th probe's bit of an [m]-bit filter,
    from a key's base hashes [h1 = Hashing.h1 h] and [h2 = Hashing.h2 h]
    — the probe seed [h1 + i*h2] reduced mod [m].  {!add} and {!contains}
    hash each key once and probe these bits. *)

val add : t -> int -> unit

val contains : t -> int -> bool
(** [false] only if the key was never added. *)

val k : t -> int
val bit_count : t -> int
val byte_size : t -> int

val cache_lines_per_probe : t -> int
(** Up to [k] scattered cache lines per probe. *)

val hashes_per_probe : t -> int
