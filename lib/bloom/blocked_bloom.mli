(** Cache-friendly blocked Bloom filters (Putze et al.; paper Sec. 3.2):
    the first hash picks a 512-bit block, remaining probes stay inside it
    — one CPU cache miss per probe, for ~one extra bit per key. *)

type t

val block_bits : int
(** 512: one 64-byte cache line. *)

val create : expected:int -> fpr:float -> t

val position : nblocks:int -> int -> int -> int -> int
(** [position ~nblocks h1 h2 i]: the [i]-th probe's bit, from a key's
    base hashes [h1 = Hashing.h1 h] and [h2 = Hashing.h2 h]: block
    [h1 mod nblocks], offset [h1 + (i + 1)*h2 mod 512].
    {!add} and {!contains} hash each key once and probe these bits. *)

val add : t -> int -> unit

val contains : t -> int -> bool
(** [false] only if the key was never added. *)

val k : t -> int
val bit_count : t -> int
val byte_size : t -> int

val cache_lines_per_probe : t -> int
(** Always 1 — the point of the structure. *)

val hashes_per_probe : t -> int
