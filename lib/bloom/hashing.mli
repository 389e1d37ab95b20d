(** 64-bit hash mixing for Bloom filters and hash partitioning. *)

val mix64 : int -> int
(** The SplitMix64 finalizer: a strong bijective mixer. *)

val combine : int -> int -> int
(** Order-sensitive combination of two hashes (composite keys). *)

val hash_string : string -> int
(** FNV-1a over bytes, then mixed. *)

val h1 : int -> int
val h2 : int -> int
(** The two base hashes of Kirsch-Mitzenmacher double hashing: the i-th
    probe seed of a key hash [h] is [h1 h + i * h2 h] ([h2] odd).  A
    filter computes them once per key. *)
