(** Cache-friendly blocked Bloom filters (Putze et al., JEA 2010; paper
    Sec. 3.2).

    The bit space is divided into cache-line-sized blocks (512 bits).  The
    first hash picks a block; the remaining hashes test bits within that
    block only, so a probe costs one CPU cache miss instead of [k].  The
    price is roughly one extra bit per key for the same false-positive
    rate, which [create] adds on top of the standard sizing. *)

let block_bits = 512 (* one 64-byte cache line *)

type t = {
  bits : Lsm_util.Bitset.t;
  nblocks : int;
  k : int;
}

let create ~expected ~fpr =
  let m, k = Bloom.params ~expected ~fpr in
  (* One extra bit per key compensates for block-occupancy variance. *)
  let m = m + max expected 1 in
  let nblocks = max 1 ((m + block_bits - 1) / block_bits) in
  { bits = Lsm_util.Bitset.create (nblocks * block_bits); nblocks; k }

(* The first bit of the block a key's first base hash picks, and the
   [i]-th probe's offset inside it. *)
let block_base ~nblocks h1 = h1 land max_int mod nblocks * block_bits
let offset h1 h2 i = (h1 + ((i + 1) * h2)) land max_int mod block_bits

(** [position ~nblocks h1 h2 i] is the [i]-th probe's bit, from a key's two
    base hashes ({!Hashing.h1}, {!Hashing.h2}). *)
let position ~nblocks h1 h2 i = block_base ~nblocks h1 + offset h1 h2 i

(** [add t h] inserts a key by its hash. *)
let add t h =
  let h1 = Hashing.h1 h and h2 = Hashing.h2 h in
  let base = block_base ~nblocks:t.nblocks h1 in
  for i = 0 to t.k - 1 do
    Lsm_util.Bitset.set t.bits (base + offset h1 h2 i)
  done

(** [contains t h] is [false] only if the key was never added. *)
let rec contains_from t base h1 h2 i =
  i >= t.k
  || Lsm_util.Bitset.get t.bits (base + offset h1 h2 i)
     && contains_from t base h1 h2 (i + 1)

let contains t h =
  let h1 = Hashing.h1 h in
  contains_from t (block_base ~nblocks:t.nblocks h1) h1 (Hashing.h2 h) 0

let k t = t.k
let bit_count t = t.nblocks * block_bits
let byte_size t = Lsm_util.Bitset.byte_size t.bits

(** The whole point: one cache line per probe. *)
let cache_lines_per_probe _t = 1

let hashes_per_probe _t = 2
