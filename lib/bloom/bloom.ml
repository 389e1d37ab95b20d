(** Standard Bloom filters (Bloom, CACM 1970).

    Every primary / primary-key disk component carries one on its primary
    keys (Sec. 3, Fig. 1), and point lookups consult it before touching the
    component's B+-tree.  Sized from an expected key count and a target
    false-positive rate (the paper uses 1%).

    [add]/[contains] take a pre-computed 64-bit key hash, not the key
    itself; see {!Hashing}. *)

type t = {
  bits : Lsm_util.Bitset.t;
  m : int;  (** number of bits *)
  k : int;  (** number of probe functions *)
}

(** [params ~expected ~fpr] computes (bits, probes) for [expected] keys at
    false-positive rate [fpr]: m/n = -ln p / (ln 2)^2, k = (m/n) ln 2. *)
let params ~expected ~fpr =
  if expected < 0 then invalid_arg "Bloom.params: negative expected";
  if fpr <= 0.0 || fpr >= 1.0 then invalid_arg "Bloom.params: fpr in (0,1)";
  let n = Float.of_int (max expected 1) in
  let ln2 = Float.log 2.0 in
  let bits_per_key = -.Float.log fpr /. (ln2 *. ln2) in
  let m = int_of_float (Float.ceil (n *. bits_per_key)) in
  let k = max 1 (int_of_float (Float.round (bits_per_key *. ln2))) in
  (max m 8, k)

let create ~expected ~fpr =
  let m, k = params ~expected ~fpr in
  { bits = Lsm_util.Bitset.create m; m; k }

(** [position ~m h1 h2 i] is the [i]-th probe's bit, from a key's two base
    hashes ({!Hashing.h1}, {!Hashing.h2}): the seed [h1 + i*h2] mod [m]. *)
let position ~m h1 h2 i = (h1 + (i * h2)) land max_int mod m

(** [add t h] inserts a key by its hash. *)
let add t h =
  let h1 = Hashing.h1 h and h2 = Hashing.h2 h in
  for i = 0 to t.k - 1 do
    Lsm_util.Bitset.set t.bits (position ~m:t.m h1 h2 i)
  done

(** [contains t h] is [false] only if the key was never added; [true] may
    be a false positive. *)
let rec contains_from t h1 h2 i =
  i >= t.k
  || Lsm_util.Bitset.get t.bits (position ~m:t.m h1 h2 i)
     && contains_from t h1 h2 (i + 1)

let contains t h = contains_from t (Hashing.h1 h) (Hashing.h2 h) 0

let k t = t.k
let bit_count t = t.m

(** [byte_size t] is the filter's footprint, for accounting. *)
let byte_size t = Lsm_util.Bitset.byte_size t.bits

(** Probe cost model: a standard Bloom filter touches up to [k] scattered
    cache lines per probe and evaluates two base hashes. *)
let cache_lines_per_probe t = t.k

let hashes_per_probe _t = 2
