(** 64-bit hash mixing.

    Bloom filters take an already-hashed key; index keys hash themselves
    with these helpers.  [mix64] is the SplitMix64 finalizer, a strong
    bijective mixer; [combine] folds multiple fields (composite secondary
    keys are (secondary key, primary key) pairs). *)

let mix64 (x : int) : int =
  let open Int64 in
  let z = of_int x in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (logxor z (shift_right_logical z 31))

(** [combine h1 h2] mixes two hashes into one. *)
let combine h1 h2 = mix64 (h1 lxor (h2 + 0x9E3779B9 + (h1 lsl 6) + (h1 lsr 2)))

(** [hash_string s] hashes a string (FNV-1a over bytes, then mixed). *)
let hash_string s =
  (* FNV-1a offset basis, truncated to OCaml's 63-bit int range. *)
  let h = ref 0x3BF29CE484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001B3) s;
  mix64 !h

(** [h1 h] and [h2 h] are the two base hashes of Kirsch & Mitzenmacher
    double hashing, [h2] forced odd: the i-th probe position seed is
    [h1 + i*h2].  A filter computes them once per key and derives every
    probe position from them. *)
let h1 h = mix64 h

let h2 h = mix64 (h lxor 0x5851F42D4C957F2D) lor 1
