(** Shared sample statistics.

    One nan-safe percentile for every consumer ([Bench_json] snapshots,
    the serving driver's SLO tables) — the two used to carry separate
    copies, which is exactly how the PR 5 [Float.compare]/nan bug
    happened once and could happen again. *)

(* Nearest rank of [p] among [n] sorted values, as an index. *)
let rank n p =
  let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  max 0 (min (n - 1) (r - 1))

(* Heap sort of [a.(0) .. a.(n-1)], ascending, in place.  The values
   are nan-free, so [<] is a total order on them; comparing unboxed
   floats directly calls no comparison closure. *)
let sort_prefix (a : float array) n =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l) < a.(l + 1) then l + 1 else l in
      if a.(i) < a.(c) then begin
        let v = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- v;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let v = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- v;
    sift 0 last
  done

(** [sorted_percentiles a n ps] sorts the nan-free prefix
    [a.(0) .. a.(n-1)] in place and reads the nearest rank of each of
    [ps] from it; all nan when [n = 0]. *)
let sorted_percentiles a n ps =
  sort_prefix a n;
  Array.map (fun p -> if n = 0 then Float.nan else a.(rank n p)) ps

(** Nearest-rank percentiles over the finite values of [samples]; nan
    samples are dropped first (a timer glitch must not poison the
    statistic), and a result is nan only when no finite sample remains.
    The finite values are copied into one flat float array and sorted
    once for all of [ps]. *)
let percentiles samples ps =
  let n = ref 0 in
  for i = 0 to Array.length samples - 1 do
    if not (Float.is_nan samples.(i)) then incr n
  done;
  let s = Array.create_float !n in
  let k = ref 0 in
  for i = 0 to Array.length samples - 1 do
    let v = samples.(i) in
    if not (Float.is_nan v) then begin
      s.(!k) <- v;
      incr k
    end
  done;
  sorted_percentiles s !n ps

let percentile samples p = (percentiles samples [| p |]).(0)
let p50 samples = percentile samples 50.0
let p95 samples = percentile samples 95.0
let p99 samples = percentile samples 99.0
