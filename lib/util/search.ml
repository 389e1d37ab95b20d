(** Array search primitives with comparison counting.

    Point-lookup cost in the simulated engine has an in-memory component
    (key comparisons inside B+-tree pages) that the paper's "stateful
    B+-tree lookup" optimization targets, so every search here reports how
    many comparisons it performed.  Counts are accumulated into an [int ref]
    supplied by the caller, which the storage environment converts into
    simulated CPU time.  Positions are (key, pk) pairs: see the
    interface. *)

let[@inline] compare_at keys pks i key pk =
  let k : int = keys.(i) in
  if k < key then -1
  else if k > key then 1
  else if Array.length pks = 0 then 0
  else compare (pks.(i) : int) pk

(* The smallest index [i] in [\[lo, hi)] whose pair compares [>= strict]
   with (key, pk), or [hi]: a lower bound with [strict = 0], an upper
   bound with [strict = 1] ([compare_at] is -1, 0 or 1). *)
let[@inline] bound ~strict ~cost keys pks ~lo ~hi key pk =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = !l + ((!h - !l) / 2) in
    incr cost;
    if compare_at keys pks mid key pk < strict then l := mid + 1 else h := mid
  done;
  !l

(** [lower_bound ~cost keys pks ~lo ~hi key pk] returns the smallest index
    [i] in [\[lo, hi)] whose pair is [>= (key, pk)], or [hi] if there is
    none.  Standard binary search; adds the number of comparisons to
    [cost]. *)
let lower_bound ~cost keys pks ~lo ~hi key pk =
  bound ~strict:0 ~cost keys pks ~lo ~hi key pk

(** [upper_bound ~cost keys pks ~lo ~hi key pk] returns the smallest index
    [i] in [\[lo, hi)] whose pair is [> (key, pk)], or [hi]. *)
let upper_bound ~cost keys pks ~lo ~hi key pk =
  bound ~strict:1 ~cost keys pks ~lo ~hi key pk

(** [exponential_lower_bound ~cost keys pks ~lo ~hi ~start key pk] is
    [lower_bound] but begins probing at [start] (the previous search
    position) with exponentially increasing steps, as in Bentley & Yao's
    unbounded search.  When consecutive lookups target nearby keys — the
    common case for sorted batched point lookups — this costs
    O(log distance) instead of O(log n). *)
let exponential_lower_bound ~cost keys pks ~lo ~hi ~start key pk =
  let start = if start < lo then lo else if start > hi then hi else start in
  (* Gallop to a window [!l, !h] holding the answer, then binary-search it;
     loops, not local closures, so a search allocates nothing. *)
  let l = ref lo and h = ref hi and step = ref 1 and galloping = ref true in
  if start >= hi || (incr cost; compare_at keys pks start key pk >= 0) then begin
    (* Answer is at or before [start]: gallop backwards.  Invariant: the
       lower bound lies in [lo, !h] and either [!h = start] or
       [a.(!h) >= key], so [lower_bound] returning [!h] is correct. *)
    h := start;
    while !galloping do
      let probe = start - !step in
      if probe <= lo then galloping := false
      else if (incr cost; compare_at keys pks probe key pk >= 0) then begin
        step := !step * 2;
        h := probe
      end
      else begin
        l := probe + 1;
        galloping := false
      end
    done
  end
  else begin
    (* Answer is strictly after [start]: gallop forwards.  Invariant:
       [a.(low) < key], so the lower bound lies in (low, hi]. *)
    let low = ref start in
    while !galloping do
      let probe = start + !step in
      if probe >= hi then galloping := false
      else if (incr cost; compare_at keys pks probe key pk < 0) then begin
        step := !step * 2;
        low := probe
      end
      else begin
        h := probe;
        galloping := false
      end
    done;
    l := !low + 1
  end;
  lower_bound ~cost keys pks ~lo:!l ~hi:!h key pk
