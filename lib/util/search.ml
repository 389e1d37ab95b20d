(** Array search primitives with comparison counting.

    Point-lookup cost in the simulated engine has an in-memory component
    (key comparisons inside B+-tree pages) that the paper's "stateful
    B+-tree lookup" optimization targets, so every search here reports how
    many comparisons it performed.  Counts are accumulated into an [int ref]
    supplied by the caller, which the storage environment converts into
    simulated CPU time. *)

(** [lower_bound ~cmp ~cost a ~lo ~hi key] returns the smallest index
    [i] in [\[lo, hi)] such that [cmp a.(i) key >= 0], or [hi] if there is
    none.  Standard binary search; adds the number of comparisons to
    [cost]. *)
let lower_bound ~cmp ~cost a ~lo ~hi key =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = !l + ((!h - !l) / 2) in
    incr cost;
    if cmp a.(mid) key < 0 then l := mid + 1 else h := mid
  done;
  !l

(** [upper_bound ~cmp ~cost a ~lo ~hi key] returns the smallest index [i] in
    [\[lo, hi)] such that [cmp a.(i) key > 0], or [hi]. *)
let upper_bound ~cmp ~cost a ~lo ~hi key =
  let l = ref lo and h = ref hi in
  while !l < !h do
    let mid = !l + ((!h - !l) / 2) in
    incr cost;
    if cmp a.(mid) key <= 0 then l := mid + 1 else h := mid
  done;
  !l

(** [exponential_lower_bound ~cmp ~cost a ~lo ~hi ~start key] is
    [lower_bound] but begins probing at [start] (the previous search
    position) with exponentially increasing steps, as in Bentley & Yao's
    unbounded search.  When consecutive lookups target nearby keys — the
    common case for sorted batched point lookups — this costs
    O(log distance) instead of O(log n). *)
let exponential_lower_bound ~cmp ~cost a ~lo ~hi ~start key =
  let start = if start < lo then lo else if start > hi then hi else start in
  (* Gallop to a window [!l, !h] holding the answer, then binary-search it;
     loops, not local closures, so a search allocates nothing. *)
  let l = ref lo and h = ref hi and step = ref 1 and galloping = ref true in
  if start >= hi || (incr cost; cmp a.(start) key >= 0) then begin
    (* Answer is at or before [start]: gallop backwards.  Invariant: the
       lower bound lies in [lo, !h] and either [!h = start] or
       [a.(!h) >= key], so [lower_bound] returning [!h] is correct. *)
    h := start;
    while !galloping do
      let probe = start - !step in
      if probe <= lo then galloping := false
      else if (incr cost; cmp a.(probe) key >= 0) then begin
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
      else if (incr cost; cmp a.(probe) key < 0) then begin
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
  lower_bound ~cmp ~cost a ~lo:!l ~hi:!h key

(** [binary_find ~cmp ~cost a key] returns [Some i] with [cmp a.(i) key = 0]
    if present in the sorted array [a]. *)
let binary_find ~cmp ~cost a key =
  let n = Array.length a in
  let i = lower_bound ~cmp ~cost a ~lo:0 ~hi:n key in
  if i < n && (incr cost; cmp a.(i) key = 0) then Some i else None
