(** Sorting with comparison counting.

    Query plans in the paper sort primary keys before point lookups and
    optionally re-sort fetched records back into key order (Fig. 12d); merge
    repair streams (key, ts, position) triples through a sorter (Fig. 7).
    All of those sorts charge simulated CPU time proportional to the number
    of comparisons performed, which this module reports. *)

(** [sort ~cmp ~cost a] sorts [a] in place, adding the number of
    comparisons performed to [cost]. *)
let sort ~cmp ~cost a =
  Array.sort
    (fun x y ->
      incr cost;
      cmp x y)
    a

(** [dedup_sorted ~eq a] returns the distinct elements of a sorted array,
    keeping the first of each run of equal elements.  Used by the
    sort-distinct step of Direct Validation (Fig. 5a). *)
let dedup_sorted ~eq a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = ref [ a.(0) ] in
    let count = ref 1 in
    for i = 1 to n - 1 do
      if not (eq a.(i) a.(i - 1)) then begin
        out := a.(i) :: !out;
        incr count
      end
    done;
    let res = Array.make !count a.(0) in
    List.iteri (fun i x -> res.(!count - 1 - i) <- x) !out;
    res
  end

(** [is_sorted ~cmp a] checks that [a] is non-decreasing under [cmp]. *)
let is_sorted ~cmp a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if cmp a.(i - 1) a.(i) > 0 then ok := false
  done;
  !ok
