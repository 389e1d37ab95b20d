(** K-way merge of sorted sources.

    Merges, reconciling scans, sorted-view builds, DELI repair and the
    Sec. 5.3 concurrent builder all walk several sorted components at
    once, newest first, and reconcile equal keys.  This module is that
    walk: the source indices in a binary min-heap ordered by (head, source
    index), so the duplicates of a key surface newest source first and
    each caller applies its own duplicate-key rule.

    The heads themselves belong to the caller, who reads the top's head
    before advancing it.  Sources are pulled lazily — once at creation,
    then only the top source, by [advance] — so a source over a component
    may end at the first out-of-range row and is never asked for more.
    The heap holds plain source indices: nothing is allocated per
    element. *)

type t = {
  compare : int -> int -> int;
  pull : int -> bool;
  heap : int array;  (** live sources, heap-ordered by (head, source) *)
  mutable size : int;
}

(* Heap order of two live sources: their heads under the caller's
   [compare] (run exactly once), ties to the lower index. *)
let order t a b =
  let c = t.compare a b in
  if c <> 0 then c else Int.compare a b

(* Both sifts move a hole instead of swapping: [s] is written once, where
   it lands.  The comparison sequence, operand for operand, is that of
   the textbook swapping heap (push = append + sift up, pop = move the
   last entry to the root + sift down): callers that charge [compare] to
   a cost model are pinned to it. *)
let rec sift_up t i s =
  let parent = (i - 1) / 2 in
  if i > 0 && order t s t.heap.(parent) < 0 then begin
    t.heap.(i) <- t.heap.(parent);
    sift_up t parent s
  end
  else t.heap.(i) <- s

let rec sift_down t i s =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i and least = ref s in
  if l < t.size && order t t.heap.(l) !least < 0 then begin
    smallest := l;
    least := t.heap.(l)
  end;
  if r < t.size && order t t.heap.(r) !least < 0 then begin
    smallest := r;
    least := t.heap.(r)
  end;
  if !smallest <> i then begin
    t.heap.(i) <- !least;
    sift_down t !smallest s
  end
  else t.heap.(i) <- s

let create ~compare ~pull k =
  let t = { compare; pull; heap = Array.make k 0; size = 0 } in
  for s = 0 to k - 1 do
    if pull s then begin
      t.size <- t.size + 1;
      sift_up t (t.size - 1) s
    end
  done;
  t

let top t = if t.size = 0 then -1 else t.heap.(0)

let advance t =
  let n = t.size - 1 in
  if n < 0 then invalid_arg "Kmerge.advance: empty";
  let h = t.heap in
  let s = h.(0) in
  if n > 1 then begin
    t.size <- n;
    sift_down t 0 h.(n);
    if t.pull s then begin
      t.size <- n + 1;
      sift_up t n s
    end;
    h.(0)
  end
  else begin
    (* At most one other live source, [o]: the sift-down would only move
       it to the root, and the sift-up of a refilled [s] is one
       comparison.  Written out, since it is every two-source merge's
       whole step. *)
    let o = h.(n) in
    if not (t.pull s) then begin
      t.size <- n;
      h.(0) <- o;
      if n = 0 then -1 else o
    end
    else if
      n = 1
      &&
      let c = t.compare s o in
      c > 0 || (c = 0 && s > o) (* [order t s o >= 0], inlined *)
    then begin
      h.(0) <- o;
      h.(1) <- s;
      o
    end
    else s
  end
