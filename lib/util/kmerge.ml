(** K-way merge of sorted pull streams.

    Merges, reconciling scans over several disk components, sorted-view
    builds, DELI repair and the Sec. 5.3 concurrent builder all walk
    several sorted components at once, newest first, and reconcile equal
    keys.  This module is that walk: one head per source, the source
    indices in a binary min-heap ordered by (head, source index), so the
    duplicates of a key surface newest source first and each caller
    applies its own duplicate-key rule to the output.

    Sources are pulled lazily — once at creation, then only the source
    whose head was just popped — so a stream over a component may end at
    the first out-of-range row and is never asked for more.

    Nothing is allocated per element: a head is the option its stream
    returned, kept in [heads], and the heap holds plain source indices. *)

type 'a t = {
  compare : 'a -> 'a -> int;
  sources : (unit -> 'a option) array;
  heads : 'a option array;  (** per source; [None] = exhausted *)
  heap : int array;  (** live sources, heap-ordered by (head, source) *)
  mutable size : int;
  mutable last : int;  (** source of the element the last [pop] returned *)
}

(* Heap order of two live sources: their heads under the caller's
   [compare] (run exactly once), ties to the lower index. *)
let order t a b =
  match (t.heads.(a), t.heads.(b)) with
  | Some x, Some y ->
      let c = t.compare x y in
      if c <> 0 then c else Int.compare a b
  | _ -> invalid_arg "Kmerge: exhausted source in the heap"

(* Both sifts move a hole instead of swapping: [s] is written once, where
   it lands.  The comparison sequence, operand for operand, is that of
   the textbook swapping heap (push = append + sift up, pop = move the
   last entry to the root + sift down): callers that charge [compare] to
   a cost model, and the scan's two-way merge, are pinned to it. *)
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

let refill t s =
  let h = t.sources.(s) () in
  t.heads.(s) <- h;
  if Option.is_some h then begin
    t.size <- t.size + 1;
    sift_up t (t.size - 1) s
  end

let create ~compare sources =
  let k = Array.length sources in
  let t =
    {
      compare;
      sources;
      heads = Array.make k None;
      heap = Array.make k 0;
      size = 0;
      last = -1;
    }
  in
  for s = 0 to k - 1 do
    refill t s
  done;
  t

let is_empty t = t.size = 0

let pop t =
  if t.size = 0 then invalid_arg "Kmerge.pop: empty";
  let s = t.heap.(0) in
  let x =
    match t.heads.(s) with
    | Some x -> x
    | None -> invalid_arg "Kmerge: exhausted source in the heap"
  in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.heap.(t.size);
  t.last <- s;
  refill t s;
  x

let last_source t = t.last
