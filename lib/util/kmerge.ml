(** K-way merge of sorted pull streams.

    Merges, reconciling scans, sorted-view builds, DELI repair and the
    Sec. 5.3 concurrent builder all walk several sorted components at
    once, newest first, and reconcile equal keys.  This module is that
    walk: one head per source in a {!Heap} ordered by (element, source
    index), so the duplicates of a key surface newest source first and
    each caller applies its own duplicate-key rule to the output.

    Sources are pulled lazily — once at creation, then only the source
    whose head was just popped — so a stream over a component may end at
    the first out-of-range row and is never asked for more. *)

type 'a t = {
  heap : (int * 'a) Heap.t;
  sources : (unit -> 'a option) array;
}

let refill t s =
  match t.sources.(s) () with Some x -> Heap.push t.heap (s, x) | None -> ()

let create ~compare sources =
  let heap =
    Heap.create (fun (s1, x1) (s2, x2) ->
        let c = compare x1 x2 in
        if c <> 0 then c else Int.compare s1 s2)
  in
  let t = { heap; sources } in
  Array.iteri (fun s _ -> refill t s) sources;
  t

let is_empty t = Heap.is_empty t.heap

let pop t =
  let ((s, _) as head) = Heap.pop t.heap in
  refill t s;
  head
