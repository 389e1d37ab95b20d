(** A mutable binary min-heap.

    The priority queue under {!Kmerge}, which holds the engine's one k-way
    merge of component streams.  The comparison function is supplied at
    creation time, so heaps over tuples avoid polymorphic compare. *)

type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create cmp = { cmp; data = [||]; size = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Storage is allocated lazily from the first pushed element, so no dummy
   value of type ['a] is ever needed. *)
let ensure_room t filler =
  if Array.length t.data = 0 then t.data <- Array.make 16 filler
  else if t.size = Array.length t.data then begin
    let data = Array.make (2 * Array.length t.data) t.data.(0) in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

(* Both sifts move a hole instead of swapping: [x] is written once, where
   it lands.  The comparisons are the swapping version's, operand for
   operand, so a counting [cmp] sees the same sequence. *)
let rec sift_up t i x =
  let parent = (i - 1) / 2 in
  if i > 0 && t.cmp x t.data.(parent) < 0 then begin
    t.data.(i) <- t.data.(parent);
    sift_up t parent x
  end
  else t.data.(i) <- x

let rec sift_down t i x =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i and least = ref x in
  if l < t.size && t.cmp t.data.(l) !least < 0 then begin
    smallest := l;
    least := t.data.(l)
  end;
  if r < t.size && t.cmp t.data.(r) !least < 0 then begin
    smallest := r;
    least := t.data.(r)
  end;
  if !smallest <> i then begin
    t.data.(i) <- !least;
    sift_down t !smallest x
  end
  else t.data.(i) <- x

(** [push t x] inserts [x]. *)
let push t x =
  ensure_room t x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) x

(** [peek t] is the minimum element, if any. *)
let peek t = if t.size = 0 then None else Some t.data.(0)

(** [pop t] removes and returns the minimum element.
    @raise Invalid_argument on an empty heap. *)
let pop t =
  if t.size = 0 then invalid_arg "Heap.pop: empty";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then sift_down t 0 t.data.(t.size);
  top

(** [pop_opt t] is [pop] returning an option. *)
let pop_opt t = if t.size = 0 then None else Some (pop t)
