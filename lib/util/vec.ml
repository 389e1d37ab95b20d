(** A minimal growable array (OCaml 5.1 predates Stdlib.Dynarray).

    Merges append their output rows one at a time, and the concurrent
    component builder does too while writers binary-search the prefix
    built so far, so a contiguous, indexable, growable sequence is exactly
    what is needed. *)

type 'a t = { mutable data : 'a array; mutable len : int; capacity : int }

let create ?(capacity = 16) () =
  { data = [||]; len = 0; capacity = max 1 capacity }

let length t = t.len

let push t x =
  if Array.length t.data = 0 then t.data <- Array.make t.capacity x
  else if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) t.data.(0) in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: out of bounds";
  t.data.(i)

let to_array t = Array.sub t.data 0 t.len

(** [binary_search ~cost t key] finds the index of an element equal to
    [key] in the (sorted) contents, if present. *)
let binary_search ~cost t key =
  let i = Search.lower_bound ~cost t.data [||] ~lo:0 ~hi:t.len key 0 in
  if
    i < t.len
    &&
    (incr cost;
     t.data.(i) = key)
  then Some i
  else None

let iter t f =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done
