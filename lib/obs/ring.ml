(** A bounded ring that keeps the last [capacity] values pushed into it
    and counts every push, so a reader can tell how many were dropped.
    The span tracer and the time-series flight recorder both keep their
    events in one. *)

type 'a t = { slots : 'a option array; mutable recorded : int }

let create capacity = { slots = Array.make capacity None; recorded = 0 }

(** [push t v] stores [v], overwriting the oldest value once full. *)
let push t v =
  t.slots.(t.recorded mod Array.length t.slots) <- Some v;
  t.recorded <- t.recorded + 1

let recorded t = t.recorded

let dropped t = max 0 (t.recorded - Array.length t.slots)

(** [to_array t] is the ring's contents, oldest first. *)
let to_array t =
  let cap = Array.length t.slots in
  let n = min t.recorded cap in
  let first = if t.recorded <= cap then 0 else t.recorded mod cap in
  Array.init n (fun i -> Option.get t.slots.((first + i) mod cap))
