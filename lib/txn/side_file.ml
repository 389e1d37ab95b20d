(** Side-files for the Side-file concurrency-control method (Sec. 5.3,
    Fig. 11): while a component builder scans old components against
    bitmap snapshots, writers append the keys they delete to a side-file;
    at catch-up time the builder closes the side-file, sorts it, and
    applies the deletions to the new component. *)

type t = {
  mutable entries : int list;  (** deleted keys, newest first *)
  mutable closed : bool;
  mutable n : int;
}

let create () = { entries = []; closed = false; n = 0 }

(** [append t key] records a deleted key; fails (returns [false]) once the
    side-file has been closed, in which case the writer must apply the
    deletion to the new component directly (Fig. 11b line 8). *)
let append t key =
  if t.closed then false
  else begin
    t.entries <- key :: t.entries;
    t.n <- t.n + 1;
    true
  end

(** [close t] ends the intake (builder catch-up phase). *)
let close t = t.closed <- true

let length t = t.n

(** [sorted_keys ~cost t] returns the deduplicated, sorted keys, charging
    comparisons to [cost] ("the component builder sorts the side-file as
    suggested in [30]"). *)
let sorted_keys ~cost t =
  let arr = Array.of_list t.entries in
  Lsm_util.Sorter.sort ~cmp:(fun (a : int) b -> compare a b) ~cost arr;
  Lsm_util.Sorter.dedup_sorted ~eq:(fun (a : int) b -> a = b) arr
