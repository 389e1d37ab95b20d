(** An in-memory reference model of dataset semantics.

    The model is the oracle for differential checking: it implements
    upsert / delete / point / range with a plain hash table, so whatever
    strategy the real dataset runs under — Eager, Validation (Direct or
    Timestamp), Mutable-bitmap — its query results must coincide with the
    model's.  Range queries take the attribute extractor as an argument,
    so one model answers both secondary-key and filter-key (time-range)
    questions.

    For crash tests the driver applies a transaction's operations to the
    model only once its commit record is durable; the model then describes
    exactly the committed state recovery must reproduce. *)

module Make (R : sig
  type t

  val pk : t -> int
end) =
struct
  type t = {
    live : (int, R.t) Hashtbl.t;  (** pk -> current record *)
    ever : (int, unit) Hashtbl.t;  (** every pk ever touched *)
  }

  let create ?(size = 256) () =
    { live = Hashtbl.create size; ever = Hashtbl.create size }

  let upsert m r =
    Hashtbl.replace m.live (R.pk r) r;
    Hashtbl.replace m.ever (R.pk r) ()

  let delete m pk =
    Hashtbl.remove m.live pk;
    Hashtbl.replace m.ever pk ()

  let point m pk = Hashtbl.find_opt m.live pk
  let count m = Hashtbl.length m.live

  (** [touched m] is every primary key any operation ever mentioned —
      checkers probe them all, so deleted keys are verified absent. *)
  let touched m =
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) m.ever [])

  let fold m f acc = Hashtbl.fold (fun _ r acc -> f r acc) m.live acc

  (** [range_by m attr ~lo ~hi] is the live records with
      [lo <= attr r <= hi], sorted by primary key. *)
  let range_by m attr ~lo ~hi =
    fold m (fun r acc -> if attr r >= lo && attr r <= hi then r :: acc else acc) []
    |> List.sort (fun a b -> compare (R.pk a) (R.pk b))

  let count_by m attr ~lo ~hi = List.length (range_by m attr ~lo ~hi)

  (** [keys_by m attr ~lo ~hi] is the (attribute, pk) pairs of live
      records in range, sorted — the index-only query's expected answer. *)
  let keys_by m attr ~lo ~hi =
    List.map (fun r -> (attr r, R.pk r)) (range_by m attr ~lo ~hi)
    |> List.sort compare
end
