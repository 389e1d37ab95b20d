(** Query generation with controlled selectivity (Sec. 6.2).

    Secondary-index queries are ranges over [user_id], whose domain is
    uniform on [0, 100K): a range covering fraction [s] of the domain
    selects ~[s] of the records.  Time-range queries (Fig. 19) are ranges
    over the monotone [created_at] attribute. *)

type t = { rng : Lsm_util.Rng.t }

let create ?(seed = 4242) () = { rng = Lsm_util.Rng.create seed }

(** [user_range t ~selectivity] is a random [lo, hi] over the user_id
    domain covering [selectivity] (e.g. 0.001 = 0.1%). *)
let user_range t ~selectivity =
  let width =
    max 1
      (int_of_float (selectivity *. Float.of_int Tweet.user_id_domain))
  in
  let lo = Lsm_util.Rng.int t.rng (max 1 (Tweet.user_id_domain - width)) in
  (lo, lo + width - 1)

(** [recent_time_range ~now ~days ~day_span] is the "recent data" query of
    Fig. 19: creation times in the last [days] out of [day_span] total,
    scaled to the generated creation-time domain [0, now]. *)
let recent_time_range ~now ~days ~day_span =
  let width = now * days / day_span in
  (max 0 (now - width), max_int)

(** [old_time_range ~now ~days ~day_span] is the "old data" variant:
    the first [days] worth of creation times. *)
let old_time_range ~now ~days ~day_span =
  let width = now * days / day_span in
  (0, max 0 width)

