(** The acknowledged-write model every reply is audited against.

    Records are keyed by primary key; two Fenwick trees count live
    records by [user_id] (secondary ranges) and by [created_at] (recent
    time ranges), so each audit costs O(log n) and the model can check
    every reply of a 40k-request run inline.  [created_at] is the tweet
    generator's sequence number, so its tree grows by doubling. *)

module Tweet = Lsm_workload.Tweet

module Fenwick = struct
  type t = { mutable tree : int array; mutable counts : int array }

  let create n = { tree = Array.make (n + 1) 0; counts = Array.make n 0 }

  let rebuild t =
    let n = Array.length t.counts in
    t.tree <- Array.make (n + 1) 0;
    Array.iteri
      (fun i c ->
        let j = ref (i + 1) in
        while !j <= n do
          t.tree.(!j) <- t.tree.(!j) + c;
          j := !j + (!j land - !j)
        done)
      t.counts

  let add t i d =
    if i >= Array.length t.counts then begin
      let n = ref (Array.length t.counts) in
      while i >= !n do n := 2 * !n done;
      let c = Array.make !n 0 in
      Array.blit t.counts 0 c 0 (Array.length t.counts);
      t.counts <- c;
      rebuild t
    end;
    t.counts.(i) <- t.counts.(i) + d;
    let n = Array.length t.counts in
    let j = ref (i + 1) in
    while !j <= n do
      t.tree.(!j) <- t.tree.(!j) + d;
      j := !j + (!j land - !j)
    done

  (* Count of positions in [0, i]. *)
  let prefix t i =
    let i = min i (Array.length t.counts - 1) in
    let s = ref 0 and j = ref (i + 1) in
    while !j > 0 do
      s := !s + t.tree.(!j);
      j := !j - (!j land - !j)
    done;
    !s

  let range t lo hi =
    if hi < lo || hi < 0 then 0
    else prefix t hi - if lo <= 0 then 0 else prefix t (lo - 1)
end

type t = {
  recs : (int, Tweet.t) Hashtbl.t;
  by_user : Fenwick.t;
  by_time : Fenwick.t;
  mutable live_bytes : int;
}

let create () =
  {
    recs = Hashtbl.create 65536;
    by_user = Fenwick.create Tweet.user_id_domain;
    by_time = Fenwick.create 65536;
    live_bytes = 0;
  }

let count t (r : Tweet.t) d =
  Fenwick.add t.by_user r.Tweet.user_id d;
  Fenwick.add t.by_time r.Tweet.created_at d;
  t.live_bytes <- t.live_bytes + (d * Tweet.byte_size r)

(** [upsert t r] applies an acknowledged write. *)
let upsert t (r : Tweet.t) =
  (match Hashtbl.find_opt t.recs r.Tweet.id with
  | Some old -> count t old (-1)
  | None -> ());
  count t r 1;
  Hashtbl.replace t.recs r.Tweet.id r

let find t pk = Hashtbl.find_opt t.recs pk
let live_bytes t = t.live_bytes
let found t pks =
  Array.fold_left (fun n pk -> if Hashtbl.mem t.recs pk then n + 1 else n) 0 pks
let users_in t ~lo ~hi = Fenwick.range t.by_user lo hi

let created_in t ~tlo ~thi = Fenwick.range t.by_time tlo thi

(** Live primary keys, ascending — a deterministic sample source. *)
let keys t =
  let a = Array.make (Hashtbl.length t.recs) 0 and i = ref 0 in
  Hashtbl.iter
    (fun k _ ->
      a.(!i) <- k;
      incr i)
    t.recs;
  Array.sort Int.compare a;
  a
