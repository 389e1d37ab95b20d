(** Immutable disk-resident B+-trees, the structure inside every LSM disk
    component: a key index over row positions.

    A tree is bulk-loaded once from a sorted key array and never modified;
    the rows themselves are the caller's, stored as columns it reads by
    the positions this tree returns.  Rows live in leaf pages laid out
    contiguously in a phantom file ({!Lsm_sim.Sfile}); leaf boundaries
    are computed from each position's serialized row size against the
    device page size, so page counts — and therefore all I/O costs —
    reflect real entry sizes.

    Interior levels are represented by the per-leaf fence-key array.
    Searching charges key comparisons for the interior descent but no page
    I/O for interior nodes: they are a fraction of a percent of the data
    and pinned in any real cache.  Interior pages *are* written (and
    charged) at build time.

    Keys are ints; a secondary index's tree also keeps each row's pk in a
    second int column and orders and searches rows by (key, pk).

    Three access paths mirror Sec. 3.2:
    - [find]: stateless root-to-leaf search (the "naive" baseline);
    - [Cursor]: a stateful search cursor that resumes from the last leaf
      and uses exponential search ("sLookup");
    - [Scan]: sequential leaf-order iteration for range scans and merges. *)

type t = {
  file : Lsm_sim.Sfile.t;
  keys : int array;  (** key of each row, ascending (duplicates allowed) *)
  pks : int array;  (** pk of each row; empty when the key is the pk *)
  leaf_starts : int array;  (** leaf [l] holds rows [starts.(l), starts.(l+1)) *)
  fences : int array;  (** first key of each leaf *)
  fence_pks : int array;  (** first pk of each leaf; empty with [pks] *)
  leaf_pages : int;
  interior_pages : int;
}

(* The searches' comparison counter, reset by each search before use, so
   a descent allocates none.  One serves every tree: a search runs to its
   end before the next begins. *)
let cost = ref 0

let nrows t = Array.length t.keys
let is_empty t = Array.length t.keys = 0
let file t = t.file
let leaf_pages t = t.leaf_pages
let interior_pages t = t.interior_pages
let keys t = t.keys
let pks t = t.pks

(** [size_bytes env t] is the on-disk footprint. *)
let size_bytes env t = Lsm_sim.Sfile.size_bytes env t.file

(** [build env ~size_of keys pks] bulk-loads a tree over the rows
    [(keys.(i), pks.(i))] ([pks = [||]]: the key is the pk), already
    sorted ascending (verified in debug runs by tests); [size_of i] is the
    serialized size of row [i].  The tree keeps [keys] and [pks] as its
    columns.  Charges sequential writes for leaf and interior pages. *)
let build env ~size_of keys pks =
  let n = Array.length keys in
  let page_size = Lsm_sim.Env.page_size env in
  (* Cut leaves by accumulated serialized size. *)
  let starts = ref [ 0 ] in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    let s = size_of i in
    if !acc > 0 && !acc + s > page_size then begin
      starts := i :: !starts;
      acc := s
    end
    else acc := !acc + s
  done;
  let leaf_starts = Array.of_list (List.rev (n :: !starts)) in
  let nleaves = Array.length leaf_starts - 1 in
  let nleaves = if n = 0 then 0 else nleaves in
  let leaf_starts = if n = 0 then [| 0 |] else leaf_starts in
  let fences = Array.init nleaves (fun l -> keys.(leaf_starts.(l))) in
  let fence_pks =
    if Array.length pks = 0 then [||]
    else Array.init nleaves (fun l -> pks.(leaf_starts.(l)))
  in
  (* Interior size: one (key, child pointer) pair per leaf, packed; a key
     with its pk takes 16 bytes. *)
  let interior_bytes = nleaves * ((if Array.length pks = 0 then 8 else 16) + 8) in
  let interior_pages =
    if nleaves <= 1 then 0 else (interior_bytes + page_size - 1) / page_size
  in
  let file = Lsm_sim.Sfile.create env in
  (* If the append dies (retry exhaustion mid-build), delete the file so
     no partially-written component leaks — the supervisor reschedules
     the whole build from its still-intact inputs. *)
  (try Lsm_sim.Sfile.append_pages env file (nleaves + interior_pages)
   with e ->
     Lsm_sim.Sfile.delete env file;
     raise e);
  {
    file;
    keys;
    pks;
    leaf_starts;
    fences;
    fence_pks;
    leaf_pages = nleaves;
    interior_pages;
  }

(** [delete env t] releases the underlying file. *)
let delete env t = Lsm_sim.Sfile.delete env t.file

(* Leaf that may contain (key, pk): the last leaf whose fence is <= it. *)
let leaf_for env t key pk =
  cost := 0;
  let i =
    Lsm_util.Search.upper_bound ~cost t.fences t.fence_pks ~lo:0
      ~hi:(Array.length t.fences) key pk
  in
  Lsm_sim.Env.charge_comparisons env !cost;
  if i = 0 then 0 else i - 1

let read_leaf env t l = Lsm_sim.Sfile.read_page env t.file l

(** [leaf_of_row t i] is the leaf holding row [i] (largest [l] with
    [leaf_starts.(l) <= i]); no I/O charged — callers fetch the leaf
    themselves.  Scans use it to detect leaf crossings; the sorted-view
    layer uses it to charge the same page fetches a scan would. *)
let leaf_of_row t i =
  let l =
    Lsm_util.Search.upper_bound ~cost t.leaf_starts [||] ~lo:0
      ~hi:(Array.length t.leaf_starts) i 0
  in
  l - 1

(** [lower_bound_row env t key pk] is the index of the first row >=
    (key, pk) (or [nrows]); charges the interior descent and one leaf
    read. *)
let lower_bound_row env t key pk =
  if is_empty t then 0
  else begin
    let l = leaf_for env t key pk in
    read_leaf env t l;
    cost := 0;
    let i =
      Lsm_util.Search.lower_bound ~cost t.keys t.pks ~lo:t.leaf_starts.(l)
        ~hi:t.leaf_starts.(l + 1) key pk
    in
    Lsm_sim.Env.charge_comparisons env !cost;
    (* The lower bound may equal leaf_starts.(l+1): the first row of the
       next leaf, or nrows when [l] was the last leaf — both correct. *)
    i
  end

(* A point search's end: row [i], the lower bound of (key, pk) in leaf
   [l], if it equals (key, pk), else [-1].  Charges the hit's entry visit,
   then the search's comparisons ([cost]) and this one's. *)
let hit env t l i key pk =
  incr cost;
  let res =
    if
      i < t.leaf_starts.(l + 1)
      && Lsm_util.Search.compare_at t.keys t.pks i key pk = 0
    then begin
      Lsm_sim.Env.charge_entry_visits env 1;
      i
    end
    else -1
  in
  Lsm_sim.Env.charge_comparisons env !cost;
  res

(** [find env t key pk] is the position of the first row equal to
    (key, pk), or [-1] — the stateless ("naive") point lookup.  Allocates
    nothing. *)
let find env t key pk =
  if is_empty t then -1
  else begin
    let l = leaf_for env t key pk in
    read_leaf env t l;
    cost := 0;
    let i =
      Lsm_util.Search.lower_bound ~cost t.keys t.pks ~lo:t.leaf_starts.(l)
        ~hi:t.leaf_starts.(l + 1) key pk
    in
    hit env t l i key pk
  end

(** Stateful search cursors (the "sLookup" optimization, Sec. 3.2): the
    cursor remembers the last leaf and row position; the next search
    gallops from there with exponential search instead of descending from
    the root, so sorted key batches cost O(log gap) per key. *)
module Cursor = struct
  type cur = { tree : t; mutable leaf : int; mutable pos : int }

  let create tree = { tree; leaf = 0; pos = 0 }

  let find env c key pk =
    let t = c.tree in
    if is_empty t then -1
    else begin
      cost := 0;
      (* Gallop over fences from the current leaf. *)
      let fhi = Array.length t.fences in
      let fidx =
        Lsm_util.Search.exponential_lower_bound ~cost t.fences t.fence_pks
          ~lo:0 ~hi:fhi ~start:(min c.leaf (fhi - 1)) key pk
      in
      (* fidx = first fence > or = key; the leaf is the one before unless
         the fence equals the key exactly. *)
      let l =
        if
          fidx < fhi
          && (incr cost;
              Lsm_util.Search.compare_at t.fences t.fence_pks fidx key pk = 0)
        then fidx
        else max 0 (fidx - 1)
      in
      if l <> c.leaf then begin
        (* A backward move means the key batch broke the sorted-access
           assumption the cursor exploits: the search restarted behind
           its remembered position. *)
        if l < c.leaf then begin
          let st = Lsm_sim.Env.stats env in
          st.Lsm_sim.Io_stats.cursor_restarts <-
            st.Lsm_sim.Io_stats.cursor_restarts + 1
        end;
        c.pos <- t.leaf_starts.(l)
      end;
      c.leaf <- l;
      read_leaf env t l;
      let i =
        Lsm_util.Search.exponential_lower_bound ~cost t.keys t.pks
          ~lo:t.leaf_starts.(l) ~hi:t.leaf_starts.(l + 1)
          ~start:(max c.pos t.leaf_starts.(l)) key pk
      in
      c.pos <- i;
      hit env t l i key pk
    end
end

(** Sequential scans in leaf order.  Scans prefetch
    [Env.read_ahead_pages] leaves per device request (the paper's 4MB
    read-ahead), so interleaving many scan streams — reconciling scans
    open one per component — does not degrade to a seek per page.  Each
    returned row is charged one entry visit. *)
module Scan = struct
  type s = {
    tree : t;
    mutable i : int;  (** next row index *)
    mutable leaf : int;  (** leaf of [i], fetched already *)
    mutable prefetched_until : int;  (** last leaf in the RA window *)
  }

  (* Fetch leaf [l]: free if inside the current read-ahead window,
     otherwise issue a read of the next window. *)
  let fetch_leaf env s l =
    if l <= s.prefetched_until then Lsm_sim.Env.charge_page_hit env
    else begin
      let t = s.tree in
      let last = min (t.leaf_pages - 1) (l + Lsm_sim.Env.read_ahead_pages env - 1) in
      Lsm_sim.Sfile.read_range env t.file ~first:l ~count:(last - l + 1);
      s.prefetched_until <- last
    end

  (** [seek env t lo pk] positions at the first row >= (lo, pk) ([None] =
      start of tree). *)
  let seek env t lo pk =
    if is_empty t then { tree = t; i = 0; leaf = -1; prefetched_until = -1 }
    else
      match lo with
      | None ->
          let s = { tree = t; i = 0; leaf = 0; prefetched_until = -1 } in
          fetch_leaf env s 0;
          s
      | Some k ->
          let i = lower_bound_row env t k pk in
          if i >= nrows t then
            { tree = t; i; leaf = -1; prefetched_until = -1 }
          else begin
            let l = leaf_of_row t i in
            let s = { tree = t; i; leaf = l; prefetched_until = -1 } in
            fetch_leaf env s l;
            s
          end

  let has_next s = s.i < nrows s.tree

  (** [next env s] consumes the next row and returns its position
      ([-1] when exhausted). *)
  let next env s =
    if not (has_next s) then -1
    else begin
      let t = s.tree in
      let i = s.i in
      if s.leaf < 0 || i >= t.leaf_starts.(s.leaf + 1) then begin
        let l = leaf_of_row t i in
        fetch_leaf env s l;
        s.leaf <- l
      end;
      Lsm_sim.Env.charge_entry_visits env 1;
      s.i <- i + 1;
      i
    end
end
