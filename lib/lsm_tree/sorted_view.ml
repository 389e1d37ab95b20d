(** REMIX-style cross-component sorted views (Zhong et al., FAST 2021;
    see PAPERS.md).

    A reconciling LSM range scan normally pays a k-way heap merge: every
    row costs O(log k) charged comparisons to pop, plus a push for its
    successor.  A sorted view removes that per-row cost by persisting the
    *global sort order* across a stable set of disk components ("runs"):

    - a [sel]/[pos] pair per global position — which run the position's
      row lives in and its row index there (the "run selectors");
    - an [eq_prev] bit per position marking key groups (duplicate keys
      across runs sort adjacently, newest run first);
    - sparse *anchors* every [stride] positions: the anchor's key plus a
      per-run cursor offset (how many rows of each run precede the
      anchor), so a range scan binary-searches the anchors and then
      gallops each run cursor with {!Lsm_util.Search.exponential_lower_bound}
      over at most one stride of slack.

    A scan is then: one O(log #anchors) binary search, k bounded gallops,
    and a sequential walk of the selector stream — about one comparison
    per key *group* (the upper-bound check) instead of O(log k) per row.
    Reconciliation itself becomes free: within a key group the winner is
    the first live position (runs are ordered newest-first), and validity
    bitmaps are consulted at scan time, so views stay correct under
    repair, quarantine and the Mutable-bitmap strategy without rebuilds.

    Views are charged through {!Lsm_sim.Env} like any other structure: the
    build pays the merge comparisons, one entry visit per position and
    sequential writes of the view's own pages (2 bytes per position for
    selector + group bit, plus per-anchor metadata); scans pay read-ahead
    page fetches on the view file and on the data leaves of the rows they
    actually emit — skipped positions never touch their data pages, which
    is the other half of the REMIX win.

    Keys are ints; in a secondary index's view positions are ordered,
    grouped and searched by (key, pk), from the runs' pk columns.

    This module is deliberately ignorant of components, bitmaps and
    anti-matter: it orders runs, each a disk component's key index.
    [Lsm_tree] owns the lifecycle (build at first reconciling scan over a
    stable component set, invalidate whenever the component list changes)
    and layers newest-wins semantics, the memory component and deletion
    handling on top. *)

module Dbt = Lsm_btree.Disk_btree

type t = {
  runs : Dbt.t array;  (** leaf geometry, to charge what a scan would *)
  keys : int array array;  (** each run's key column ([Dbt.keys]) *)
  pks : int array array;  (** each run's pk column ([Dbt.pks]) *)
  n : int;  (** total positions = sum of run lengths *)
  sel : int array;  (** run index of each position *)
  pos : int array;  (** row index within that run *)
  eq_prev : Lsm_util.Bitset.t;  (** same key as the previous position *)
  stride : int;
  anchor_keys : int array;  (** key at position [a * stride] *)
  anchor_pks : int array;  (** its pk; empty without pk columns *)
  anchor_offs : int array;
      (** [(a * nruns) + r]: rows of run [r] before position [a * stride] *)
  vfile : Lsm_sim.Sfile.t;  (** the view's own pages *)
  vpages : int;
  positions_per_page : int;
}

let default_stride = 64

let positions t = t.n
let anchor_count t = Array.length t.anchor_keys
let run_count t = Array.length t.runs
let size_bytes env t = Lsm_sim.Sfile.size_bytes env t.vfile

(* Row [i] of run [r] against (key, pk), inline: a dev build does not
   inline [Lsm_util.Search] across modules. *)
let[@inline] cmp_row keys pks r i key pk =
  let k : int = keys.(r).(i) in
  if k <> key then compare k key
  else if Array.length pks.(r) = 0 then 0
  else compare (pks.(r).(i) : int) pk

(** [build env runs] merges the runs' key streams once (charging the
    comparisons, one entry visit per position, and sequential writes of
    the view pages) and returns the persistent view.  Runs must be
    individually sorted; ties across runs order by run index (callers
    pass newest first, giving newest-first groups). *)
let build env ?(stride = default_stride) runs =
  let nruns = Array.length runs in
  let keys = Array.map Dbt.keys runs and pks = Array.map Dbt.pks runs in
  (* Runs with a pk column: an anchor key then takes 16 bytes, not 8. *)
  let with_pks = Array.exists (fun p -> Array.length p > 0) pks in
  let n = Array.fold_left (fun a k -> a + Array.length k) 0 keys in
  let sel = Array.make n 0 in
  let pos = Array.make n 0 in
  let eq_prev = Lsm_util.Bitset.create n in
  (* Run [r]'s head is the index of its current key. *)
  let heads = Array.make nruns (-1) in
  let merge =
    Lsm_util.Kmerge.create nruns
      ~compare:(fun a b ->
        Lsm_sim.Env.charge_comparisons env 1;
        let ib = heads.(b) in
        cmp_row keys pks a heads.(a) keys.(b).(ib)
          (if with_pks then pks.(b).(ib) else 0))
      ~pull:(fun r ->
        heads.(r) <- heads.(r) + 1;
        heads.(r) < Array.length keys.(r))
  in
  let nanchors = if n = 0 then 0 else ((n - 1) / stride) + 1 in
  let anchor_offs = Array.make (nanchors * nruns) 0 in
  let anchor_keys = Array.make nanchors 0 in
  let anchor_pks = Array.make (if with_pks then nanchors else 0) 0 in
  let top = ref (Lsm_util.Kmerge.top merge) in
  for j = 0 to n - 1 do
    let r = !top in
    let i = heads.(r) in
    top := Lsm_util.Kmerge.advance merge;
    let k = keys.(r).(i) and p = if with_pks then pks.(r).(i) else 0 in
    if j mod stride = 0 then begin
      anchor_keys.(j / stride) <- k;
      if with_pks then anchor_pks.(j / stride) <- p;
      (* Each run's rows ahead of position [j] are those before its
         head, [r]'s before [i]. *)
      Array.blit heads 0 anchor_offs (j / stride * nruns) nruns;
      anchor_offs.((j / stride * nruns) + r) <- i
    end;
    sel.(j) <- r;
    pos.(j) <- i;
    (* A run's keys strictly increase: only another run's key can
       equal the previous position's. *)
    if j > 0 then begin
      Lsm_sim.Env.charge_comparisons env 1;
      let r' = sel.(j - 1) in
      if r' <> r && cmp_row keys pks r' pos.(j - 1) k p = 0 then
        Lsm_util.Bitset.set eq_prev j
    end
  done;
  Lsm_sim.Env.charge_entry_visits env n;
  (* Simulated footprint: 2 bytes per position (run selector + group
     bit) and, per anchor, the anchor key plus a 4-byte cursor offset
     per run. *)
  let anchor_bytes = nanchors * ((if with_pks then 16 else 8) + (4 * nruns)) in
  let page_size = Lsm_sim.Env.page_size env in
  let vpages =
    if n = 0 then 0 else ((2 * n) + anchor_bytes + page_size - 1) / page_size
  in
  let vfile = Lsm_sim.Sfile.create env in
  (* If the append dies mid-build (retry exhaustion or an injected
     crash), delete the file so no partially-written view leaks; the
     caller's slot still holds no view and the next scan rebuilds. *)
  (try Lsm_sim.Sfile.append_pages env vfile vpages
   with e ->
     Lsm_sim.Sfile.delete env vfile;
     raise e);
  let vs = Lsm_sim.Env.view_stats env in
  vs.Lsm_sim.Env.builds <- vs.Lsm_sim.Env.builds + 1;
  vs.Lsm_sim.Env.build_rows <- vs.Lsm_sim.Env.build_rows + n;
  vs.Lsm_sim.Env.build_pages <- vs.Lsm_sim.Env.build_pages + vpages;
  {
    runs;
    keys;
    pks;
    n;
    sel;
    pos;
    eq_prev;
    stride;
    anchor_keys;
    anchor_pks;
    anchor_offs;
    vfile;
    vpages;
    positions_per_page = max 1 (page_size / 2);
  }

(** [release env t] deletes the view's pages (structural invalidation or
    tree teardown). *)
let release env t = Lsm_sim.Sfile.delete env t.vfile

(* ------------------------------------------------------------------ *)
(* Scanning *)

type iter = {
  view : t;
  hi : int option;  (** inclusive, with [hi_pk] *)
  hi_pk : int;
  mask : bool array option;  (** include run [r]?  [None] = all *)
  valid : int -> int -> bool;  (** run -> row index -> live? *)
  mutable j : int;  (** next unconsumed position *)
  mutable finished : bool;
  mutable win_row : int;  (** the last winner's row index in its run *)
  (* Per-run read-ahead windows over the data leaves, mirroring
     [Disk_btree.Scan.fetch_leaf]. *)
  cur_leaf : int array;
  pref : int array;
  (* Read-ahead window over the view's own pages. *)
  mutable vpage : int;
  mutable vpref : int;
  (* Stats, reported into [Env.view_stats] by the caller. *)
  mutable segments : int;
  mutable next_seg : int;
  mutable skipped : int;
  mutable emitted : int;
}

let segments it = it.segments
let skipped it = it.skipped
let emitted it = it.emitted

(** [start env t ~lo ~lo_pk ~hi ~hi_pk ~mask ~valid] positions an
    iterator at the first key group >= (lo, lo_pk): binary search of the
    anchors, then one bounded gallop per run from the preceding anchor's
    cursor offsets — the sum of the per-run lower bounds *is* the global
    position.  [hi] (with [hi_pk]) is the inclusive upper bound. *)
let start env t ~lo ~lo_pk ~hi ~hi_pk ~mask ~valid =
  let nruns = Array.length t.runs in
  let j0 =
    match lo with
    | None -> 0
    | Some lo ->
        let cost = ref 0 in
        let a =
          Lsm_util.Search.lower_bound ~cost t.anchor_keys t.anchor_pks ~lo:0
            ~hi:(Array.length t.anchor_keys) lo lo_pk
        in
        (* [a - 1] is the last anchor with key < [lo]; every position
           before it is also < [lo], so each run's gallop starts at that
           anchor's cursor offset with at most one stride of slack. *)
        let sum = ref 0 in
        for r = 0 to nruns - 1 do
          let base =
            if a = 0 then 0 else t.anchor_offs.(((a - 1) * nruns) + r)
          in
          sum :=
            !sum
            + Lsm_util.Search.exponential_lower_bound ~cost t.keys.(r)
                t.pks.(r) ~lo:base ~hi:(Array.length t.keys.(r)) ~start:base lo
                lo_pk
        done;
        Lsm_sim.Env.charge_comparisons env !cost;
        !sum
  in
  let vs = Lsm_sim.Env.view_stats env in
  vs.Lsm_sim.Env.view_scans <- vs.Lsm_sim.Env.view_scans + 1;
  {
    view = t;
    hi;
    hi_pk;
    mask;
    valid;
    j = j0;
    finished = j0 >= t.n;
    win_row = -1;
    cur_leaf = Array.make (max 1 nruns) (-1);
    pref = Array.make (max 1 nruns) (-1);
    vpage = -1;
    vpref = -1;
    segments = 0;
    next_seg = j0 / t.stride * t.stride;
    skipped = 0;
    emitted = 0;
  }

(* Touch position [j]: charge the view page it lives on (read-ahead
   window, like a data scan) and count anchor-segment crossings. *)
let touch env it j =
  let t = it.view in
  let p = j / t.positions_per_page in
  if p <> it.vpage then begin
    if p <= it.vpref then Lsm_sim.Env.charge_page_hit env
    else begin
      let last =
        min (t.vpages - 1) (p + Lsm_sim.Env.read_ahead_pages env - 1)
      in
      Lsm_sim.Sfile.read_range env t.vfile ~first:p ~count:(last - p + 1);
      it.vpref <- last
    end;
    it.vpage <- p
  end;
  if j >= it.next_seg then begin
    it.segments <- it.segments + 1;
    it.next_seg <- (j / t.stride * t.stride) + t.stride
  end

(* Fetch an emitted row's data leaf through the per-run read-ahead
   window and charge its entry visit — exactly what a sequential scan
   of that run charges when it enters the same leaf. *)
let fetch_row env it r i =
  let run = it.view.runs.(r) in
  let l = Dbt.leaf_of_row run i in
  if l <> it.cur_leaf.(r) then begin
    if l <= it.pref.(r) then Lsm_sim.Env.charge_page_hit env
    else begin
      let last =
        min (Dbt.leaf_pages run - 1) (l + Lsm_sim.Env.read_ahead_pages env - 1)
      in
      Lsm_sim.Sfile.read_range env (Dbt.file run) ~first:l ~count:(last - l + 1);
      it.pref.(r) <- last
    end;
    it.cur_leaf.(r) <- l
  end;
  Lsm_sim.Env.charge_entry_visits env 1

(** [next env it] resolves the next key group: the winner is the first
    position of the group that is mask-included and live ([valid]);
    shadowed, masked and invalid positions are skipped without touching
    their data pages.  Returns the winner's run, whose row index {!position}
    reads, or [-1] past [hi] or the end.  Groups whose members are all
    skipped produce nothing and the iterator moves on.  Allocates
    nothing. *)
let rec next env it =
  if it.finished then -1
  else begin
    let t = it.view in
    let j = it.j in
    touch env it j;
    let beyond =
      match it.hi with
      | None -> false
      | Some h ->
          Lsm_sim.Env.charge_comparisons env 1;
          cmp_row t.keys t.pks t.sel.(j) t.pos.(j) h it.hi_pk > 0
    in
    if beyond then begin
      it.finished <- true;
      -1
    end
    else begin
      (* Walk the key group starting at [j]; group membership is the
         precomputed [eq_prev] bits, so no comparisons are charged. *)
      let winner_r = ref (-1) and winner_i = ref (-1) in
      let jj = ref j in
      let continue = ref true in
      while !continue do
        let r = t.sel.(!jj) and i = t.pos.(!jj) in
        if !jj > j then touch env it !jj;
        if
          !winner_r < 0
          && (match it.mask with None -> true | Some m -> m.(r))
          && it.valid r i
        then begin
          winner_r := r;
          winner_i := i
        end
        else it.skipped <- it.skipped + 1;
        incr jj;
        if !jj >= t.n || not (Lsm_util.Bitset.get t.eq_prev !jj) then
          continue := false
      done;
      it.j <- !jj;
      if !jj >= t.n then it.finished <- true;
      if !winner_r >= 0 then begin
        fetch_row env it !winner_r !winner_i;
        it.emitted <- it.emitted + 1;
        it.win_row <- !winner_i;
        !winner_r
      end
      else next env it
    end
  end

(** [position it] is the row index, in its run, of the winner {!next}
    last returned. *)
let position it = it.win_row
