(** A mutable in-memory B+-tree, the data structure of LSM *memory
    components* (Sec. 2.2: "both of these indexes internally use a B+-tree
    to organize the data within each component").

    Supports insert-or-replace, point lookup, and leaf-linked in-order
    iteration (used by flushes and range scans).  Physical deletion is
    deliberately absent: LSM memory components never remove entries —
    deletes insert anti-matter *values*, and rollback likewise applies
    inverse operations as new entries (Sec. 2.2).

    Keys are ints; a tree created with [~pks:true] also keeps a pk column
    and names each binding by (key, pk), a secondary index's row.

    Each binding carries an int *filter key* in a leaf column beside its
    key, so an ordered walk can test a range predicate without touching
    the value (the LSM layer stores a row's range-filter key there).

    Each binding also carries an int timestamp in a leaf column beside its
    key, so a leaf slot holds the value exactly as it was written (the LSM
    layer's entry) and no binding is a boxed (timestamp, value) pair.

    Key comparisons are counted per tree; the LSM layer drains the counter
    into the simulated clock after each operation. *)

(** The filter key a tree without a filter-key column reads back. *)
let no_fkey = min_int

(* Preemptive-split B+-tree: nodes are split on the way down, so inserts
   never propagate splits upward. *)
let node_cap = 16 (* max keys per node; children = node_cap + 1 *)

type 'v leaf = {
  lk : int array;  (* keys, length node_cap; first [ln] are live *)
  lp : int array;
      (* each binding's pk, aligned with [lk]; empty in a tree without
         the column *)
  lt : int array;  (* each binding's timestamp, aligned with [lk] *)
  lv : 'v array;
  lf : int array;
      (* each binding's filter key, aligned with [lk]; empty in a tree
         without the column *)
  mutable ln : int;
  mutable next : 'v leaf option;
}

type 'v node = L of 'v leaf | I of 'v internal

and 'v internal = {
  ik : int array;  (* separators; child [i] holds pairs < (ik, ip).(i) *)
  ip : int array;  (* separator pks; empty without the column *)
  ic : 'v node array;  (* children, length node_cap + 1 *)
  mutable inn : int;  (* number of separators; children = inn + 1 *)
}

type 'v t = {
  mutable root : 'v node option;
  mutable first : 'v leaf option;  (* leftmost leaf, for iteration *)
  mutable count : int;
  mutable cmps : int;
  mutable found_ts : int;  (* the timestamp of [find]'s last hit *)
  fkeys : bool;  (* leaves carry the filter-key column *)
  pks : bool;  (* nodes carry the pk column *)
}

let create ?(fkeys = true) ?(pks = false) () =
  { root = None; first = None; count = 0; cmps = 0; found_ts = 0; fkeys; pks }

let length t = t.count
let is_empty t = t.count = 0

(** [take_comparisons t] returns and resets the comparison counter. *)
let take_comparisons t =
  let c = t.cmps in
  t.cmps <- 0;
  c

(* Slot [i] of [keys]/[pks] against (key, pk), counted.  Compared here,
   not by [Lsm_util.Search.compare_at]: a dev build does not inline a call
   into another module. *)
let[@inline] cmp t keys pks i key pk =
  t.cmps <- t.cmps + 1;
  let k : int = keys.(i) in
  if k <> key then compare k key
  else if Array.length pks = 0 then 0
  else compare (pks.(i) : int) pk

(* Smallest index in [0, n) whose pair is >= (key, pk), else n. *)
let leaf_lower_bound t (lf : 'v leaf) key pk =
  let l = ref 0 and h = ref lf.ln in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if cmp t lf.lk lf.lp mid key pk < 0 then l := mid + 1 else h := mid
  done;
  !l

(* Child index for (key, pk): smallest i with (key, pk) < separator i,
   else inn. *)
let child_index t (nd : 'v internal) key pk =
  let l = ref 0 and h = ref nd.inn in
  while !l < !h do
    let mid = (!l + !h) / 2 in
    if cmp t nd.ik nd.ip mid key pk <= 0 then l := mid + 1 else h := mid
  done;
  !l

(* An int column of [node_cap] slots, or none. *)
let column present x = if present then Array.make node_cap x else [||]

let mk_leaf t key pk ts fkey value =
  {
    lk = Array.make node_cap key;
    lp = column t.pks pk;
    lt = Array.make node_cap ts;
    lv = Array.make node_cap value;
    lf = column t.fkeys fkey;
    ln = 1;
    next = None;
  }

(* Shift the live slots [pos, n) of a column present in the node one to
   the right. *)
let open_slot col pos n =
  if Array.length col > 0 then Array.blit col pos col (pos + 1) (n - pos)

(* Split the full child at [idx] of internal node [parent].  The new right
   sibling takes the upper half; the separator rises into [parent]. *)
let split_child parent idx =
  let insert_sep sep sep_pk right =
    open_slot parent.ik idx parent.inn;
    open_slot parent.ip idx parent.inn;
    for j = parent.inn + 1 downto idx + 2 do
      parent.ic.(j) <- parent.ic.(j - 1)
    done;
    parent.ik.(idx) <- sep;
    if Array.length parent.ip > 0 then parent.ip.(idx) <- sep_pk;
    parent.ic.(idx + 1) <- right;
    parent.inn <- parent.inn + 1
  in
  let upper col mid n =
    if Array.length col = 0 then [||]
    else begin
      let c = Array.make node_cap 0 in
      Array.blit col mid c 0 n;
      c
    end
  in
  match parent.ic.(idx) with
  | L lf ->
      let mid = lf.ln / 2 in
      let n = lf.ln - mid in
      let right =
        {
          lk = upper lf.lk mid n;
          lp = upper lf.lp mid n;
          lt = upper lf.lt mid n;
          lv = Array.make node_cap lf.lv.(0);
          lf = upper lf.lf mid n;
          ln = n;
          next = lf.next;
        }
      in
      Array.blit lf.lv mid right.lv 0 n;
      lf.ln <- mid;
      lf.next <- Some right;
      insert_sep right.lk.(0)
        (if Array.length right.lp > 0 then right.lp.(0) else 0)
        (L right)
  | I nd ->
      let mid = nd.inn / 2 in
      (* Separator at [mid] moves up; right gets separators after it. *)
      let n = nd.inn - mid - 1 in
      let right =
        {
          ik = upper nd.ik (mid + 1) n;
          ip = upper nd.ip (mid + 1) n;
          ic = Array.make (node_cap + 1) nd.ic.(0);
          inn = n;
        }
      in
      Array.blit nd.ic (mid + 1) right.ic 0 (n + 1);
      let sep = nd.ik.(mid) in
      let sep_pk = if Array.length nd.ip > 0 then nd.ip.(mid) else 0 in
      nd.inn <- mid;
      insert_sep sep sep_pk (I right)

let node_full = function
  | L lf -> lf.ln = node_cap
  | I nd -> nd.inn = node_cap

(* [put]'s descent from a node, splitting full children on the way
   down; at top level so a write allocates no closure for it. *)
let rec put_below t key pk ts fkey value = function
  | L lf ->
      let pos = leaf_lower_bound t lf key pk in
      if pos < lf.ln && cmp t lf.lk lf.lp pos key pk = 0 then begin
        let old = lf.lv.(pos) in
        lf.lv.(pos) <- value;
        lf.lt.(pos) <- ts;
        if Array.length lf.lf > 0 then lf.lf.(pos) <- fkey;
        Some old
      end
      else begin
        open_slot lf.lk pos lf.ln;
        open_slot lf.lp pos lf.ln;
        open_slot lf.lt pos lf.ln;
        open_slot lf.lf pos lf.ln;
        Array.blit lf.lv pos lf.lv (pos + 1) (lf.ln - pos);
        lf.lk.(pos) <- key;
        if Array.length lf.lp > 0 then lf.lp.(pos) <- pk;
        lf.lt.(pos) <- ts;
        lf.lv.(pos) <- value;
        if Array.length lf.lf > 0 then lf.lf.(pos) <- fkey;
        lf.ln <- lf.ln + 1;
        t.count <- t.count + 1;
        None
      end
  | I nd ->
      let idx = child_index t nd key pk in
      let idx =
        if node_full nd.ic.(idx) then begin
          split_child nd idx;
          (* Re-decide between the two halves. *)
          if cmp t nd.ik nd.ip idx key pk <= 0 then idx + 1 else idx
        end
        else idx
      in
      put_below t key pk ts fkey value nd.ic.(idx)

(** [put t key pk ~ts ~fkey value] inserts or replaces the binding of
    (key, pk) with [value], timestamp [ts] and filter key [fkey]; returns
    the previous value, if any.  Without the pk column [pk] is ignored. *)
let put t key pk ~ts ~fkey value =
  match t.root with
  | None ->
      let lf = mk_leaf t key pk ts fkey value in
      t.root <- Some (L lf);
      t.first <- Some lf;
      t.count <- 1;
      None
  | Some root ->
      (* Grow the tree if the root is full. *)
      let root =
        if node_full root then begin
          let nd =
            {
              ik = Array.make node_cap 0;
              ip = column t.pks 0;
              ic = Array.make (node_cap + 1) root;
              inn = 0;
            }
          in
          split_child nd 0;
          let r = I nd in
          t.root <- Some r;
          r
        end
        else root
      in
      put_below t key pk ts fkey value root

(* Close the slot [pos] of a column present in the node, shifting the
   live slots after it one to the left. *)
let close_slot col pos n =
  if Array.length col > 0 then Array.blit col (pos + 1) col pos (n - 1 - pos)

(** [remove t key pk] removes the binding for (key, pk), returning the
    removed value.  Used only by transaction rollback (Sec. 5.2: "rollback
    for in-memory component changes is implemented by applying the inverse
    operations of log records"); normal LSM deletion inserts anti-matter
    values instead.  Leaves are allowed to underflow — stale separators
    and empty leaves never affect search correctness, only space, and a
    memory component's life ends at the next flush anyway. *)
let remove t key pk =
  let rec go = function
    | L lf ->
        let pos = leaf_lower_bound t lf key pk in
        if pos < lf.ln && cmp t lf.lk lf.lp pos key pk = 0 then begin
          let old = lf.lv.(pos) in
          close_slot lf.lk pos lf.ln;
          close_slot lf.lp pos lf.ln;
          close_slot lf.lt pos lf.ln;
          close_slot lf.lf pos lf.ln;
          Array.blit lf.lv (pos + 1) lf.lv pos (lf.ln - 1 - pos);
          lf.ln <- lf.ln - 1;
          t.count <- t.count - 1;
          Some old
        end
        else None
    | I nd -> go nd.ic.(child_index t nd key pk)
  in
  match t.root with None -> None | Some r -> go r

(* [find]'s descent from a node, at top level so a lookup allocates no
   closure for it. *)
let rec find_below t key pk = function
  | L lf ->
      let pos = leaf_lower_bound t lf key pk in
      if pos < lf.ln && cmp t lf.lk lf.lp pos key pk = 0 then begin
        t.found_ts <- lf.lt.(pos);
        Some lf.lv.(pos)
      end
      else None
  | I nd -> find_below t key pk nd.ic.(child_index t nd key pk)

(** [find t key pk] returns the value bound to (key, pk), if any; its
    timestamp is then {!found_ts}. *)
let find t key pk =
  match t.root with None -> None | Some r -> find_below t key pk r

let found_ts t = t.found_ts

(* A pull cursor: the next binding is slot [ci] of leaf [cl], or the
   first live slot after it along the leaf links ([None] = exhausted). *)
type 'v cursor = { mutable cl : 'v leaf option; mutable ci : int }

(** [seek t lo pk] is a cursor at the first binding >= (lo, pk) ([None] =
    the first binding).  The one descent of the tree: it counts the
    comparisons of a root-to-leaf lower-bound search, and none with no
    bound. *)
let seek t lo pk =
  match (lo, t.root) with
  | None, _ -> { cl = t.first; ci = 0 }
  | Some _, None -> { cl = None; ci = 0 }
  | Some key, Some r ->
      let rec find_leaf = function
        | L lf -> { cl = Some lf; ci = leaf_lower_bound t lf key pk }
        | I nd -> find_leaf nd.ic.(child_index t nd key pk)
      in
      find_leaf r

(** [step c] moves [c] past the binding under it and is [true], or is
    [false] once the bindings run out (and ever after); {!key} and
    {!value} read the binding it moved past.  No comparisons, no
    allocation.  {!to_sorted_array} walks a cursor this way. *)
let rec step c =
  match c.cl with
  | None -> false
  | Some lf ->
      if c.ci < lf.ln then begin
        c.ci <- c.ci + 1;
        true
      end
      else begin
        c.cl <- lf.next;
        c.ci <- 0;
        step c
      end

(* After a [step] that returned [true], the binding it moved past is
   slot [ci - 1] of leaf [cl]. *)
let key c =
  match c.cl with
  | Some lf when c.ci > 0 -> lf.lk.(c.ci - 1)
  | _ -> invalid_arg "Mem_btree.key: no binding stepped over"

let pk c =
  match c.cl with
  | Some lf when c.ci > 0 ->
      if Array.length lf.lp > 0 then lf.lp.(c.ci - 1) else lf.lk.(c.ci - 1)
  | _ -> invalid_arg "Mem_btree.pk: no binding stepped over"

let ts c =
  match c.cl with
  | Some lf when c.ci > 0 -> lf.lt.(c.ci - 1)
  | _ -> invalid_arg "Mem_btree.ts: no binding stepped over"

let value c =
  match c.cl with
  | Some lf when c.ci > 0 -> lf.lv.(c.ci - 1)
  | _ -> invalid_arg "Mem_btree.value: no binding stepped over"

let fkey c =
  match c.cl with
  | Some lf when c.ci > 0 ->
      if Array.length lf.lf > 0 then lf.lf.(c.ci - 1) else no_fkey
  | _ -> invalid_arg "Mem_btree.fkey: no binding stepped over"

(** [copy c] is an independent cursor at [c]'s position. *)
let copy c = { cl = c.cl; ci = c.ci }

(** [to_sorted_array t] materializes all bindings as (key, pk, ts, value)
    in order (the tests' model). *)
let to_sorted_array t =
  let c = seek t None 0 in
  Array.init t.count (fun _ ->
      ignore (step c);
      (key c, pk c, ts c, value c))
