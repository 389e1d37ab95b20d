(** A mutable in-memory B+-tree, the data structure of LSM *memory
    components* (Sec. 2.2: "both of these indexes internally use a B+-tree
    to organize the data within each component").

    Supports insert-or-replace, point lookup, and leaf-linked in-order
    iteration (used by flushes and range scans).  Physical deletion is
    deliberately absent: LSM memory components never remove entries —
    deletes insert anti-matter *values*, and rollback likewise applies
    inverse operations as new entries (Sec. 2.2).

    Each binding carries an int *filter key* in a leaf column beside its
    key, so an ordered walk can test a range predicate without touching
    the value (the LSM layer stores a row's range-filter key there).

    Key comparisons are counted per tree; the LSM layer drains the counter
    into the simulated clock after each operation. *)

(** The filter key a tree without a filter-key column reads back. *)
let no_fkey = min_int

module Make (K : sig
  type t

  val compare : t -> t -> int
end) =
struct
  (* Preemptive-split B+-tree: nodes are split on the way down, so inserts
     never propagate splits upward. *)
  let node_cap = 16 (* max keys per node; children = node_cap + 1 *)

  type 'v leaf = {
    lk : K.t array;  (* keys, length node_cap; first [ln] are live *)
    lv : 'v array;
    lf : int array;
        (* each binding's filter key, aligned with [lk]; empty in a tree
           without the column *)
    mutable ln : int;
    mutable next : 'v leaf option;
  }

  type 'v node = L of 'v leaf | I of 'v internal

  and 'v internal = {
    ik : K.t array;  (* separators; child [i] holds keys < ik.(i) *)
    ic : 'v node array;  (* children, length node_cap + 1 *)
    mutable inn : int;  (* number of separators; children = inn + 1 *)
  }

  type 'v t = {
    mutable root : 'v node option;
    mutable first : 'v leaf option;  (* leftmost leaf, for iteration *)
    mutable count : int;
    mutable cmps : int;
    fkeys : bool;  (* leaves carry the filter-key column *)
  }

  let create ?(fkeys = true) () =
    { root = None; first = None; count = 0; cmps = 0; fkeys }

  let length t = t.count
  let is_empty t = t.count = 0

  (** [take_comparisons t] returns and resets the comparison counter. *)
  let take_comparisons t =
    let c = t.cmps in
    t.cmps <- 0;
    c

  let cmp t a b =
    t.cmps <- t.cmps + 1;
    K.compare a b

  (* Smallest index in [0, n) whose key is >= key, else n. *)
  let leaf_lower_bound t (lf : 'v leaf) key =
    let l = ref 0 and h = ref lf.ln in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if cmp t lf.lk.(mid) key < 0 then l := mid + 1 else h := mid
    done;
    !l

  (* Child index for [key]: smallest i with key < ik.(i), else inn. *)
  let child_index t (nd : 'v internal) key =
    let l = ref 0 and h = ref nd.inn in
    while !l < !h do
      let mid = (!l + !h) / 2 in
      if cmp t nd.ik.(mid) key <= 0 then l := mid + 1 else h := mid
    done;
    !l

  let has_column lf = Array.length lf.lf > 0

  let mk_leaf t key fkey value =
    {
      lk = Array.make node_cap key;
      lv = Array.make node_cap value;
      lf = (if t.fkeys then Array.make node_cap fkey else [||]);
      ln = 1;
      next = None;
    }

  (* Split the full child at [idx] of internal node [parent].  The new right
     sibling takes the upper half; the separator rises into [parent]. *)
  let split_child parent idx =
    let insert_sep sep right =
      for j = parent.inn downto idx + 1 do
        parent.ik.(j) <- parent.ik.(j - 1)
      done;
      for j = parent.inn + 1 downto idx + 2 do
        parent.ic.(j) <- parent.ic.(j - 1)
      done;
      parent.ik.(idx) <- sep;
      parent.ic.(idx + 1) <- right;
      parent.inn <- parent.inn + 1
    in
    match parent.ic.(idx) with
    | L lf ->
        let mid = lf.ln / 2 in
        let right =
          {
            lk = Array.make node_cap lf.lk.(0);
            lv = Array.make node_cap lf.lv.(0);
            lf = (if has_column lf then Array.make node_cap 0 else [||]);
            ln = lf.ln - mid;
            next = lf.next;
          }
        in
        Array.blit lf.lk mid right.lk 0 right.ln;
        Array.blit lf.lv mid right.lv 0 right.ln;
        if has_column lf then Array.blit lf.lf mid right.lf 0 right.ln;
        lf.ln <- mid;
        lf.next <- Some right;
        insert_sep right.lk.(0) (L right)
    | I nd ->
        let mid = nd.inn / 2 in
        (* Separator at [mid] moves up; right gets separators after it. *)
        let right =
          {
            ik = Array.make node_cap nd.ik.(0);
            ic = Array.make (node_cap + 1) nd.ic.(0);
            inn = nd.inn - mid - 1;
          }
        in
        Array.blit nd.ik (mid + 1) right.ik 0 right.inn;
        Array.blit nd.ic (mid + 1) right.ic 0 (right.inn + 1);
        let sep = nd.ik.(mid) in
        nd.inn <- mid;
        insert_sep sep (I right)

  let node_full = function
    | L lf -> lf.ln = node_cap
    | I nd -> nd.inn = node_cap

  (** [put t key ~fkey value] inserts or replaces the binding of [key]
      with [value] and filter key [fkey]; returns the previous value bound
      to [key], if any. *)
  let put t key ~fkey value =
    match t.root with
    | None ->
        let lf = mk_leaf t key fkey value in
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
                ik = Array.make node_cap (match root with
                     | L lf -> lf.lk.(0)
                     | I n -> n.ik.(0));
                ic = Array.make (node_cap + 1) root;
                inn = 0;
              }
            in
            nd.ic.(0) <- root;
            split_child nd 0;
            let r = I nd in
            t.root <- Some r;
            r
          end
          else root
        in
        let rec go = function
          | L lf ->
              let pos = leaf_lower_bound t lf key in
              if pos < lf.ln && cmp t lf.lk.(pos) key = 0 then begin
                let old = lf.lv.(pos) in
                lf.lv.(pos) <- value;
                if has_column lf then lf.lf.(pos) <- fkey;
                Some old
              end
              else begin
                for j = lf.ln downto pos + 1 do
                  lf.lk.(j) <- lf.lk.(j - 1);
                  lf.lv.(j) <- lf.lv.(j - 1)
                done;
                lf.lk.(pos) <- key;
                lf.lv.(pos) <- value;
                if has_column lf then begin
                  Array.blit lf.lf pos lf.lf (pos + 1) (lf.ln - pos);
                  lf.lf.(pos) <- fkey
                end;
                lf.ln <- lf.ln + 1;
                t.count <- t.count + 1;
                None
              end
          | I nd ->
              let idx = child_index t nd key in
              if node_full nd.ic.(idx) then begin
                split_child nd idx;
                (* Re-decide between the two halves. *)
                let idx =
                  if cmp t nd.ik.(idx) key <= 0 then idx + 1 else idx
                in
                go nd.ic.(idx)
              end
              else go nd.ic.(idx)
        in
        go root

  (** [remove t key] removes the binding for [key], returning the removed
      value.  Used only by transaction rollback (Sec. 5.2: "rollback for
      in-memory component changes is implemented by applying the inverse
      operations of log records"); normal LSM deletion inserts anti-matter
      values instead.  Leaves are allowed to underflow — stale separators
      and empty leaves never affect search correctness, only space, and a
      memory component's life ends at the next flush anyway. *)
  let remove t key =
    let rec go = function
      | L lf ->
          let pos = leaf_lower_bound t lf key in
          if pos < lf.ln && cmp t lf.lk.(pos) key = 0 then begin
            let old = lf.lv.(pos) in
            for j = pos to lf.ln - 2 do
              lf.lk.(j) <- lf.lk.(j + 1);
              lf.lv.(j) <- lf.lv.(j + 1)
            done;
            if has_column lf then
              Array.blit lf.lf (pos + 1) lf.lf pos (lf.ln - 1 - pos);
            lf.ln <- lf.ln - 1;
            t.count <- t.count - 1;
            Some old
          end
          else None
      | I nd -> go nd.ic.(child_index t nd key)
    in
    match t.root with None -> None | Some r -> go r

  (* [find]'s descent from a node, at the functor's top level so a
     lookup allocates no closure for it. *)
  let rec find_below t key = function
    | L lf ->
        let pos = leaf_lower_bound t lf key in
        if pos < lf.ln && cmp t lf.lk.(pos) key = 0 then Some lf.lv.(pos)
        else None
    | I nd -> find_below t key nd.ic.(child_index t nd key)

  (** [find t key] returns the value bound to [key], if any. *)
  let find t key =
    match t.root with None -> None | Some r -> find_below t key r

  let mem t key = Option.is_some (find t key)

  (* A pull cursor: the next binding is slot [ci] of leaf [cl], or the
     first live slot after it along the leaf links ([None] = exhausted). *)
  type 'v cursor = { mutable cl : 'v leaf option; mutable ci : int }

  (** [seek t lo] is a cursor at the first binding with key >= [lo]
      ([None] = the first binding).  The one descent of the tree: it
      counts the comparisons of a root-to-leaf lower-bound search, and
      none with no bound. *)
  let seek t lo =
    match (lo, t.root) with
    | None, _ -> { cl = t.first; ci = 0 }
    | Some _, None -> { cl = None; ci = 0 }
    | Some key, Some r ->
        let rec find_leaf = function
          | L lf -> { cl = Some lf; ci = leaf_lower_bound t lf key }
          | I nd -> find_leaf nd.ic.(child_index t nd key)
        in
        find_leaf r

  (** [step c] moves [c] past the binding under it and is [true], or is
      [false] once the bindings run out (and ever after); {!key} and
      {!value} read the binding it moved past.  No comparisons, no
      allocation.  {!iter}, {!iter_from} and {!to_sorted_array} walk a
      cursor this way. *)
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

  let value c =
    match c.cl with
    | Some lf when c.ci > 0 -> lf.lv.(c.ci - 1)
    | _ -> invalid_arg "Mem_btree.value: no binding stepped over"

  let fkey c =
    match c.cl with
    | Some lf when c.ci > 0 ->
        if has_column lf then lf.lf.(c.ci - 1) else no_fkey
    | _ -> invalid_arg "Mem_btree.fkey: no binding stepped over"

  (** [copy c] is an independent cursor at [c]'s position. *)
  let copy c = { cl = c.cl; ci = c.ci }

  (** [iter t f] applies [f key value] in ascending key order. *)
  let iter t f =
    let c = seek t None in
    while step c do
      f (key c) (value c)
    done

  (** [to_sorted_array t] materializes all bindings in key order (the
      tests' model). *)
  let to_sorted_array t =
    let c = seek t None in
    if not (step c) then [||]
    else begin
      let out = Array.make t.count (key c, value c) in
      let i = ref 1 in
      while step c do
        out.(!i) <- (key c, value c);
        incr i
      done;
      out
    end

  (** [iter_from t lo f] applies [f] to bindings with key >= [lo], in
      order, while [f] returns [true]. *)
  let iter_from t lo f =
    let c = seek t (Some lo) in
    while step c && f (key c) (value c) do
      ()
    done

  (** [min_binding t] / [max_binding t]: extreme bindings, if any.
      (Leaves may be empty after {!remove}; skip them.) *)
  let min_binding t =
    let rec go = function
      | None -> None
      | Some lf -> if lf.ln = 0 then go lf.next else Some (lf.lk.(0), lf.lv.(0))
    in
    go t.first

  let max_binding t =
    (* With post-remove underflow the rightmost leaf can be empty; fall
       back to a full iteration in that rare case. *)
    let rec rightmost = function
      | L lf -> if lf.ln = 0 then None else Some (lf.lk.(lf.ln - 1), lf.lv.(lf.ln - 1))
      | I nd -> rightmost nd.ic.(nd.inn)
    in
    match t.root with
    | None -> None
    | Some r -> (
        match rightmost r with
        | Some b -> Some b
        | None ->
            let best = ref None in
            iter t (fun k v -> best := Some (k, v));
            !best)
end
