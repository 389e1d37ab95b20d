(* Tests for Lsm_tree: the generic LSM tree (writes, flush, merge,
   point-lookup algorithms, reconciling scans, bitmaps, merge policies). *)

module L = Lsm_tree.Make (Lsm_util.Keys.Int_value)
module Entry = Lsm_tree.Entry
module Mp = Lsm_tree.Merge_policy
module IntMap = Map.Make (Int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:256 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(256 * 64) device

let mk_tree ?(bloom = Some Lsm_tree.Config.default_bloom) ?(bitmap = false)
    ?filter_of env =
  L.create ?filter_of env
    (Lsm_tree.Config.make ~bloom ~validity_bitmap:bitmap "t")

module U = Lsm_tree.Make (Lsm_util.Keys.Unit_value)

(* A dataset's secondary tree: unit values, no Bloom filter. *)
let mk_sec_tree ?(shards = 1) env =
  U.create ~layout:Lsm_tree.Sk_pk env
    (Lsm_tree.Config.make ~bloom:None ~shards "sec")

(* [L.scan] with each row handed over as an entry: [Put] rows always,
   anti-matter only with [emit_del]. *)
let scan_entries ?(emit_del = false) t spec ~f =
  L.scan t spec
    ?on_del:
      (if emit_del then
         Some (fun key pk ts ~src_repaired -> f key pk ts Entry.Del ~src_repaired)
       else None)
    ~f:(fun key pk ts v ~src_repaired -> f key pk ts (Entry.Put v) ~src_repaired)

(* ------------------------------------------------------------------ *)
(* Basic write / flush / lookup *)

let test_write_and_mem_lookup () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  Alcotest.(check (option int)) "mem hit" (Some 10) (L.lookup_one t 1);
  Alcotest.(check int) "mem count" 2 (L.mem_count t);
  Alcotest.(check bool) "bytes accounted" true (L.mem_bytes t = 2 * (8 + 8 + 8))

let test_same_key_replaces_in_mem () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:1 ~pk:1 ~ts:5 (Entry.Put 11);
  Alcotest.(check int) "one entry" 1 (L.mem_count t);
  Alcotest.(check (option int)) "newest" (Some 11) (L.lookup_one t 1);
  Alcotest.(check bool) "mem entry" true (L.mem_find t 1 1 = Some (Entry.Put 11));
  Alcotest.(check int) "ts" 5 (L.mem_ts t);
  Alcotest.(check (pair int int)) "mem id" (1, 5) (L.mem_id t)

let test_flush_creates_component () =
  let env = mk_env () in
  let t = mk_tree env in
  for i = 1 to 50 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put (i * 10))
  done;
  L.flush t;
  Alcotest.(check int) "one component" 1 (L.component_count t);
  Alcotest.(check int) "mem drained" 0 (L.mem_count t);
  let c = (L.components t).(0) in
  Alcotest.(check (pair int int)) "component id" (1, 50) (L.component_id c);
  Alcotest.(check (option int)) "disk hit" (Some 250) (L.lookup_one t 25);
  Alcotest.(check bool) "miss" true (L.lookup_one t 51 = None)

let test_flush_empty_noop () =
  let env = mk_env () in
  let t = mk_tree env in
  L.flush t;
  Alcotest.(check int) "no components" 0 (L.component_count t)

let test_newest_component_wins () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 (Entry.Put 20);
  L.flush t;
  Alcotest.(check (option int)) "newest" (Some 20) (L.lookup_one t 1);
  Alcotest.(check int) "two components" 2 (L.component_count t)

let test_anti_matter_lookup () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 Entry.Del;
  (* The anti-matter in memory answers; the older [Put] is not reached. *)
  Alcotest.(check (option int)) "del hides the older put" None (L.lookup_one t 1);
  L.flush t;
  Alcotest.(check (option int)) "from disk too" None (L.lookup_one t 1)

(* ------------------------------------------------------------------ *)
(* Merge *)

let test_merge_reconciles () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:3 (Entry.Put 11);
  L.write t ~key:3 ~pk:3 ~ts:4 (Entry.Put 30);
  L.flush t;
  let c = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "one component" 1 (L.component_count t);
  Alcotest.(check int) "3 distinct keys" 3 (L.component_rows c);
  Alcotest.(check (pair int int)) "merged id" (1, 4) (L.component_id c);
  Alcotest.(check (option int)) "newest kept" (Some 11) (L.lookup_one t 1)

let test_merge_drops_del_at_bottom () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:3 Entry.Del;
  L.flush t;
  let c = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "tombstone gone" 1 (L.component_rows c);
  Alcotest.(check bool) "key deleted" true (L.lookup_one t 1 = None)

let test_merge_keeps_del_above_bottom () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 Entry.Del;
  L.flush t;
  L.write t ~key:2 ~pk:2 ~ts:3 (Entry.Put 20);
  L.flush t;
  (* Merge the two NEWEST components; the oldest still holds Put 1, so the
     anti-matter must survive. *)
  ignore (L.merge t ~first:0 ~last:1);
  Alcotest.(check int) "two components" 2 (L.component_count t);
  let newest = (L.components t).(0) in
  Alcotest.(check bool) "del preserved" true
    ((L.row_at newest 0).L.value = None && L.is_del newest 0);
  Alcotest.(check (option int)) "and hides the older put" None (L.lookup_one t 1)

let test_merge_respects_bitmap () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  let c0 = (L.components t).(0) in
  L.invalidate c0 0 (* key 1 *);
  L.write t ~key:3 ~pk:3 ~ts:3 (Entry.Put 30);
  L.flush t;
  let merged = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "invalidated dropped" 2 (L.component_rows merged);
  Alcotest.(check bool) "key 1 gone" true (L.lookup_one t 1 = None)

(* ------------------------------------------------------------------ *)
(* Model-based property: random ops, random flush/merge points *)

type op = Write of int * int | Delete of int | Flush | MergeAll

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, map2 (fun k v -> Write (k, v)) (int_range 0 60) (int_range 0 1000));
        (2, map (fun k -> Delete k) (int_range 0 60));
        (1, return Flush);
        (1, return MergeAll);
      ])

let apply_model m = function
  | Write (k, v) -> IntMap.add k (`Put v) m
  | Delete k -> IntMap.add k `Del m
  | Flush | MergeAll -> m

let prop_lsm_matches_model =
  qtest ~count:120 "lsm = map model under random ops"
    QCheck2.Gen.(list_size (int_range 0 200) op_gen)
    (fun ops ->
      let env = mk_env () in
      let t = mk_tree env in
      let ts = ref 0 in
      let model =
        List.fold_left
          (fun m op ->
            (match op with
            | Write (k, v) ->
                incr ts;
                L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put v)
            | Delete k ->
                incr ts;
                L.write t ~key:k ~pk:k ~ts:!ts Entry.Del
            | Flush -> L.flush t
            | MergeAll ->
                if L.component_count t >= 2 then
                  ignore (L.merge t ~first:0 ~last:(L.component_count t - 1)));
            apply_model m op)
          IntMap.empty ops
      in
      (* Point lookups agree. *)
      let lookups_ok =
        IntMap.for_all
          (fun k st ->
            match (st, L.lookup_one t k) with
            | `Put v, Some v' -> v = v'
            | `Del, None -> true
            | `Del, Some _ | `Put _, None -> false)
          model
      in
      (* Reconciling scan agrees with live model bindings. *)
      let live =
        IntMap.bindings model
        |> List.filter_map (fun (k, st) ->
               match st with `Put v -> Some (k, v) | `Del -> None)
      in
      let scanned = ref [] in
      L.scan t L.full_scan_spec ~f:(fun key _ _ v ~src_repaired:_ ->
          scanned := (key, v) :: !scanned);
      lookups_ok && List.rev !scanned = live)

let prop_batched_lookup_matches_naive =
  qtest ~count:60 "batched/stateful lookups = naive lookups"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 150) op_gen)
        (list_size (int_range 1 40) (int_range 0 70)))
    (fun (ops, queries) ->
      let env = mk_env () in
      let t = mk_tree env in
      let ts = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Write (k, v) ->
              incr ts;
              L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put v)
          | Delete k ->
              incr ts;
              L.write t ~key:k ~pk:k ~ts:!ts Entry.Del
          | Flush -> L.flush t
          | MergeAll ->
              if L.component_count t >= 2 then
                ignore (L.merge t ~first:0 ~last:(L.component_count t - 1)))
        ops;
      let qkeys =
        List.sort_uniq compare queries |> Array.of_list |> L.plain_keys
      in
      let naive = Hashtbl.create 16 in
      Array.iter
        (fun { L.qkey; _ } ->
          Hashtbl.replace naive qkey (L.lookup_one t qkey))
        qkeys;
      let all_match = ref true in
      List.iter
        (fun opts ->
          L.lookup_batch t opts qkeys ~emit:(fun k got ->
              (* lookup_one resolves a bitmap-invalid hit to None too. *)
              if Hashtbl.find naive k <> got then all_match := false))
        [
          { L.batched = false; batch_bytes = 0; stateful = false; use_hints = false };
          { L.batched = true; batch_bytes = 64; stateful = false; use_hints = false };
          { L.batched = true; batch_bytes = 1024 * 1024; stateful = true; use_hints = false };
          { L.batched = true; batch_bytes = 200; stateful = true; use_hints = false };
        ];
      !all_match)

(* ------------------------------------------------------------------ *)
(* Scans *)

let test_scan_range_bounds () =
  let env = mk_env () in
  let t = mk_tree env in
  for i = 1 to 30 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  for i = 31 to 40 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  let out = ref [] in
  L.scan t
    { L.full_scan_spec with lo = Some 25; hi = Some 35 }
    ~f:(fun key _ _ _ ~src_repaired:_ -> out := key :: !out);
  Alcotest.(check (list int)) "range" [ 25; 26; 27; 28; 29; 30; 31; 32; 33; 34; 35 ]
    (List.rev !out)

let test_scan_non_reconciling_per_component () =
  let env = mk_env () in
  let t = mk_tree ~bitmap:true env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  (* Mark key 1 invalid in the old component, then upsert it anew. *)
  let c0 = (L.components t).(0) in
  L.invalidate c0 0;
  L.write t ~key:1 ~pk:1 ~ts:3 (Entry.Put 11);
  let out = ref [] in
  scan_entries t
    { L.full_scan_spec with reconcile = false }
    ~f:(fun key _ _ value ~src_repaired:_ -> out := (key, value) :: !out);
  (* Memory first (key 1 new), then the disk component (key 2 only). *)
  Alcotest.(check int) "two entries" 2 (List.length !out);
  Alcotest.(check bool) "no stale version" true
    (not (List.mem (1, Entry.Put 10) !out));
  Alcotest.(check bool) "new version present" true
    (List.mem (1, Entry.Put 11) !out)

let test_scan_only_subset () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  let comps = L.components t in
  let out = ref [] in
  L.scan t
    { L.full_scan_spec with only = Some [ comps.(0) ]; include_mem = false }
    ~f:(fun key _ _ _ ~src_repaired:_ -> out := key :: !out);
  Alcotest.(check (list int)) "only newest comp" [ 2 ] (List.rev !out)

(* A memory-only reconciling scan reads the memtable in place: it must not
   copy it into a block too large for the minor heap.  A direct
   major-heap allocation shows as major words that were not promoted. *)
let test_mem_scan_no_major_alloc () =
  let env = mk_env () in
  let t = mk_tree env in
  for i = 1 to 5_000 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  let direct_major spec =
    let n = ref 0 in
    Gc.minor ();
    let _, promoted0, major0 = Gc.counters () in
    L.scan t spec ~f:(fun _ _ _ _ ~src_repaired:_ -> incr n);
    let _, promoted1, major1 = Gc.counters () in
    (!n, major1 -. major0 -. (promoted1 -. promoted0))
  in
  Alcotest.(check (pair int (float 0.0)))
    "full scan" (5_000, 0.0)
    (direct_major L.full_scan_spec);
  Alcotest.(check (pair int (float 0.0)))
    "range scan" (3_001, 0.0)
    (direct_major { L.full_scan_spec with lo = Some 1_000; hi = Some 4_000 })

(* The memory component's in-range rows as a sorted pull stream, the way
   [Lsm_tree] once read them for the heap loop below: from [tables], a
   replica of the tree's memtables built by the same writes, with every
   charge of the slice landing at creation — one hi comparison per
   binding the counting walk visits (every binding when there is no
   [lo]), the sort of several shards' rows, the seeks' comparisons, then
   one entry visit per in-range row. *)
type trow = { key : int; ts : int; e : int Entry.t }

let trow_of_row (r : L.row) =
  {
    key = r.L.key;
    ts = r.L.ts;
    e = (match r.L.value with Some v -> Entry.Put v | None -> Entry.Del);
  }

let mem_stream env tables (spec : L.scan_spec) =
  let charge () = Lsm_sim.Env.charge_comparisons env 1 in
  if not spec.include_mem then fun () -> None
  else begin
    let within_hi k =
      match spec.hi with
      | None -> true
      | Some h ->
          charge ();
          k <= h
    in
    let slice m =
      let c = Lsm_btree.Mem_btree.seek m spec.lo 0 in
      let n =
        match (spec.lo, spec.hi) with
        | None, None -> Lsm_btree.Mem_btree.length m
        | _ ->
            let w = Lsm_btree.Mem_btree.copy c in
            let rec count n =
              if not (Lsm_btree.Mem_btree.step w) then n
              else if within_hi (Lsm_btree.Mem_btree.key w) then count (n + 1)
              else if Option.is_none spec.lo then count n
              else n
            in
            count 0
      in
      Array.init n (fun _ ->
          ignore (Lsm_btree.Mem_btree.step c);
          {
            key = Lsm_btree.Mem_btree.key c;
            ts = Lsm_btree.Mem_btree.ts c;
            e = Lsm_btree.Mem_btree.value c;
          })
    in
    let rows = Array.concat (Array.to_list (Array.map slice tables)) in
    if Array.length tables > 1 then
      Array.sort
        (fun (a : trow) b ->
          charge ();
          Int.compare a.key b.key)
        rows;
    Lsm_sim.Env.charge_comparisons env
      (Array.fold_left (fun acc m -> acc + Lsm_btree.Mem_btree.take_comparisons m) 0 tables);
    Lsm_sim.Env.charge_entry_visits env (Array.length rows);
    Seq.to_dispenser (Array.to_seq rows)
  end

(* One component's row positions in [spec.lo..spec.hi] as a pull stream
   ([-1] at the end) that skips the positions [valid] rejects: the
   per-component stream the heap loop below merged.  The seek is charged
   now, and each pull a leaf fetch on a crossing, an entry visit and a hi
   comparison per row it reads. *)
let component_stream env (spec : L.scan_spec) ~valid (c : L.disk_component) =
  let s = Lsm_btree.Disk_btree.Scan.seek env c.tree spec.lo 0 in
  let keys = Lsm_btree.Disk_btree.keys c.tree in
  let rec next () =
    let i = Lsm_btree.Disk_btree.Scan.next env s in
    if i < 0 then -1
    else if
      match spec.hi with
      | None -> false
      | Some h ->
          Lsm_sim.Env.charge_comparisons env 1;
          keys.(i) > h
    then -1
    else if valid i then i
    else next ()
  in
  next

(* The k-way heap loop over materialised rows that every reconciling scan
   without a sorted view once ran; kept as the oracle of the one merge
   loop that replaced it (and of the two-way loop before that).  Same
   streams, same charged comparisons, in the same order.  [tables]
   replicates the tree's memtables (see [mem_stream]). *)
let heap_scan ~emit_del env t tables (spec : L.scan_spec) ~f =
  let charge () = Lsm_sim.Env.charge_comparisons env 1 in
  let comps =
    match spec.only with
    | Some cs -> cs
    | None -> Array.to_list (L.components t)
  in
  let emit (row : trow) ~src_repaired =
    match row.e with
    | Entry.Put _ -> f row.key row.key row.ts row.e ~src_repaired
    | Entry.Del -> if emit_del then f row.key row.key row.ts row.e ~src_repaired
  in
  let mem = mem_stream env tables spec in
  let mem_src () =
    match mem () with
    | Some (r : trow) as head
      when match spec.hi with
           | None -> true
           | Some h ->
               charge ();
               r.key <= h ->
        head
    | _ -> None
  in
  let comps_a = Array.of_list comps in
  let streams =
    Array.map
      (fun c ->
        let next =
          component_stream env spec c ~valid:(fun i ->
              (not spec.respect_bitmap) || L.row_valid c i)
        in
        fun () ->
          let i = next () in
          if i < 0 then None else Some (trow_of_row (L.row_at c i)))
      comps_a
  in
  let sources = Array.append [| mem_src |] streams in
  let heads = Array.make (Array.length sources) None in
  let head s = Option.get heads.(s) in
  let m =
    Lsm_util.Kmerge.create (Array.length sources)
      ~compare:(fun a b ->
        charge ();
        Int.compare (head a).key (head b).key)
      ~pull:(fun s ->
        heads.(s) <- sources.(s) ();
        Option.is_some heads.(s))
  in
  let last_key = ref None in
  let top = ref (Lsm_util.Kmerge.top m) in
  while !top >= 0 do
    let p = !top in
    let row = head p in
    top := Lsm_util.Kmerge.advance m;
    let dup =
      match !last_key with
      | Some lk ->
          charge ();
          lk = row.key
      | None -> false
    in
    last_key := Some row.key;
    if not dup then
      emit row
        ~src_repaired:(if p = 0 then 0 else comps_a.(p - 1).L.repaired_ts)
  done

type scan_case = {
  ops : op list;  (** [MergeAll] is not drawn *)
  shards : int;
  invalid : (int * int) list;  (** (component, position) bits to set *)
  repaired : int;  (** component [i]'s repairedTS: [repaired * (i + 1) mod 101] *)
  lo : int option;
  hi : int option;
  include_mem : bool;
  respect_bitmap : bool;
  emit_del : bool;
  pick : int option;
      (** with >= 2 components: scan only this one ([None] = none; past
          the last = all of them, through the heap with views off) *)
}

let scan_case_gen =
  QCheck2.Gen.(
    let* ops =
      list_size (int_range 0 120)
        (frequency
           [
             (8, map2 (fun k v -> Write (k, v)) (int_range 0 40) (int_range 0 99));
             (3, map (fun k -> Delete k) (int_range 0 40));
             (1, return Flush);
           ])
    in
    let* shards = oneofl [ 1; 1; 3 ] in
    let* invalid = list_size (int_range 0 12) (pair (int_range 0 3) (int_range 0 40)) in
    let* repaired = int_range 0 100 in
    let* lo = opt (int_range 0 40) in
    let* hi = opt (int_range 0 40) in
    let* include_mem = frequency [ (4, return true); (1, return false) ] in
    let* respect_bitmap = bool in
    let* emit_del = bool in
    let* pick = opt (int_range 0 3) in
    return
      {
        ops;
        shards;
        invalid;
        repaired;
        lo;
        hi;
        include_mem;
        respect_bitmap;
        emit_del;
        pick;
      })

(* A reconciling scan without a sorted view — memory (1 or 3 shards)
   against a one-component tree, [only] picking one or none of several
   components, or all of several with views off — gives the same rows,
   the same source repairedTS, the same I/O counters and the same
   simulated clock as the heap loop on an identical tree. *)
let prop_scan_matches_heap =
  qtest ~count:300 "reconciling scan = heap loop (rows, stats, clock)"
    scan_case_gen (fun c ->
      let build () =
        let env = mk_env () in
        let t =
          L.create env
            (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom)
               ~shards:c.shards "t")
        in
        (* The heap loop reads this replica of the memtables. *)
        let fresh () =
          Array.init c.shards (fun _ -> Lsm_btree.Mem_btree.create ~fkeys:false ())
        in
        let tables = ref (fresh ()) in
        let ts = ref 0 in
        let write k e =
          incr ts;
          L.write t ~key:k ~pk:k ~ts:!ts e;
          let m = !tables.(L.shard_of t k k) in
          ignore (Lsm_btree.Mem_btree.put m k k ~ts:!ts ~fkey:L.no_fkey e)
        in
        List.iter
          (function
            | Write (k, v) -> write k (Entry.Put v)
            | Delete k -> write k Entry.Del
            | Flush | MergeAll ->
                if not (L.mem_is_empty t) then tables := fresh ();
                L.flush t)
          c.ops;
        Array.iter (fun m -> ignore (Lsm_btree.Mem_btree.take_comparisons m)) !tables;
        let comps = L.components t in
        List.iter
          (fun (ci, pos) ->
            if ci < Array.length comps && pos < L.component_rows comps.(ci) then
              L.invalidate comps.(ci) pos)
          c.invalid;
        Array.iteri
          (fun i comp -> L.set_repaired_ts comp (c.repaired * (i + 1) mod 101))
          comps;
        let only =
          if Array.length comps <= 1 then None
          else
            match c.pick with
            | Some i when i < Array.length comps -> Some [ comps.(i) ]
            | Some _ ->
                L.set_sorted_views t false;
                None
            | None -> Some []
        in
        let spec =
          {
            L.full_scan_spec with
            lo = c.lo;
            hi = c.hi;
            include_mem = c.include_mem;
            respect_bitmap = c.respect_bitmap;
            only;
          }
        in
        (env, t, !tables, spec)
      in
      let run scan =
        let env, t, tables, spec = build () in
        let out = ref [] in
        scan env t tables spec ~f:(fun key _ ts value ~src_repaired ->
            out := (key, ts, value, src_repaired) :: !out);
        ( List.rev !out,
          Lsm_sim.Io_stats.fields (Lsm_sim.Env.stats env),
          Int64.bits_of_float (Lsm_sim.Env.now_us env) )
      in
      let emit_del = c.emit_del in
      run (fun _env t _tables spec ~f -> scan_entries ~emit_del t spec ~f)
      = run (heap_scan ~emit_del))

type filter_case = {
  segments : op list list;
      (** one op list per flush, oldest first (0-3 components); the last
          stays in memory *)
  fshards : int;
  finvalid : (int * int) list;  (** (component, position) bits to set *)
  fquarantine : int option;
  views : bool;
  warm : bool;  (** an unfiltered full scan first (builds a view) *)
  freconcile : bool;
  fonly : bool list option;  (** which components to scan; [None] = all *)
  flo : int option;
  fhi : int option;
  finclude_mem : bool;
  frespect_bitmap : bool;
  femit_del : bool;
  filter : int * int;
}

let filter_case_gen =
  QCheck2.Gen.(
    let op =
      frequency
        [
          (8, map2 (fun k v -> Write (k, v)) (int_range 0 40) (int_range 0 99));
          (3, map (fun k -> Delete k) (int_range 0 40));
        ]
    in
    let* nflush = int_range 0 3 in
    let* segments = list_repeat (nflush + 1) (list_size (int_range 0 40) op) in
    let* fshards = oneofl [ 1; 1; 3 ] in
    let* finvalid =
      list_size (int_range 0 12) (pair (int_range 0 2) (int_range 0 40))
    in
    let* fquarantine = opt (int_range 0 2) in
    let* views = bool in
    let* warm = bool in
    let* freconcile = frequency [ (3, return true); (1, return false) ] in
    let* fonly = opt (list_repeat 3 bool) in
    let* flo = opt (int_range 0 40) in
    let* fhi = opt (int_range 0 40) in
    let* finclude_mem = frequency [ (4, return true); (1, return false) ] in
    let* frespect_bitmap = bool in
    let* femit_del = bool in
    let* a = int_range (-5) 105 in
    let* w = int_range 0 60 in
    return
      {
        segments;
        fshards;
        finvalid;
        fquarantine;
        views;
        warm;
        freconcile;
        fonly;
        flo;
        fhi;
        finclude_mem;
        frespect_bitmap;
        femit_del;
        filter = (a, a + w);
      })

(* A scan with [filter] emits exactly the rows of the same scan without
   it once the range test is applied to its [Put] rows — same rows in the
   same order, same source repairedTS — and charges exactly the same: the
   same Io_stats counters, degraded probes and simulated clock.  Trees of
   0-3 components with a range filter (the value itself), 1 or 3 memory
   shards, random bitmaps and anti-matter, one quarantined component,
   views on and off (warmed or not), reconciling or not, and [only]
   subsets, so every scan path runs: the two-way loop, the heap, the view
   and component-at-a-time. *)
let prop_filtered_scan_matches_post_filter =
  qtest ~count:400 "filtered scan = scan then filter (rows, stats, clock)"
    filter_case_gen (fun fc ->
      let build () =
        let env = mk_env () in
        let t =
          L.create ~filter_of:Fun.id env
            (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom)
               ~validity_bitmap:true ~shards:fc.fshards "t")
        in
        let ts = ref 0 in
        let nseg = List.length fc.segments in
        List.iteri
          (fun i ops ->
            List.iter
              (function
                | Write (k, v) ->
                    incr ts;
                    L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put v)
                | Delete k ->
                    incr ts;
                    L.write t ~key:k ~pk:k ~ts:!ts Entry.Del
                | Flush | MergeAll -> ())
              ops;
            if i < nseg - 1 then L.flush t)
          fc.segments;
        let comps = L.components t in
        List.iter
          (fun (ci, pos) ->
            if ci < Array.length comps && pos < L.component_rows comps.(ci) then
              L.invalidate comps.(ci) pos)
          fc.finvalid;
        Array.iteri (fun i c -> L.set_repaired_ts c (7 * (i + 1))) comps;
        (match fc.fquarantine with
        | Some i when i < Array.length comps -> L.quarantine t comps.(i)
        | _ -> ());
        L.set_sorted_views t fc.views;
        if fc.warm then L.scan t L.full_scan_spec ~f:(fun _ _ _ _ ~src_repaired:_ -> ());
        let only =
          Option.map
            (fun mask ->
              List.filteri
                (fun i _ -> List.nth mask i)
                (Array.to_list comps))
            fc.fonly
        in
        let spec =
          {
            L.full_scan_spec with
            lo = fc.flo;
            hi = fc.fhi;
            reconcile = fc.freconcile;
            include_mem = fc.finclude_mem;
            respect_bitmap = fc.frespect_bitmap;
            only;
          }
        in
        (env, t, spec)
      in
      let a, b = fc.filter in
      let run ~filtered =
        let env, t, spec = build () in
        let out = ref [] in
        let spec = if filtered then { spec with filter = Some fc.filter } else spec in
        scan_entries ~emit_del:fc.femit_del t spec
          ~f:(fun key _ ts value ~src_repaired ->
            let keep =
              filtered
              || match value with Entry.Put v -> a <= v && v <= b | Entry.Del -> true
            in
            if keep then out := (key, ts, value, src_repaired) :: !out);
        ( List.rev !out,
          Lsm_sim.Io_stats.fields (Lsm_sim.Env.stats env),
          (Lsm_sim.Env.resil env).Lsm_sim.Env.degraded_probes,
          Int64.bits_of_float (Lsm_sim.Env.now_us env) )
      in
      run ~filtered:true = run ~filtered:false)

(* Every component a tree with range filters builds — by flush or by
   merge — has each row's filter key beside it, [no_fkey] for
   anti-matter; a tree without range filters has none. *)
let test_disk_filter_column () =
  let env = mk_env () in
  let t = mk_tree ~filter_of:(fun v -> v * 10) env in
  let plain = mk_tree env in
  List.iter
    (fun t ->
      L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 3);
      L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 5);
      L.flush t;
      L.write t ~key:2 ~pk:2 ~ts:3 Entry.Del;
      L.write t ~key:4 ~pk:4 ~ts:4 (Entry.Put 7);
      L.flush t)
    [ t; plain ];
  let column c =
    Array.to_list (Lsm_btree.Disk_btree.keys c.L.tree),
    Array.to_list (Lazy.force c.L.fkeys)
  in
  Alcotest.(check (pair (list int) (list int)))
    "flushed" ([ 2; 4 ], [ L.no_fkey; 70 ]) (column (L.components t).(0));
  let merged = L.merge t ~first:0 ~last:1 in
  Alcotest.(check (pair (list int) (list int)))
    "merged" ([ 1; 4 ], [ 30; 70 ]) (column merged);
  Alcotest.(check (list int)) "no filter, no column" []
    (Array.to_list (Lazy.force (L.components plain).(0).L.fkeys))

let test_filter_needs_range_filters () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  Alcotest.check_raises "no filter_of"
    (Invalid_argument "Lsm_tree.scan: filter on a tree without range filters")
    (fun () ->
      L.scan t
        { L.full_scan_spec with filter = Some (0, 10) }
        ~f:(fun _ _ _ _ ~src_repaired:_ -> ()))

(* ------------------------------------------------------------------ *)
(* The newest-first component probe *)

(* The Bloom probe and false-positive count the lookups, timestamp
   validation and Bloom-opt repair made before [L.find_newest] took their
   loops over; the loops below are those loops, kept as its oracles. *)
let oracle_probe_bloom env (c : L.disk_component) key =
  match c.L.bloom with
  | None -> true
  | Some _ when c.L.quarantined ->
      let r = Lsm_sim.Env.resil env in
      r.Lsm_sim.Env.degraded_probes <- r.Lsm_sim.Env.degraded_probes + 1;
      true
  | Some f ->
      let st = Lsm_sim.Env.stats env in
      st.Lsm_sim.Io_stats.bloom_probes <- st.Lsm_sim.Io_stats.bloom_probes + 1;
      Lsm_sim.Env.charge_hashes env (Lsm_bloom.Filter.hashes_per_probe f);
      Lsm_sim.Env.charge_cache_lines env
        (Lsm_bloom.Filter.cache_lines_per_probe f);
      let maybe =
        Lsm_bloom.Filter.contains f (Lsm_bloom.Hashing.mix64 key)
      in
      if not maybe then
        st.Lsm_sim.Io_stats.bloom_negatives <-
          st.Lsm_sim.Io_stats.bloom_negatives + 1;
      maybe

let oracle_note_fp env (c : L.disk_component) =
  if c.L.bloom <> None && not c.L.quarantined then begin
    let st = Lsm_sim.Env.stats env in
    st.Lsm_sim.Io_stats.bloom_fps <- st.Lsm_sim.Io_stats.bloom_fps + 1
  end

let oracle_lookup_one env t key =
  match L.mem_find t key key with
  | Some e -> Entry.value e
  | None ->
      let rec go = function
        | [] -> None
        | (c : L.disk_component) :: rest ->
            if oracle_probe_bloom env c key then
              match Lsm_btree.Disk_btree.find env c.L.tree key 0 with
              | -1 ->
                  oracle_note_fp env c;
                  go rest
              | pos ->
                  if L.row_valid c pos then (L.row_at c pos).L.value else None
            else go rest
      in
      go (Array.to_list (L.components t))

let oracle_entry_is_valid env t ?cursors ~key ~ts ~threshold () =
  match L.mem_find t key key with
  | Some _ -> L.mem_ts t <= ts
  | None ->
      let comps = L.components t in
      let rec go i =
        if i >= Array.length comps then true
        else begin
          let c = comps.(i) in
          if c.L.cmax_ts <= threshold then true
          else if oracle_probe_bloom env c key then begin
            let hit =
              match cursors with
              | Some cs -> Lsm_btree.Disk_btree.Cursor.find env cs.(i) key 0
              | None -> Lsm_btree.Disk_btree.find env c.L.tree key 0
            in
            match hit with
            | -1 ->
                oracle_note_fp env c;
                go (i + 1)
            | pos -> c.L.tss.(pos) <= ts
          end
          else go (i + 1)
        end
      in
      go 0

(* The Bloom-opt repair's skip pass, then its validation pass from the
   remembered component: [None] = skipped, else [Some stale]. *)
let oracle_repair env t cursors ~could_supersede ~key ~ts =
  let comps = L.components t in
  let fp = ref (-2) in
  Array.iteri
    (fun i c ->
      if !fp = -2 && could_supersede c ts && oracle_probe_bloom env c key then
        fp := i)
    comps;
  if !fp < 0 then None
  else
    let rec go i =
      if i >= Array.length comps then false
      else begin
        let c = comps.(i) in
        if not (could_supersede c ts) then false
        else if i = !fp || oracle_probe_bloom env c key then
          match Lsm_btree.Disk_btree.Cursor.find env cursors.(i) key 0 with
          | -1 ->
              oracle_note_fp env c;
              go (i + 1)
          | pos -> c.L.tss.(pos) > ts
        else go (i + 1)
      end
    in
    Some (go !fp)

type probe_case = {
  batches : (int * int option) list list;
      (** one list of (key, [Some v] = put | [None] = delete) per flushed
          component, oldest first; the last list stays in memory *)
  pbloom : bool;
  pinvalid : (int * int) list;  (** (component, position) bits to set *)
  quarantine : int option;
  use_cursors : bool;
  strict : bool;  (** repair's "strictly newer" pruning rule *)
  queries : (int * int * int) list;  (** (key, ts, threshold) *)
}

let probe_case_gen =
  QCheck2.Gen.(
    let write =
      pair (int_range 0 30)
        (frequency [ (4, map Option.some (int_range 0 99)); (1, return None) ])
    in
    let* ncomps = int_range 0 5 in
    let* batches =
      list_repeat (ncomps + 1) (list_size (int_range 0 15) write)
    in
    let* pbloom = frequency [ (3, return true); (1, return false) ] in
    let* pinvalid =
      list_size (int_range 0 8) (pair (int_range 0 4) (int_range 0 15))
    in
    let* quarantine = opt (int_range 0 4) in
    let* use_cursors = bool in
    let* strict = bool in
    let* queries =
      list_size (int_range 1 25)
        (triple (int_range 0 32) (int_range 0 90) (int_range 0 90))
    in
    return
      { batches; pbloom; pinvalid; quarantine; use_cursors; strict; queries })

(* The walk answers lookup_one, timestamp validation and the Bloom-opt
   repair exactly as their own loops did, and charges the same: the same
   Io_stats counters (probes, negatives, false positives, comparisons,
   pages read, ...), the same degraded probes and the same clock.  Trees
   of 0-5 components, with and without Bloom filters, random invalid
   bits, one quarantined component, stateless or stateful descents.  The
   loops end at the first component their bound prunes, the walk passes
   over every pruned one: without memory shards maxTS falls along the
   components, so the two read and charge the same. *)
let prop_probe_matches_loops =
  qtest ~count:300
    "newest-first probe = per-caller loops (answers, stats, clock)"
    probe_case_gen (fun pc ->
      let build () =
        let env = mk_env () in
        let bloom =
          if pc.pbloom then Some Lsm_tree.Config.default_bloom else None
        in
        let t = mk_tree ~bloom ~bitmap:true env in
        let ts = ref 0 in
        let n = List.length pc.batches in
        List.iteri
          (fun b writes ->
            List.iter
              (fun (k, v) ->
                incr ts;
                L.write t ~key:k ~pk:k ~ts:!ts
                  (match v with Some v -> Entry.Put v | None -> Entry.Del))
              writes;
            if b < n - 1 then L.flush t)
          pc.batches;
        let comps = L.components t in
        List.iter
          (fun (ci, pos) ->
            if ci < Array.length comps && pos < L.component_rows comps.(ci) then
              L.invalidate comps.(ci) pos)
          pc.pinvalid;
        (match pc.quarantine with
        | Some q when q < Array.length comps -> L.quarantine t comps.(q)
        | _ -> ());
        (env, t)
      in
      let could_supersede threshold (c : L.disk_component) ts =
        if pc.strict then c.L.cmin_ts > max threshold ts
        else c.L.cmax_ts > max threshold ts
      in
      let run ~lookup_one ~entry_is_valid ~repair =
        let env, t = build () in
        let answers =
          List.map
            (fun (key, ts, threshold) ->
              let threshold = max threshold ts in
              ( lookup_one env t key,
                entry_is_valid env t ~key ~ts ~threshold,
                repair env t
                  ~could_supersede:(could_supersede threshold)
                  ~key ~ts ))
            pc.queries
        in
        ( answers,
          Lsm_sim.Io_stats.fields (Lsm_sim.Env.stats env),
          (Lsm_sim.Env.resil env).Lsm_sim.Env.degraded_probes,
          Int64.bits_of_float (Lsm_sim.Env.now_us env) )
      in
      let oracle =
        let cursors = ref None in
        let cursors_of t =
          match !cursors with
          | Some cs -> cs
          | None ->
              let cs =
                Array.map
                  (fun c -> Lsm_btree.Disk_btree.Cursor.create c.L.tree)
                  (L.components t)
              in
              cursors := Some cs;
              cs
        in
        run ~lookup_one:oracle_lookup_one
          ~entry_is_valid:(fun env t ~key ~ts ~threshold ->
            let cursors =
              if pc.use_cursors then Some (cursors_of t) else None
            in
            oracle_entry_is_valid env t ?cursors ~key ~ts ~threshold ())
          ~repair:(fun env t ~could_supersede ~key ~ts ->
            oracle_repair env t (cursors_of t) ~could_supersede ~key ~ts)
      in
      let walk =
        let cursors = ref None in
        let cursors_of t =
          match !cursors with
          | Some cs -> cs
          | None ->
              let cs = L.cursors t in
              cursors := Some cs;
              cs
        in
        run
          ~lookup_one:(fun _env t key -> L.lookup_one t key)
          ~entry_is_valid:(fun _env t ~key ~ts ~threshold ->
            let cursors =
              if pc.use_cursors then Some (cursors_of t) else None
            in
            match L.mem_find t key key with
            | Some _ -> L.mem_ts t <= ts
            | None ->
                let pos =
                  L.find_newest t ?cursors key
                    ~skip:(fun c -> c.L.cmax_ts <= threshold)
                in
                pos < 0 || (L.found t).L.tss.(pos) <= ts)
          ~repair:(fun _env t ~could_supersede ~key ~ts ->
            let fp =
              L.first_positive t key ~eligible:(fun c -> could_supersede c ts)
            in
            if fp < 0 then None
            else
              let pos =
                L.find_newest t ~cursors:(cursors_of t) ~from:fp ~positive:fp
                  ~skip:(fun c -> not (could_supersede c ts))
                  key
              in
              Some (pos >= 0 && (L.found t).L.tss.(pos) > ts))
      in
      oracle = walk)

(* ------------------------------------------------------------------ *)
(* Range filters *)

let test_range_filter_from_puts () =
  let env = mk_env () in
  let t = mk_tree ~filter_of:(fun v -> v) env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 2015);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 2016);
  L.flush t;
  let c = (L.components t).(0) in
  Alcotest.(check (option (pair int int))) "filter" (Some (2015, 2016))
    c.L.range_filter

let test_widen_filter_covers_old_values () =
  (* The Eager strategy widens the memory filter by the old record's value
     on upsert (the running example of Figs. 2-3). *)
  let env = mk_env () in
  let t = mk_tree ~filter_of:(fun v -> v) env in
  L.write t ~key:101 ~pk:101 ~ts:1 (Entry.Put 2018);
  L.widen_filter t 101 101 2015;
  L.flush t;
  let c = (L.components t).(0) in
  Alcotest.(check (option (pair int int))) "widened" (Some (2015, 2018))
    c.L.range_filter

let test_merge_filter_union_vs_recompute () =
  let env = mk_env () in
  let t = mk_tree ~filter_of:(fun v -> v) env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 100);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 (Entry.Put 900);
  L.flush t;
  (* Bottom merge: old value 100 disappears; the filter is recomputed
     tightly from surviving entries. *)
  let c = L.merge t ~first:0 ~last:1 in
  Alcotest.(check (option (pair int int))) "tight filter" (Some (900, 900))
    c.L.range_filter

(* ------------------------------------------------------------------ *)
(* Merge policy *)

let test_tiering_policy_trigger () =
  let p = Mp.tiering ~size_ratio:1.2 () in
  (* oldest-first sizes *)
  Alcotest.(check (option (pair int int)))
    "no merge yet" None
    (Mp.pick p ~sizes:[| 100; 50 |]);
  Alcotest.(check (option (pair int int)))
    "merge all" (Some (0, 2))
    (Mp.pick p ~sizes:[| 100; 70; 60 |]);
  Alcotest.(check (option (pair int int)))
    "merge suffix" (Some (1, 2))
    (Mp.pick p ~sizes:[| 1000; 50; 70 |])

let test_tiering_max_mergeable () =
  let p = Mp.tiering ~size_ratio:1.2 ~max_mergeable_bytes:500 () in
  (* The 1000-byte component is immovable; merge only the younger ones. *)
  Alcotest.(check (option (pair int int)))
    "skips big" (Some (1, 2))
    (Mp.pick p ~sizes:[| 1000; 50; 70 |]);
  Alcotest.(check (option (pair int int)))
    "nothing mergeable" None
    (Mp.pick p ~sizes:[| 1000; 800 |])

let test_leveling_policy () =
  let p = Mp.leveling ~size_ratio:10.0 () in
  Alcotest.(check (option (pair int int)))
    "merge into older" (Some (0, 1))
    (Mp.pick p ~sizes:[| 100; 20 |]);
  Alcotest.(check (option (pair int int)))
    "too small" None
    (Mp.pick p ~sizes:[| 1000; 20 |])

let test_lazy_leveling_policy () =
  let p = Mp.lazy_leveling ~size_ratio:10.0 ~tier_ratio:1.2 () in
  (* Upper runs small relative to the bottom: tier among them only. *)
  Alcotest.(check (option (pair int int)))
    "tier upper runs" (Some (1, 3))
    (Mp.pick p ~sizes:[| 10_000; 50; 40; 30 |]);
  (* Upper runs heavy enough: fold everything into the bottom. *)
  Alcotest.(check (option (pair int int)))
    "fold into bottom" (Some (0, 2))
    (Mp.pick p ~sizes:[| 1000; 60; 60 |]);
  (* Nothing to do. *)
  Alcotest.(check (option (pair int int)))
    "quiescent" None
    (Mp.pick p ~sizes:[| 10_000; 50 |]);
  Alcotest.(check (option (pair int int)))
    "single run" None
    (Mp.pick p ~sizes:[| 10_000 |])

let test_pick_merge_applies_policy () =
  let env = mk_env () in
  let t = mk_tree env in
  let policy = Mp.tiering ~size_ratio:1.2 () in
  for i = 1 to 20 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  Alcotest.(check (option (pair int int)))
    "one component: nothing due" None (L.pick_merge t policy);
  (* A newer component at least 1.2x the older one triggers tiering. *)
  for i = 21 to 60 do
    L.write t ~key:i ~pk:i ~ts:i (Entry.Put i)
  done;
  L.flush t;
  let first, last =
    match L.pick_merge t policy with
    | Some r -> r
    | None -> Alcotest.fail "expected a merge"
  in
  (* Picking does not merge; the range is newest-first. *)
  Alcotest.(check int) "pick leaves the tree alone" 2 (L.component_count t);
  Alcotest.(check (pair int int)) "newest-first range" (0, 1) (first, last);
  ignore (L.merge t ~first ~last);
  Alcotest.(check int) "merged to one" 1 (L.component_count t);
  Alcotest.(check (option (pair int int)))
    "quiescent after the merge" None (L.pick_merge t policy)

(* ------------------------------------------------------------------ *)
(* Repair bookkeeping *)

let test_repaired_ts_propagates_min () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 1);
  L.flush t;
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 2);
  L.flush t;
  let comps = L.components t in
  L.set_repaired_ts comps.(0) 10;
  L.set_repaired_ts comps.(1) 4;
  let merged = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "min of inputs" 4 merged.L.repaired_ts

(* Allocation budgets: minor words per emitted row of three reconciling
   scans, and per input row of a 4-component merge, over generations of
   2,000 keys each (every other key, one in seven deleted) flushed into
   components, the last one left in memory.  The merges read rows by
   position and a scan hands [f] the fields of each row, building none,
   so a scan over one memtable allocates next to nothing per row (0.05
   with views off, 0.03 through the view); several shards add their
   gathered columns (2.1), and the merge its output columns (0.30).  The
   first scan warms the view.  The ceilings were set when a scan still
   built each emitted memory row (2.05, 2.03, 4.10 and 0.29 then); the
   element merge before that allocated 7.1 (heap), 3.5 (view), 11.4
   (shards) and 6.9 (merge). *)
let alloc_tree ?(shards = 1) ~flushes () =
  let t =
    L.create (mk_env ())
      (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom)
         ~shards "t")
  in
  let ts = ref 0 in
  for g = 0 to flushes do
    for i = 0 to 1_999 do
      incr ts;
      L.write t
        ~key:((2 * i) + (g mod 2)) ~pk:((2 * i) + (g mod 2))
        ~ts:!ts
        (if (i + g) mod 7 = 0 then Entry.Del else Entry.Put !ts)
    done;
    if g < flushes then L.flush t
  done;
  t

let check_budget ?(per = "minor words per row") name ceiling words =
  Printf.printf "%s: %.3f %s (budget %.1f)\n" name words per ceiling;
  if words > ceiling then
    Alcotest.failf "%s: %.3f %s, budget %.1f" name words per ceiling

let test_scan_alloc_budgets () =
  let words_per_row t =
    let n = ref 0 in
    let f _ _ _ _ ~src_repaired:_ = incr n in
    L.scan t L.full_scan_spec ~f;
    n := 0;
    let w0 = Gc.minor_words () in
    L.scan t L.full_scan_spec ~f;
    (Gc.minor_words () -. w0) /. Float.of_int !n
  in
  let heap = alloc_tree ~flushes:3 () in
  L.set_sorted_views heap false;
  check_budget "memory + 3 components, views off" 2.5 (words_per_row heap);
  check_budget "memory + 3 components, view" 2.5
    (words_per_row (alloc_tree ~flushes:3 ()));
  check_budget "3 memory shards + 1 component" 5.0
    (words_per_row (alloc_tree ~shards:3 ~flushes:1 ()))

let test_merge_alloc_budget () =
  let t = alloc_tree ~flushes:3 () in
  L.flush t;
  let rows =
    Array.fold_left (fun a c -> a + L.component_rows c) 0 (L.components t)
  in
  let w0 = Gc.minor_words () in
  ignore (L.merge t ~first:0 ~last:3);
  check_budget "merge of 4 components" 1.0
    ((Gc.minor_words () -. w0) /. Float.of_int rows)

(* Allocation budgets of the point lookup: minor words per [lookup_one]
   over 6 disk components of 2,000 keys each (component [g] holds the keys
   [6i + g]), for hits — each key's one version sits in one component,
   behind the Bloom negatives of the newer ones — and for misses.  A
   descent returns a bare position and the walk records its hit in the
   tree, so a miss allocates only in the span wrapper and the memory
   probe (9 words), and a hit also the option of the value it reads by
   position (11).  Handing out a row record and its option cost 15, and
   charging the memory probe's comparisons through a fold allocated its
   closure too (14 and 20). *)
let test_lookup_alloc_budget () =
  let t = mk_tree (mk_env ()) in
  for g = 0 to 5 do
    for i = 0 to 1_999 do
      L.write t ~key:((6 * i) + g) ~pk:((6 * i) + g) ~ts:((g * 2_000) + i + 1) (Entry.Put i)
    done;
    L.flush t
  done;
  let words_per_lookup keys =
    Array.iter (fun k -> ignore (L.lookup_one t k)) keys;
    let w0 = Gc.minor_words () in
    Array.iter (fun k -> ignore (L.lookup_one t k)) keys;
    (Gc.minor_words () -. w0) /. Float.of_int (Array.length keys)
  in
  check_budget ~per:"minor words per lookup" "hits over 6 components" 11.5
    (words_per_lookup (Array.init 12_000 Fun.id));
  check_budget ~per:"minor words per lookup" "misses over 6 components" 9.5
    (words_per_lookup (Array.init 12_000 (fun i -> 12_000 + i)))

(* Allocation budget of a memory write: minor words per [write] that
   replaces a key already in a 3-shard memtable (entries built
   beforehand): 2, the option of the replaced entry.  The memtable keeps
   the timestamp in a leaf column and descends without a closure;
   storing a [(ts, entry)] pair and descending through a closure cost
   13, charging the shards' comparisons through a fold allocated its
   closure on every write too (23), and hashing the row through a key
   module (18). *)
let test_write_alloc_budget () =
  let t =
    L.create (mk_env ())
      (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom)
         ~shards:3 "t")
  in
  let n = 10_000 in
  let entries = Array.init n (fun i -> Entry.Put i) in
  let write_all ts0 =
    for i = 0 to n - 1 do
      L.write t ~key:i ~pk:i ~ts:(ts0 + i) entries.(i)
    done
  in
  write_all 1;
  let w0 = Gc.minor_words () in
  write_all (n + 1);
  check_budget ~per:"minor words per write" "same-key write, 3 shards" 2.5
    ((Gc.minor_words () -. w0) /. Float.of_int n);
  (* A secondary row is named by two ints, not by a boxed (sk, pk) pair
     hashed through a key module: 2.32 words (13.32 with the stored pair
     and the closure), where the boxed row cost 21.2. *)
  let s = mk_sec_tree ~shards:3 (mk_env ()) in
  let write_sec ts0 =
    for i = 0 to n - 1 do
      U.write s ~key:(i mod 100) ~pk:i ~ts:(ts0 + i) (Entry.Put ())
    done
  in
  write_sec 1;
  let w0 = Gc.minor_words () in
  write_sec (n + 1);
  check_budget ~per:"minor words per write" "same-row secondary write, 3 shards"
    2.5
    ((Gc.minor_words () -. w0) /. Float.of_int n)

(* A disk component's footprint: words reachable from a flushed
   component of 10k rows with int values, per row.  Keys, timestamps and
   values are three columns read by position (3 words a row; without
   anti-matter the bit column is empty); the Bloom filter and the leaf
   fences add a fraction of a word: 3.36 in all.  An entry column of
   2-word [Put] blocks costs 2 words a row more (5.36), and fails; a
   stored row record beside it 3 more (8.36). *)
let test_component_footprint () =
  let t = mk_tree (mk_env ()) in
  for i = 0 to 9_999 do
    L.write t ~key:i ~pk:i ~ts:(i + 1) (Entry.Put i)
  done;
  L.flush t;
  let c = (L.components t).(0) in
  let words =
    Float.of_int (Obj.reachable_words (Obj.repr c))
    /. Float.of_int (L.component_rows c)
  in
  check_budget ~per:"words per stored row" "10k-row component" 3.6 words;
  (* A dataset's secondary component, 10k rows over 100 secondary keys:
     key, pk and timestamp columns, one word a row each, plus the leaf
     fences: 3.01.  Its unit values are one slot in all; a value column
     of one word a row costs 4.01, and fails, and keys stored as boxed
     (sk, pk) pairs cost 3 words a row instead of the pk column's 1
     (6.01).  On 4 KB pages, as in the bench's
     [footprint.secondary_component]. *)
  let s =
    mk_sec_tree
      (Lsm_sim.Env.create ~cache_bytes:(4 * 1024 * 1024)
         Lsm_harness.Scale.hdd_device)
  in
  for i = 0 to 9_999 do
    U.write s ~key:(i mod 100) ~pk:i ~ts:(i + 1) (Entry.Put ())
  done;
  U.flush s;
  let c = (U.components s).(0) in
  check_budget ~per:"words per stored row" "10k-row secondary component" 3.2
    (Float.of_int (Obj.reachable_words (Obj.repr c))
    /. Float.of_int (U.component_rows c))

(* ------------------------------------------------------------------ *)
(* The (secondary key, primary key) layout *)

(* The row hash and the shard index are pinned to their formulas on a few
   fixed rows: [mix64 key] when the key is the pk, [mix64 (mix64 sk lxor
   pk)] for a secondary row, and the shard [mix64 hash land max_int mod
   shards].  Bloom filters, shard routing and the per-shard recovery
   frontiers of existing datasets all depend on them. *)
let test_row_hash_pinned () =
  let mix = Lsm_bloom.Hashing.mix64 in
  let pk_tree =
    L.create (mk_env ()) (Lsm_tree.Config.make ~bloom:None ~shards:4 "pk")
  in
  let sec_tree = mk_sec_tree ~shards:4 (mk_env ()) in
  List.iter
    (fun (k, p) ->
      let name what = Printf.sprintf "%s (%d, %d)" what k p in
      Alcotest.(check int) (name "pk hash") (mix k) (L.row_hash pk_tree k k);
      Alcotest.(check int) (name "pk shard")
        (mix (mix k) land max_int mod 4)
        (L.shard_of pk_tree k k);
      Alcotest.(check int) (name "sec hash")
        (mix (mix k lxor p))
        (U.row_hash sec_tree k p);
      Alcotest.(check int) (name "sec shard")
        (mix (mix (mix k lxor p)) land max_int mod 4)
        (U.shard_of sec_tree k p))
    [ (0, 0); (1, 2); (42, 7); (-5, 1_000_003); (max_int, min_int) ];
  (* The filters of a flushed component hold the same hashes. *)
  let bloomed layout =
    U.create ~layout (mk_env ())
      (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom) "b")
  in
  let t = bloomed Lsm_tree.Sk_pk and p = bloomed Lsm_tree.Pk in
  for i = 0 to 99 do
    U.write t ~key:(i mod 7) ~pk:i ~ts:(i + 1) (Entry.Put ());
    U.write p ~key:i ~pk:i ~ts:(i + 1) (Entry.Put ())
  done;
  U.flush t;
  U.flush p;
  let filter tree = Option.get (U.components tree).(0).U.bloom in
  for i = 0 to 99 do
    Alcotest.(check bool) "sec row in its filter" true
      (Lsm_bloom.Filter.contains (filter t) (mix (mix (i mod 7) lxor i)));
    Alcotest.(check bool) "pk row in its filter" true
      (Lsm_bloom.Filter.contains (filter p) (mix i))
  done

type sec_op =
  | S_put of int * int * int
  | S_del of int * int
  | S_abort of int * int * int  (** a write rolled back at once *)
  | S_flush
  | S_flush_shard of int
  | S_merge

type sec_case = {
  sops : sec_op list;
  sshards : int;
  bounds : (int * int) * (int * int);  (** (lo, lo_pk), (hi, hi_pk) *)
  open_pks : bool;  (** scan with [full_scan_spec]'s pk bounds *)
}

let sec_case_gen =
  QCheck2.Gen.(
    let sk = int_range 0 3 and pk = int_range 0 25 in
    let* sops =
      list_size (int_range 0 150)
        (frequency
           [
             (8, map3 (fun s p v -> S_put (s, p, v)) sk pk (int_range 0 99));
             (3, map2 (fun s p -> S_del (s, p)) sk pk);
             (2, map3 (fun s p v -> S_abort (s, p, v)) sk pk (int_range 0 99));
             (1, return S_flush);
             (1, map (fun s -> S_flush_shard s) (int_range 0 2));
             (1, return S_merge);
           ])
    in
    let* sshards = oneofl [ 1; 3 ] in
    let* lo = pair (int_range (-1) 4) pk and* hi = pair (int_range (-1) 4) pk in
    let* open_pks = bool in
    return { sops; sshards; bounds = (lo, hi); open_pks })

module PairMap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

(* A secondary-layout tree against a map keyed by (sk, pk), where few
   distinct secondary keys make ties on the key the common case: after a
   trace of writes, anti-matter, rolled-back writes, whole and per-shard
   flushes and full merges, every memory entry is found by [mem_find], and
   reconciling scans bounded by (sk, pk) return the model's live rows in
   (sk, pk) order, through the sorted view and through the merge. *)
let prop_secondary_layout_matches_model =
  qtest ~count:300 "secondary layout = (sk, pk) map model (mem_find, scans)"
    sec_case_gen (fun c ->
      let t =
        L.create ~layout:Lsm_tree.Sk_pk (mk_env ())
          (Lsm_tree.Config.make ~bloom:None ~shards:c.sshards "sec")
      in
      let model = ref PairMap.empty and mem = ref PairMap.empty in
      let ts = ref 0 in
      let write sk pk e =
        incr ts;
        L.write t ~key:sk ~pk ~ts:!ts e;
        model := PairMap.add (sk, pk) e !model;
        mem := PairMap.add (sk, pk) e !mem
      in
      List.iter
        (function
          | S_put (sk, pk, v) -> write sk pk (Entry.Put v)
          | S_del (sk, pk) -> write sk pk Entry.Del
          | S_abort (sk, pk, v) ->
              let prior =
                Option.map (fun e -> (L.mem_ts t, e)) (L.mem_find t sk pk)
              in
              incr ts;
              L.write t ~key:sk ~pk ~ts:!ts (Entry.Put (v + 100));
              L.mem_rollback t ~key:sk ~pk ~prior
          | S_flush ->
              L.flush t;
              mem := PairMap.empty
          | S_flush_shard s ->
              let s = s mod L.mem_shards t in
              L.flush ~shard:s t;
              mem := PairMap.filter (fun (sk, pk) _ -> L.shard_of t sk pk <> s) !mem
          | S_merge ->
              let n = L.component_count t in
              if n >= 2 then ignore (L.merge t ~first:0 ~last:(n - 1)))
        c.sops;
      let mem_ok =
        PairMap.for_all
          (fun (sk, pk) e ->
            L.mem_find t sk pk = Some e)
          !mem
        && PairMap.for_all
             (fun (sk, pk) _ -> PairMap.mem (sk, pk) !mem || L.mem_find t sk pk = None)
             !model
      in
      let (lo, lo_pk), (hi, hi_pk) = c.bounds in
      let lo_pk, hi_pk = if c.open_pks then (min_int, max_int) else (lo_pk, hi_pk) in
      let expected =
        PairMap.bindings !model
        |> List.filter_map (fun ((sk, pk), e) ->
               if
                 compare (lo, lo_pk) (sk, pk) <= 0
                 && compare (sk, pk) (hi, hi_pk) <= 0
               then match e with Entry.Put v -> Some (sk, pk, v) | Entry.Del -> None
               else None)
      in
      let scan () =
        let out = ref [] in
        L.scan t
          { L.full_scan_spec with lo = Some lo; lo_pk; hi = Some hi; hi_pk }
          ~f:(fun sk pk _ v ~src_repaired:_ -> out := (sk, pk, v) :: !out);
        List.rev !out
      in
      let unbounded () =
        let out = ref [] in
        L.scan t L.full_scan_spec ~f:(fun sk pk _ v ~src_repaired:_ ->
            out := (sk, pk, v) :: !out);
        List.rev !out
      in
      let all_live =
        List.filter_map
          (fun ((sk, pk), e) ->
            match e with Entry.Put v -> Some (sk, pk, v) | Entry.Del -> None)
          (PairMap.bindings !model)
      in
      let via_view = scan () and all_via_view = unbounded () in
      L.set_sorted_views t false;
      let via_merge = scan () and all_via_merge = unbounded () in
      mem_ok && via_view = expected && via_merge = expected
      && all_via_view = all_live && all_via_merge = all_live)

(* ------------------------------------------------------------------ *)
(* Values read by position = an entry-array model *)

(* Every disk component keeps its values unboxed and its anti-matter as a
   bit; the model below keeps, for every component, the entry array it
   stands for, computed from the writes alone.  Traces of random [Put] and
   [Del] writes run against an int-valued [Pk] tree with range filters,
   a unit-valued [Pk] twin written in lockstep, and a unit-valued [Sk_pk]
   tree, with whole and per-shard flushes (1-3 shards), merges, installs
   of runs the model reconciles, one-component rebuilds of the valid rows
   (the secondary rebuild's copy), invalid bits, all-anti-matter
   components, and the concurrent builder's twin (the int tree's run
   merged by [merge_components], the unit twin installed over the same
   key, timestamp and anti-matter columns).  After each trace every read
   path answers as the model does: [row_at], [is_del] and [value_at] per
   position, the column layout, [mem_find], [lookup_one], [lookup_batch],
   reconciling scans with and without bitmaps, views on and off, with
   [on_del], a filtered scan, and [merge_components]. *)

type dop =
  | D_put of int * int * int  (** key, pk, value *)
  | D_del of int * int
  | D_flush
  | D_flush_shard of int
  | D_merge of int * int
  | D_invalid of int * int  (** component, position *)
  | D_install of int * int
  | D_rebuild of int
  | D_all_del of int list  (** flush, anti-matter for the keys, flush *)
  | D_twin

(* The columns the twin's install shares with the int tree's. *)
type twin_cols = { tw_keys : int array; tw_tss : int array; tw_dels : Bytes.t; tw_put : bool }

module Values_model (V : sig
  include Lsm_tree.VALUE

  val of_int : int -> t
  val equal : t -> t -> bool
end) =
struct
  module T = Lsm_tree.Make (V)

  (* The model of a component: an entry per position. *)
  type rc = { rk : int array; rp : int array; rt : int array; re : V.t Entry.t array }

  type st = {
    t : T.t;
    pk_col : bool;
    mem : (int * int, int * V.t Entry.t) Hashtbl.t;
    mutable refs : (T.disk_component * rc) list;
  }

  let create ?filter_of ~layout ~shards () =
    let t =
      T.create ?filter_of ~layout (mk_env ())
        (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom)
           ~shards "diff")
    in
    { t; pk_col = layout = Lsm_tree.Sk_pk; mem = Hashtbl.create 16; refs = [] }

  let rc_of st c = List.assq c st.refs

  let pk_of c i =
    let ks = Lsm_btree.Disk_btree.keys c.T.tree
    and ps = Lsm_btree.Disk_btree.pks c.T.tree in
    if Array.length ps = 0 then ks.(i) else ps.(i)
  let comps st = T.components st.t
  let rows rc = Array.length rc.rk

  let rc_of_list l =
    let a = Array.of_list l in
    {
      rk = Array.map (fun (k, _, _, _) -> k) a;
      rp = Array.map (fun (_, p, _, _) -> p) a;
      rt = Array.map (fun (_, _, ts, _) -> ts) a;
      re = Array.map (fun (_, _, _, e) -> e) a;
    }

  let write st k p ts e =
    T.write st.t ~key:k ~pk:p ~ts e;
    Hashtbl.replace st.mem (k, p) (ts, e)

  (* A flush's model: the flushed bindings in row order. *)
  let flush ?shard st =
    let take (k, p) =
      match shard with None -> true | Some s -> T.shard_of st.t k p = s
    in
    let bs =
      Hashtbl.fold
        (fun kp (ts, e) acc -> if take kp then (kp, ts, e) :: acc else acc)
        st.mem []
      |> List.sort compare
    in
    T.flush ?shard st.t;
    if bs <> [] then begin
      List.iter (fun (kp, _, _) -> Hashtbl.remove st.mem kp) bs;
      let rc = rc_of_list (List.map (fun ((k, p), ts, e) -> (k, p, ts, e)) bs) in
      st.refs <- ((comps st).(0), rc) :: st.refs
    end

  (* The run [a..b]'s rows reconciled: per row, the newest valid version;
     with [bottom], anti-matter dropped. *)
  let reconcile st a b ~bottom =
    let cs = Array.sub (comps st) a (b - a + 1) in
    let seen = Hashtbl.create 16 and out = ref [] in
    Array.iter
      (fun c ->
        let rc = rc_of st c in
        for i = 0 to rows rc - 1 do
          let kp = (rc.rk.(i), rc.rp.(i)) in
          if T.row_valid c i && not (Hashtbl.mem seen kp) then begin
            Hashtbl.replace seen kp ();
            if not (bottom && Entry.is_del rc.re.(i)) then
              out := (rc.rk.(i), rc.rp.(i), rc.rt.(i), rc.re.(i)) :: !out
          end
        done)
      cs;
    (cs, rc_of_list (List.sort compare !out))

  let merge st a b =
    let n = Array.length (comps st) in
    let _, rc = reconcile st a b ~bottom:(b = n - 1) in
    let c = T.merge st.t ~first:a ~last:b in
    st.refs <- (c, rc) :: st.refs

  (* Install [rc] over [inputs], its value and anti-matter columns set
     row by row from the model's entries. *)
  let install_rc st inputs rc =
    let b = T.columns (rows rc) in
    Array.iteri
      (fun o e ->
        match e with Entry.Put v -> T.set_put b o v | Entry.Del -> T.set_del b o)
      rc.re;
    let vals, dels = T.built b in
    let c =
      T.install st.t ~inputs ~keys:(Array.copy rc.rk)
        ~pks:(if st.pk_col then Array.copy rc.rp else [||])
        ~tss:(Array.copy rc.rt) ~vals ~dels
    in
    st.refs <- (c, rc) :: st.refs

  let install st a b =
    let inputs, rc = reconcile st a b ~bottom:false in
    install_rc st inputs rc

  (* The secondary rebuild's copy: a component's valid rows, by position. *)
  let rebuild st i =
    let c = (comps st).(i) in
    let rc = rc_of st c in
    let live = List.filter (T.row_valid c) (List.init (rows rc) Fun.id) in
    let live = Array.of_list live in
    let b = T.columns (Array.length live) in
    Array.iteri (fun o i -> T.copy_row b o c i) live;
    let vals, dels = T.built b in
    let sub col = Array.map (Array.get col) live in
    let c' =
      T.install st.t ~inputs:[| c |] ~keys:(sub rc.rk)
        ~pks:(if st.pk_col then sub rc.rp else [||])
        ~tss:(sub rc.rt) ~vals ~dels
    in
    st.refs <-
      (c', { rk = sub rc.rk; rp = sub rc.rp; rt = sub rc.rt; re = sub rc.re })
      :: st.refs

  (* The concurrent builder's merge: every component through
     [merge_components] (valid rows only, newest of equal rows first),
     each output row copied by position. *)
  let twin st =
    let cs = comps st in
    let m = T.merge_components st.t ~valid:T.row_valid cs in
    let out = ref [] and last = ref None in
    let top = ref (Lsm_util.Kmerge.top m.T.cm_merge) in
    while !top >= 0 do
      let s = !top and i = m.T.cm_heads.(!top) in
      top := Lsm_util.Kmerge.advance m.T.cm_merge;
      let k = (Lsm_btree.Disk_btree.keys cs.(s).T.tree).(i) in
      if !last <> Some k then out := (s, i) :: !out;
      last := Some k
    done;
    let out = Array.of_list (List.rev !out) in
    let n = Array.length out in
    let b = T.columns n in
    Array.iteri (fun o (s, i) -> T.copy_row b o cs.(s) i) out;
    let vals, dels = T.built b in
    let keys = Array.map (fun (s, i) -> (Lsm_btree.Disk_btree.keys cs.(s).T.tree).(i)) out in
    let tss = Array.map (fun (s, i) -> cs.(s).T.tss.(i)) out in
    let _, rc = reconcile st 0 (Array.length cs - 1) ~bottom:false in
    let c = T.install st.t ~inputs:cs ~keys ~pks:[||] ~tss ~vals ~dels in
    st.refs <- (c, rc) :: st.refs;
    { tw_keys = keys; tw_tss = tss; tw_dels = dels; tw_put = Array.length vals > 0 }

  (* The twin's install over the columns of the int tree's. *)
  let twin_install st tw ~value =
    let cs = comps st in
    let _, rc = reconcile st 0 (Array.length cs - 1) ~bottom:false in
    let c =
      T.install st.t ~inputs:cs ~keys:tw.tw_keys ~pks:[||] ~tss:tw.tw_tss
        ~vals:(if tw.tw_put then [| value |] else [||])
        ~dels:tw.tw_dels
    in
    st.refs <- (c, rc) :: st.refs;
    c

  let apply st ts ?twin_cols op =
    let ncomps = Array.length (comps st) in
    match op with
    | D_put (k, p, v) ->
        incr ts;
        write st k (if st.pk_col then p else k) !ts (Entry.Put (V.of_int v))
    | D_del (k, p) ->
        incr ts;
        write st k (if st.pk_col then p else k) !ts Entry.Del
    | D_flush -> flush st
    | D_flush_shard s -> flush ~shard:(s mod T.mem_shards st.t) st
    | D_merge (a, b) when ncomps > 0 ->
        let a = a mod ncomps and b = b mod ncomps in
        merge st (min a b) (max a b)
    | D_invalid (c, pos) when ncomps > 0 ->
        let c = (comps st).(c mod ncomps) in
        let n = T.component_rows c in
        if n > 0 then T.invalidate c (pos mod n)
    | D_install (a, b) when ncomps > 0 ->
        let a = a mod ncomps and b = b mod ncomps in
        install st (min a b) (max a b)
    | D_rebuild i when ncomps > 0 -> rebuild st (i mod ncomps)
    | D_all_del ks ->
        flush st;
        List.iter
          (fun k ->
            incr ts;
            write st k k !ts Entry.Del)
          ks;
        flush st
    | D_twin when ncomps > 0 -> (
        match twin_cols with
        | Some f -> f st
        | None -> ())
    | D_merge _ | D_invalid _ | D_install _ | D_rebuild _ | D_twin -> ()

  (* ---- the model's answers ---- *)

  let expect_lookup st k =
    match Hashtbl.find_opt st.mem (k, k) with
    | Some (_, e) -> Entry.value e
    | None ->
        let rec go = function
          | [] -> None
          | c :: rest -> (
              let rc = rc_of st c in
              match Array.find_index (fun x -> x = k) rc.rk with
              | None -> go rest
              | Some i -> if T.row_valid c i then Entry.value rc.re.(i) else None)
        in
        go (Array.to_list (comps st))

  (* Reconciled rows as (key, pk, ts, value or [None] for anti-matter,
     source repairedTS). *)
  let expect_scan st ~respect =
    let kps = Hashtbl.create 16 in
    Hashtbl.iter (fun kp _ -> Hashtbl.replace kps kp ()) st.mem;
    Array.iter
      (fun c ->
        let rc = rc_of st c in
        Array.iteri (fun i k -> Hashtbl.replace kps (k, rc.rp.(i)) ()) rc.rk)
      (comps st);
    Hashtbl.fold (fun kp () acc -> kp :: acc) kps []
    |> List.sort compare
    |> List.filter_map (fun (k, p) ->
           match Hashtbl.find_opt st.mem (k, p) with
           | Some (ts, e) -> Some (k, p, ts, Entry.value e, 0)
           | None ->
               List.find_map
                 (fun c ->
                   let rc = rc_of st c in
                   let rec find i =
                     if i >= rows rc then None
                     else if
                       rc.rk.(i) = k && rc.rp.(i) = p
                       && ((not respect) || T.row_valid c i)
                     then
                       Some (k, p, rc.rt.(i), Entry.value rc.re.(i), c.T.repaired_ts)
                     else find (i + 1)
                   in
                   find 0)
                 (Array.to_list (comps st)))

  (* ---- the tree's answers ---- *)

  let fail fmt = QCheck2.Test.fail_reportf fmt

  let check_components st =
    Array.iteri
      (fun ci c ->
        let rc = rc_of st c in
        let n = rows rc in
        if T.component_rows c <> n then fail "component %d: %d rows, model %d" ci (T.component_rows c) n;
        let nput = Array.fold_left (fun a e -> if Entry.is_put e then a + 1 else a) 0 rc.re in
        let lv = Array.length c.T.vals in
        (* The layout: no [Put], no value column; one slot for physically
           equal values; no anti-matter, no bit column. *)
        if nput = 0 && lv <> 0 then fail "component %d: value column without a put" ci;
        if nput > 0 && not (lv = 1 || lv = n) then fail "component %d: %d value slots for %d rows" ci lv n;
        if (nput = n) <> (Bytes.length c.T.dels = 0) then fail "component %d: bit column vs anti-matter" ci;
        let puts = List.filter_map Entry.value (Array.to_list rc.re) in
        (match puts with
        | v :: rest when List.for_all (fun w -> w == v) rest && lv <> 1 ->
            fail "component %d: uniform values kept per row" ci
        | _ -> ());
        for i = 0 to n - 1 do
          let r = T.row_at c i in
          if r.T.key <> rc.rk.(i) || r.T.ts <> rc.rt.(i) then fail "component %d row %d: key or ts" ci i;
          if pk_of c i <> rc.rp.(i) then fail "component %d row %d: pk" ci i;
          (match (rc.re.(i), r.T.value) with
          | Entry.Put v, Some w when V.equal v w && V.equal v (T.value_at c i) && not (T.is_del c i) -> ()
          | Entry.Del, None when T.is_del c i ->
              (* The slot holds another row's value of this component. *)
              if lv = n && not (List.exists (fun v -> v == c.T.vals.(i)) puts) then
                fail "component %d row %d: anti-matter slot holds a foreign value" ci i
          | _ -> fail "component %d row %d: entry differs from the model" ci i)
        done)
      (comps st)

  let check_mem st =
    Hashtbl.iter
      (fun (k, p) (ts, e) ->
        match T.mem_find st.t k p with
        | Some e' when e' = e && T.mem_ts st.t = ts -> ()
        | _ -> fail "mem_find (%d, %d)" k p)
      st.mem

  let scan_rows ?filter ~views ~respect st =
    T.set_sorted_views st.t views;
    let out = ref [] in
    T.scan st.t
      { T.full_scan_spec with respect_bitmap = respect; filter }
      ~on_del:(fun k p ts ~src_repaired -> out := (k, p, ts, None, src_repaired) :: !out)
      ~f:(fun k p ts v ~src_repaired -> out := (k, p, ts, Some v, src_repaired) :: !out);
    T.set_sorted_views st.t true;
    List.rev !out

  let same_rows a b =
    List.length a = List.length b
    && List.for_all2
         (fun (k, p, ts, v, s) (k', p', ts', v', s') ->
           k = k' && p = p' && ts = ts' && s = s'
           && Option.equal V.equal v v')
         a b

  let check_reads ?filter st ~keys =
    check_mem st;
    check_components st;
    List.iter
      (fun respect ->
        let want = expect_scan st ~respect in
        List.iter
          (fun views ->
            if not (same_rows (scan_rows ~views ~respect st) want) then
              fail "scan (views %b, bitmaps %b)" views respect)
          [ false; true ])
      [ true; false ];
    (match filter with
    | Some (a, b, fkey) ->
        let want =
          List.filter
            (fun (_, _, _, v, _) ->
              match v with None -> true | Some v -> a <= fkey v && fkey v <= b)
            (expect_scan st ~respect:true)
        in
        List.iter
          (fun views ->
            if not (same_rows (scan_rows ~filter:(a, b) ~views ~respect:true st) want)
            then fail "filtered scan [%d, %d] (views %b)" a b views)
          [ false; true ]
    | None -> ());
    (* merge_components: every row of every component, in row order,
       equal rows newest first. *)
    let cs = comps st in
    let want =
      List.concat
        (List.mapi
           (fun s c ->
             let rc = rc_of st c in
             List.init (rows rc) (fun i ->
                 ((rc.rk.(i), rc.rp.(i), s), (rc.rt.(i), Entry.is_del rc.re.(i)))))
           (Array.to_list cs))
      |> List.sort compare
    in
    let m = T.merge_components st.t cs in
    let got = ref [] in
    let top = ref (Lsm_util.Kmerge.top m.T.cm_merge) in
    while !top >= 0 do
      let s = !top and i = m.T.cm_heads.(!top) in
      top := Lsm_util.Kmerge.advance m.T.cm_merge;
      let c = cs.(s) in
      got :=
        (((Lsm_btree.Disk_btree.keys c.T.tree).(i), pk_of c i, s), (c.T.tss.(i), T.is_del c i))
        :: !got
    done;
    if List.rev !got <> want then fail "merge_components";
    if not st.pk_col then begin
      let expected = List.map (fun k -> (k, expect_lookup st k)) keys in
      List.iter
        (fun (k, v) ->
          if not (Option.equal V.equal (T.lookup_one st.t k) v) then fail "lookup_one %d" k)
        expected;
      List.iter
        (fun opts ->
          T.lookup_batch st.t opts (T.plain_keys (Array.of_list keys)) ~emit:(fun k v ->
              if not (Option.equal V.equal v (List.assoc k expected)) then
                fail "lookup_batch %d" k))
        [
          T.default_lookup_opts;
          { T.default_lookup_opts with batched = false; stateful = false };
          { T.default_lookup_opts with batch_bytes = 100 };
        ]
    end;
    true
end

module Int_model = Values_model (struct
  include Lsm_util.Keys.Int_value

  let of_int v = v mod 4
  let equal = Int.equal
end)

module Unit_model = Values_model (struct
  include Lsm_util.Keys.Unit_value

  let of_int _ = ()
  let equal () () = true
end)

let dop_gen =
  QCheck2.Gen.(
    let key = int_range 0 12 and pk = int_range 0 8 in
    frequency
      [
        (10, map3 (fun k p v -> D_put (k, p, v)) key pk (int_range 0 7));
        (4, map2 (fun k p -> D_del (k, p)) key pk);
        (2, return D_flush);
        (1, map (fun s -> D_flush_shard s) (int_range 0 2));
        (1, map2 (fun a b -> D_merge (a, b)) (int_range 0 5) (int_range 0 5));
        (2, map2 (fun c p -> D_invalid (c, p)) (int_range 0 5) (int_range 0 12));
        (1, map2 (fun a b -> D_install (a, b)) (int_range 0 5) (int_range 0 5));
        (1, map (fun i -> D_rebuild i) (int_range 0 5));
        (1, map (fun ks -> D_all_del ks) (list_size (int_range 1 4) key));
        (1, return D_twin);
      ])

let prop_values_match_entry_model =
  qtest ~count:250 "values by position = entry-array model (every read path)"
    QCheck2.Gen.(
      triple (list_size (int_range 0 120) dop_gen) (int_range 1 3)
        (pair (int_range 0 4) (int_range 0 3)))
    (fun (ops, shards, (a, w)) ->
      let i = Int_model.create ~filter_of:Fun.id ~layout:Lsm_tree.Pk ~shards () in
      let u = Unit_model.create ~layout:Lsm_tree.Pk ~shards () in
      let s = Unit_model.create ~layout:Lsm_tree.Sk_pk ~shards () in
      let ti = ref 0 and tu = ref 0 and tsk = ref 0 in
      List.iter
        (fun op ->
          let tw = ref None in
          Int_model.apply i ti op
            ~twin_cols:(fun st -> tw := Some (Int_model.twin st));
          Unit_model.apply u tu op ~twin_cols:(fun st ->
              match !tw with
              | Some cols ->
                  let c = Unit_model.twin_install st cols ~value:() in
                  let ic = (Int_model.comps i).(0) in
                  (* The twin shares the int tree's key, timestamp and
                     anti-matter columns. *)
                  if
                    not
                      (Lsm_btree.Disk_btree.keys c.Unit_model.T.tree
                       == Lsm_btree.Disk_btree.keys ic.Int_model.T.tree
                      && c.Unit_model.T.tss == ic.Int_model.T.tss
                      && c.Unit_model.T.dels == ic.Int_model.T.dels)
                  then QCheck2.Test.fail_report "twin does not share the columns"
              | None -> ());
          Unit_model.apply s tsk op)
        ops;
      let keys = List.init 14 Fun.id in
      Int_model.check_reads i ~keys ~filter:(a, a + w, Fun.id)
      && Unit_model.check_reads u ~keys
      && Unit_model.check_reads s ~keys)

(* The lazy filter-key column of a range-filtered component is built from
   the component's own value and anti-matter columns: before the first
   filtered scan forces it, a flushed, merged or installed component
   reaches nothing beyond its columns, its Bloom filter and a few words
   of record, thunk and provenance.  A thunk that kept the entries the
   component was built from reached a second value column, 3 words a row
   here. *)
let test_fkeys_keep_no_second_column () =
  let t = mk_tree ~filter_of:Fun.id (mk_env ()) in
  let gen g =
    for i = 0 to 4_999 do
      L.write t ~key:((2 * i) + g) ~pk:((2 * i) + g) ~ts:((g * 5_000) + i + 1)
        (if i mod 9 = 0 then Entry.Del else Entry.Put (i + 1_000))
    done;
    L.flush t
  in
  let check name c =
    let own =
      Obj.reachable_words
        (Obj.repr (c.L.tree, c.L.tss, c.L.vals, c.L.dels, c.L.bloom, c.L.prov))
    in
    let all = Obj.reachable_words (Obj.repr c) in
    Printf.printf "%s: %d words beyond the columns\n" name (all - own);
    Alcotest.(check bool) (name ^ ": column not built yet") false (Lazy.is_val c.L.fkeys);
    if all - own > 64 then
      Alcotest.failf "%s: %d words beyond the columns (ceiling 64)" name (all - own);
    ignore (Lazy.force c.L.fkeys);
    Alcotest.(check bool) (name ^ ": the forced column is the filter keys") true
      (Obj.reachable_words (Obj.repr c) - all >= L.component_rows c - 16)
  in
  gen 0;
  check "flushed" (L.components t).(0);
  gen 1;
  check "merged" (L.merge t ~first:0 ~last:1);
  gen 0;
  let c = (L.components t).(0) in
  let n = L.component_rows c in
  let b = L.columns n in
  for i = 0 to n - 1 do
    L.copy_row b i c i
  done;
  let vals, dels = L.built b in
  check "installed"
    (L.install t ~inputs:[| c |]
       ~keys:(Array.copy (Lsm_btree.Disk_btree.keys c.L.tree))
       ~pks:[||] ~tss:(Array.copy c.L.tss) ~vals ~dels)

let () =
  Alcotest.run "lsm_tree"
    [
      ( "basic",
        [
          Alcotest.test_case "write + mem lookup" `Quick test_write_and_mem_lookup;
          Alcotest.test_case "same-key replace" `Quick test_same_key_replaces_in_mem;
          Alcotest.test_case "flush" `Quick test_flush_creates_component;
          Alcotest.test_case "flush empty" `Quick test_flush_empty_noop;
          Alcotest.test_case "newest wins" `Quick test_newest_component_wins;
          Alcotest.test_case "anti-matter" `Quick test_anti_matter_lookup;
        ] );
      ( "merge",
        [
          Alcotest.test_case "reconciles" `Quick test_merge_reconciles;
          Alcotest.test_case "drops del at bottom" `Quick
            test_merge_drops_del_at_bottom;
          Alcotest.test_case "keeps del above bottom" `Quick
            test_merge_keeps_del_above_bottom;
          Alcotest.test_case "respects bitmap" `Quick test_merge_respects_bitmap;
        ] );
      ( "model",
        [ prop_lsm_matches_model; prop_batched_lookup_matches_naive ] );
      ( "scan",
        [
          Alcotest.test_case "range bounds" `Quick test_scan_range_bounds;
          Alcotest.test_case "non-reconciling" `Quick
            test_scan_non_reconciling_per_component;
          Alcotest.test_case "subset" `Quick test_scan_only_subset;
          Alcotest.test_case "memory scan allocates no major block" `Quick
            test_mem_scan_no_major_alloc;
          Alcotest.test_case "reconciling scans: minor words per row" `Quick
            test_scan_alloc_budgets;
          Alcotest.test_case "merge: minor words per row" `Quick
            test_merge_alloc_budget;
          Alcotest.test_case "lookup_one: minor words per lookup" `Quick
            test_lookup_alloc_budget;
          Alcotest.test_case "write: minor words per write" `Quick
            test_write_alloc_budget;
          Alcotest.test_case "component: words per stored row" `Quick
            test_component_footprint;
          prop_scan_matches_heap;
          prop_filtered_scan_matches_post_filter;
          Alcotest.test_case "filter needs range filters" `Quick
            test_filter_needs_range_filters;
        ] );
      ("probe", [ prop_probe_matches_loops ]);
      ( "layout",
        [
          Alcotest.test_case "row hash and shard pinned" `Quick
            test_row_hash_pinned;
          prop_secondary_layout_matches_model;
        ] );
      ( "filter",
        [
          Alcotest.test_case "from puts" `Quick test_range_filter_from_puts;
          Alcotest.test_case "widen covers old" `Quick
            test_widen_filter_covers_old_values;
          Alcotest.test_case "merge recompute" `Quick
            test_merge_filter_union_vs_recompute;
          Alcotest.test_case "disk column" `Quick test_disk_filter_column;
          Alcotest.test_case "lazy column keeps no second value column" `Quick
            test_fkeys_keep_no_second_column;
        ] );
      ("values", [ prop_values_match_entry_model ]);
      ( "policy",
        [
          Alcotest.test_case "tiering trigger" `Quick test_tiering_policy_trigger;
          Alcotest.test_case "max mergeable" `Quick test_tiering_max_mergeable;
          Alcotest.test_case "leveling" `Quick test_leveling_policy;
          Alcotest.test_case "lazy leveling" `Quick test_lazy_leveling_policy;
          Alcotest.test_case "pick_merge" `Quick test_pick_merge_applies_policy;
        ] );
      ( "repair",
        [
          Alcotest.test_case "repairedTS min" `Quick test_repaired_ts_propagates_min;
        ] );
    ]
