(* Unit tests for features added beyond the first pass: growable arrays,
   spill-accounted sorting, memory-B+-tree removal, anti-matter-emitting
   scans, the tombstone drop barrier, component replacement, flush
   provenance queries, and memory-write rollback. *)

module Vec = Lsm_util.Vec
module Mbt = Lsm_btree.Mem_btree
module L = Lsm_tree.Make (Lsm_util.Keys.Int_value)
module Entry = Lsm_tree.Entry
module IntMap = Map.Make (Int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk_env () =
  let device =
    Lsm_sim.Device.custom ~name:"test" ~page_size:256 ~seek_us:1000.0
      ~read_us_per_page:100.0 ~write_us_per_page:100.0
  in
  Lsm_sim.Env.create ~cache_bytes:(256 * 64) device

let mk_tree env =
  L.create env
    (Lsm_tree.Config.make ~bloom:(Some Lsm_tree.Config.default_bloom) "t")

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  for i = 0 to 99 do
    Vec.push v (i * 2)
  done;
  Alcotest.(check int) "len" 100 (Vec.length v);
  Alcotest.(check int) "get" 84 (Vec.get v 42);
  Alcotest.(check int) "to_array" 100 (Array.length (Vec.to_array v));
  Alcotest.check_raises "oob" (Invalid_argument "Vec.get: out of bounds")
    (fun () -> ignore (Vec.get v 100))

let test_vec_binary_search () =
  let v = Vec.create () in
  for i = 0 to 49 do
    Vec.push v (i * 3)
  done;
  let cost = ref 0 in
  Alcotest.(check (option int)) "hit" (Some 7)
    (Vec.binary_search ~cost v 21);
  Alcotest.(check (option int)) "miss" None
    (Vec.binary_search ~cost v 22)

let prop_vec_matches_list =
  qtest "vec = list model"
    QCheck2.Gen.(list_size (int_range 0 200) int)
    (fun l ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      Vec.to_array v = Array.of_list l
      && Vec.length v = List.length l)

(* ------------------------------------------------------------------ *)
(* Spill_sort *)

let test_spill_sort_in_memory () =
  let env = mk_env () in
  let a = [| 5; 2; 9; 1 |] in
  let g = Lsm_sim.Spill_sort.grant ~memory_bytes:1024 ~row_bytes:8 in
  Lsm_sim.Spill_sort.sort env g ~cmp:compare a;
  Alcotest.(check (array int)) "sorted" [| 1; 2; 5; 9 |] a;
  Alcotest.(check int) "no spill io" 0
    (Lsm_sim.Env.stats env).Lsm_sim.Io_stats.pages_written

let test_spill_sort_spills () =
  let env = mk_env () in
  let rng = Lsm_util.Rng.create 3 in
  let a = Array.init 1000 (fun _ -> Lsm_util.Rng.int rng 100000) in
  let g = Lsm_sim.Spill_sort.grant ~memory_bytes:256 ~row_bytes:8 in
  Lsm_sim.Spill_sort.sort env g ~cmp:compare a;
  Alcotest.(check bool) "sorted" true
    (Lsm_util.Sorter.is_sorted ~cmp:compare a);
  let st = Lsm_sim.Env.stats env in
  Alcotest.(check bool) "spill written" true (st.Lsm_sim.Io_stats.pages_written > 0);
  Alcotest.(check bool) "spill read back" true (st.Lsm_sim.Io_stats.pages_read > 0
                                                || st.Lsm_sim.Io_stats.cache_hits > 0)

(* ------------------------------------------------------------------ *)
(* Mem_btree.remove *)

let prop_mbt_remove_matches_map =
  qtest ~count:150 "mem btree with removals = Map model"
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (pair (int_range 0 60) (frequency [ (3, return `Put); (1, return `Remove) ])))
    (fun ops ->
      let t = Mbt.create () in
      let m = ref IntMap.empty in
      List.iter
        (fun (k, op) ->
          match op with
          | `Put ->
              ignore (Mbt.put t k k ~ts:(k * 5) ~fkey:0 (k * 3));
              m := IntMap.add k (k * 3) !m
          | `Remove ->
              let got = Mbt.remove t k k in
              let want = IntMap.find_opt k !m in
              m := IntMap.remove k !m;
              assert (got = want))
        ops;
      Mbt.length t = IntMap.cardinal !m
      && IntMap.for_all (fun k v -> Mbt.find t k k = Some v) !m
      && Mbt.to_sorted_array t
         = Array.of_list
             (List.map (fun (k, v) -> (k, k, k * 5, v)) (IntMap.bindings !m)))

(* ------------------------------------------------------------------ *)
(* on_del scans *)

let test_scan_on_del () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:3 Entry.Del;
  let plain = ref [] and with_del = ref [] in
  L.scan t L.full_scan_spec ~f:(fun key _ _ value ~src_repaired:_ ->
      plain := (key, Entry.Put value) :: !plain);
  L.scan t L.full_scan_spec
    ~on_del:(fun key _ _ ~src_repaired:_ -> with_del := (key, Entry.Del) :: !with_del)
    ~f:(fun key _ _ value ~src_repaired:_ ->
      with_del := (key, Entry.Put value) :: !with_del);
  Alcotest.(check int) "plain hides deleted" 1 (List.length !plain);
  Alcotest.(check int) "on_del shows tombstone" 2 (List.length !with_del);
  Alcotest.(check bool) "tombstone present" true
    (List.mem (1, Entry.Del) !with_del)

(* ------------------------------------------------------------------ *)
(* Tombstone drop barrier *)

let test_tombstone_barrier () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:1 ~pk:1 ~ts:2 Entry.Del;
  L.flush t;
  (* Barrier below the tombstone's ts: the bottom merge must keep it. *)
  L.set_tombstone_drop_ts t 1;
  let c = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "tombstone retained" 1 (L.component_rows c);
  (* Raise the barrier; the next bottom merge may drop it... but a single
     component cannot merge alone, so add another and re-merge. *)
  L.set_tombstone_drop_ts t max_int;
  L.write t ~key:2 ~pk:2 ~ts:3 (Entry.Put 20);
  L.flush t;
  let c2 = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "tombstone dropped once safe" 1 (L.component_rows c2)

(* ------------------------------------------------------------------ *)
(* install *)

let test_build_and_replace () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.flush t;
  let inputs = L.components t in
  L.write t ~key:3 ~pk:3 ~ts:3 (Entry.Put 30);
  L.flush t;
  let keys = [| 1; 2 |] and tss = [| 1; 2 |] in
  let vals = [| 11; 20 |] and dels = Bytes.empty in
  (* The inputs are found by identity behind the component flushed since. *)
  let c = L.install t ~inputs ~keys ~pks:[||] ~tss ~vals ~dels in
  Alcotest.(check int) "two components" 2 (L.component_count t);
  Alcotest.(check bool) "installed oldest" true ((L.components t).(1) == c);
  Alcotest.(check (pair int int)) "id spans inputs" (1, 2) (L.component_id c);
  Alcotest.(check int) "provenance of both flushes" 2 (List.length c.L.prov);
  Alcotest.(check (option int)) "replacement visible" (Some 11) (L.lookup_one t 1);
  Alcotest.check_raises "inputs gone"
    (Invalid_argument "Lsm_tree.install: inputs are not a run of the tree")
    (fun () -> ignore (L.install t ~inputs ~keys ~pks:[||] ~tss ~vals ~dels))

(* ------------------------------------------------------------------ *)
(* Flush provenance: prov_run, id_run, durable_frontiers *)

let mk_sharded_tree env shards =
  L.create env (Lsm_tree.Config.make ~bloom:None ~shards "t")

(* The first key at or above [from] that routes to shard [s]. *)
let rec key_in t s ~from =
  if L.shard_of t from from = s then from else key_in t s ~from:(from + 1)

let test_provenance_queries () =
  let env = mk_env () in
  let t = mk_sharded_tree env 2 in
  let a = key_in t 0 ~from:0 and b = key_in t 1 ~from:0 in
  let a' = key_in t 0 ~from:(a + 1) in
  let a'' = key_in t 0 ~from:(a' + 1) in
  (* Shard 0 holds ts 1 and 3, shard 1 holds ts 2: flushing shard 0
     first gives x = (1,3), which nests the later shard-1 component
     y = (2,2) in its ID range. *)
  L.write t ~key:a ~pk:a ~ts:1 (Entry.Put 1);
  L.write t ~key:b ~pk:b ~ts:2 (Entry.Put 2);
  L.write t ~key:a' ~pk:a' ~ts:3 (Entry.Put 3);
  L.flush ~shard:0 t;
  L.write t ~key:a'' ~pk:a'' ~ts:4 (Entry.Put 4);
  L.flush ~shard:1 t;
  L.flush ~shard:0 t;
  let c = L.components t in
  let z = c.(0) and y = c.(1) and x = c.(2) in
  Alcotest.(check (list (pair int int)))
    "ids, newest first" [ (4, 4); (2, 2); (1, 3) ]
    (Array.to_list (Array.map L.component_id c));
  Array.iter
    (fun c -> Alcotest.(check int) "one origin per flush" 1 (List.length c.L.prov))
    c;
  let run = Alcotest.(option (pair int int)) in
  Alcotest.check run "id_run takes in the nested sibling" (Some (1, 2))
    (L.id_run t ~lo:1 ~hi:3);
  Alcotest.check run "prov_run finds only the true component" (Some (2, 2))
    (L.prov_run t x.L.prov);
  Alcotest.check run "prov_run: a two-component run" (Some (0, 1))
    (L.prov_run t (z.L.prov @ y.L.prov));
  Alcotest.check run "prov_run: not contiguous" None
    (L.prov_run t (z.L.prov @ x.L.prov));
  Alcotest.check run "prov_run: wrong order" None
    (L.prov_run t (y.L.prov @ z.L.prov));
  Alcotest.check run "id_run: nothing nests" None (L.id_run t ~lo:5 ~hi:9);
  Alcotest.(check (array int)) "frontiers per shard" [| 4; 2 |]
    (L.durable_frontiers t);
  (* A merge concatenates provenance, so the run is found again on a
     counterpart tree that has not merged. *)
  let m = L.merge t ~first:0 ~last:1 in
  Alcotest.(check int) "merged provenance" 2 (List.length m.L.prov);
  Alcotest.check run "merged component matches itself" (Some (0, 0))
    (L.prov_run t (z.L.prov @ y.L.prov));
  (* A whole-memory flush covers every shard. *)
  L.write t ~key:b ~pk:b ~ts:5 (Entry.Put 5);
  L.flush t;
  Alcotest.(check (array int)) "whole flush covers all" [| 5; 5 |]
    (L.durable_frontiers t)

type prov_op = Write of int | Flush | Flush_shard of int | Merge of int * int

let prop_frontiers_split_disk_and_memory =
  qtest ~count:200 "frontiers split disk rows from memory rows"
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 0 120)
           (frequency
              [
                (8, map (fun k -> Write k) (int_range 0 40));
                (1, return Flush);
                (3, map (fun s -> Flush_shard s) (int_range 0 3));
                (2, map2 (fun a b -> Merge (a, b)) (int_range 0 9) (int_range 0 9));
              ])))
    (fun (shards, ops) ->
      let t = mk_sharded_tree (mk_env ()) shards in
      let ts = ref 0 in
      List.iter
        (function
          | Write k ->
              incr ts;
              L.write t ~key:k ~pk:k ~ts:!ts (Entry.Put k)
          | Flush -> L.flush t
          | Flush_shard s -> L.flush ~shard:(s mod shards) t
          | Merge (a, b) ->
              let n = L.component_count t in
              if n > 0 then
                let a = a mod n and b = b mod n in
                ignore (L.merge t ~first:(min a b) ~last:(max a b)))
        ops;
      let f = L.durable_frontiers t in
      Array.for_all (fun c -> c.L.prov <> []) (L.components t)
      && Array.for_all
           (fun c ->
             Array.for_all2
               (fun key ts -> ts <= f.(L.shard_of t key key))
               (Lsm_btree.Disk_btree.keys c.L.tree) c.L.tss)
           (L.components t)
      && List.for_all
           (fun k ->
             match L.mem_find t k k with
             | Some _ -> L.mem_ts t > f.(L.shard_of t k k)
             | None -> true)
           (List.init 41 Fun.id))

(* ------------------------------------------------------------------ *)
(* mem_rollback / reset_memory *)

let test_mem_rollback () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  let bytes1 = L.mem_bytes t in
  L.write t ~key:1 ~pk:1 ~ts:2 (Entry.Put 99);
  (* Roll the second write back, restoring the first binding. *)
  L.mem_rollback t ~key:1 ~pk:1 ~prior:(Some (1, Entry.Put 10));
  (match L.mem_find t 1 1 with
  | Some e ->
      Alcotest.(check bool) "restored value" true (e = Entry.Put 10);
      Alcotest.(check int) "restored ts" 1 (L.mem_ts t)
  | None -> Alcotest.fail "binding lost");
  Alcotest.(check int) "bytes restored" bytes1 (L.mem_bytes t);
  (* Roll back a fresh insert (no prior): the key disappears. *)
  L.write t ~key:7 ~pk:7 ~ts:3 (Entry.Put 70);
  L.mem_rollback t ~key:7 ~pk:7 ~prior:None;
  Alcotest.(check bool) "insert rolled back" true (L.lookup_one t 7 = None)

let test_reset_memory () =
  let env = mk_env () in
  let t = mk_tree env in
  L.write t ~key:1 ~pk:1 ~ts:1 (Entry.Put 10);
  L.flush t;
  L.write t ~key:2 ~pk:2 ~ts:2 (Entry.Put 20);
  L.reset_memory t;
  Alcotest.(check int) "mem empty" 0 (L.mem_count t);
  Alcotest.(check bool) "disk survives" true (L.lookup_one t 1 <> None);
  Alcotest.(check bool) "mem write gone" true (L.lookup_one t 2 = None)

let () =
  Alcotest.run "lsm_features"
    [
      ( "vec",
        [
          Alcotest.test_case "basic" `Quick test_vec_basic;
          Alcotest.test_case "binary search" `Quick test_vec_binary_search;
          prop_vec_matches_list;
        ] );
      ( "spill-sort",
        [
          Alcotest.test_case "in memory" `Quick test_spill_sort_in_memory;
          Alcotest.test_case "spills" `Quick test_spill_sort_spills;
        ] );
      ("mbt-remove", [ prop_mbt_remove_matches_map ]);
      ("scan", [ Alcotest.test_case "on_del" `Quick test_scan_on_del ]);
      ( "tombstones",
        [ Alcotest.test_case "drop barrier" `Quick test_tombstone_barrier ] );
      ( "components",
        [ Alcotest.test_case "build + replace" `Quick test_build_and_replace ] );
      ( "provenance",
        [
          Alcotest.test_case "prov_run / id_run / frontiers" `Quick
            test_provenance_queries;
          prop_frontiers_split_disk_and_memory;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "mem_rollback" `Quick test_mem_rollback;
          Alcotest.test_case "reset_memory" `Quick test_reset_memory;
        ] );
    ]
