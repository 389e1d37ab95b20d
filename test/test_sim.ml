(* Tests for Lsm_sim: devices, buffer cache, environment cost accounting,
   and phantom files. *)

open Lsm_sim

let mk_env ?(cache_bytes = 4 * Device.hdd.Device.page_size) () =
  Env.create ~cache_bytes Device.hdd

(* ------------------------------------------------------------------ *)
(* Buffer cache *)

let test_cache_hit_miss () =
  let c = Buffer_cache.create ~capacity_pages:2 in
  Alcotest.(check bool) "miss" false (Buffer_cache.touch c ~file:1 ~page:0);
  Buffer_cache.insert c ~file:1 ~page:0;
  Alcotest.(check bool) "hit" true (Buffer_cache.touch c ~file:1 ~page:0);
  Alcotest.(check int) "size" 1 (Buffer_cache.size c)

let test_cache_lru_eviction () =
  let c = Buffer_cache.create ~capacity_pages:2 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Buffer_cache.insert c ~file:1 ~page:1;
  (* Touch page 0 so page 1 becomes LRU. *)
  ignore (Buffer_cache.touch c ~file:1 ~page:0);
  Buffer_cache.insert c ~file:1 ~page:2;
  Alcotest.(check bool) "page 0 kept" true (Buffer_cache.mem c ~file:1 ~page:0);
  Alcotest.(check bool) "page 1 evicted" false
    (Buffer_cache.mem c ~file:1 ~page:1);
  Alcotest.(check bool) "page 2 resident" true
    (Buffer_cache.mem c ~file:1 ~page:2);
  Alcotest.(check int) "at capacity" 2 (Buffer_cache.size c)

let test_cache_drop_file () =
  let c = Buffer_cache.create ~capacity_pages:10 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Buffer_cache.insert c ~file:2 ~page:0;
  Buffer_cache.insert c ~file:1 ~page:5;
  Buffer_cache.drop_file c 1;
  Alcotest.(check int) "only file 2 left" 1 (Buffer_cache.size c);
  Alcotest.(check bool) "file2 resident" true
    (Buffer_cache.mem c ~file:2 ~page:0)

let test_cache_zero_capacity () =
  let c = Buffer_cache.create ~capacity_pages:0 in
  Buffer_cache.insert c ~file:1 ~page:0;
  Alcotest.(check bool) "never caches" false
    (Buffer_cache.mem c ~file:1 ~page:0)

let test_cache_lru_chain_stress () =
  (* Insert far more than capacity; size must stay at capacity and the
     resident set must be the most recent inserts. *)
  let cap = 8 in
  let c = Buffer_cache.create ~capacity_pages:cap in
  for p = 0 to 99 do
    Buffer_cache.insert c ~file:0 ~page:p
  done;
  Alcotest.(check int) "size at cap" cap (Buffer_cache.size c);
  for p = 100 - cap to 99 do
    Alcotest.(check bool) "recent resident" true
      (Buffer_cache.mem c ~file:0 ~page:p)
  done;
  Alcotest.(check bool) "old gone" false (Buffer_cache.mem c ~file:0 ~page:0)

(* A reference LRU model — MRU-first association list over the same op
   alphabet — run in lockstep with the real cache.  After every op the
   sizes must match and every key must agree on residency; [Mem] probes
   are interleaved to prove residency checks never perturb recency. *)
type cache_op =
  | Insert of int * int
  | Touch of int * int
  | Mem of int * int
  | Remove of int * int
  | Drop_file of int
  | Clear

let cache_op_gen =
  QCheck2.Gen.(
    let key = pair (int_range 0 2) (int_range 0 5) in
    frequency
      [
        (6, map (fun (f, p) -> Insert (f, p)) key);
        (3, map (fun (f, p) -> Touch (f, p)) key);
        (2, map (fun (f, p) -> Mem (f, p)) key);
        (2, map (fun (f, p) -> Remove (f, p)) key);
        (1, map (fun f -> Drop_file f) (int_range 0 2));
        (1, return Clear);
      ])

let model_insert cap model k =
  if cap = 0 then model
  else if List.mem k model then k :: List.filter (( <> ) k) model
  else
    let model = if List.length model >= cap then List.filteri (fun i _ -> i < List.length model - 1) model else model in
    k :: model

let prop_cache_matches_model =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:500 ~name:"lru matches reference model"
       Gen.(pair (int_range 1 4) (list_size (int_range 0 60) cache_op_gen))
       (fun (cap, ops) ->
         let c = Buffer_cache.create ~capacity_pages:cap in
         let model = ref [] in
         let agree () =
           Buffer_cache.size c = List.length !model
           && List.for_all
                (fun f ->
                  List.for_all
                    (fun p ->
                      Buffer_cache.mem c ~file:f ~page:p
                      = List.mem (f, p) !model)
                    [ 0; 1; 2; 3; 4; 5 ])
                [ 0; 1; 2 ]
         in
         List.for_all
           (fun op ->
             (match op with
             | Insert (f, p) ->
                 Buffer_cache.insert c ~file:f ~page:p;
                 model := model_insert cap !model (f, p)
             | Touch (f, p) ->
                 let hit = Buffer_cache.touch c ~file:f ~page:p in
                 let mhit = List.mem (f, p) !model in
                 if mhit then
                   model := (f, p) :: List.filter (( <> ) (f, p)) !model;
                 if hit <> mhit then failwith "touch hit mismatch"
             | Mem (f, p) ->
                 (* must not touch recency — checked by later evictions *)
                 ignore (Buffer_cache.mem c ~file:f ~page:p)
             | Remove (f, p) ->
                 Buffer_cache.remove c ~file:f ~page:p;
                 model := List.filter (( <> ) (f, p)) !model
             | Drop_file f ->
                 Buffer_cache.drop_file c f;
                 model := List.filter (fun (f', _) -> f' <> f) !model
             | Clear ->
                 Buffer_cache.clear c;
                 model := []);
             agree ())
           ops))

(* The same model over wide keys: ~200 distinct (file, page) pairs whose
   file ids span 2^30, capacities up to 64 (tables of at most 128
   buckets, so probe runs collide and wrap past the last bucket), and
   long op sequences, so backward-shift deletion runs across the wrap
   point many times per case.  The slot arrays grow, and [Clear] shrinks
   them, at capacities the narrow model never reaches.  After every op
   the sizes agree and every model key is resident — together, the same
   resident set. *)
let wide_files = 20
let wide_pages = 10

let wide_op_gen =
  QCheck2.Gen.(
    let key = int_range 0 ((wide_files * wide_pages) - 1) in
    frequency
      [
        (6, map (fun k -> Insert (k / wide_pages, k mod wide_pages)) key);
        (3, map (fun k -> Touch (k / wide_pages, k mod wide_pages)) key);
        (2, map (fun k -> Mem (k / wide_pages, k mod wide_pages)) key);
        (3, map (fun k -> Remove (k / wide_pages, k mod wide_pages)) key);
        (1, map (fun f -> Drop_file f) (int_range 0 (wide_files - 1)));
        (1, return Clear);
      ])

let prop_cache_wide_keys =
  let open QCheck2 in
  QCheck_alcotest.to_alcotest
    (Test.make ~count:60 ~name:"lru matches reference model on wide keys"
       Gen.(
         triple (int_range 0 64)
           (array_repeat wide_files (int_range 0 (1 lsl 30)))
           (int_range 500 3000 >>= fun n -> list_repeat n wide_op_gen))
       (fun (cap, files, ops) ->
         let c = Buffer_cache.create ~capacity_pages:cap in
         let model = ref [] in
         let key f p = (files.(f), p) in
         let agree (f, p) =
           Buffer_cache.size c = List.length !model
           && Buffer_cache.mem c ~file:f ~page:p = List.mem (f, p) !model
           && List.for_all
                (fun (f, p) -> Buffer_cache.mem c ~file:f ~page:p)
                !model
         in
         List.for_all
           (fun op ->
             match op with
             | Insert (f, p) ->
                 let ((f, p) as k) = key f p in
                 Buffer_cache.insert c ~file:f ~page:p;
                 model := model_insert cap !model k;
                 agree k
             | Touch (f, p) ->
                 let ((f, p) as k) = key f p in
                 let hit = Buffer_cache.touch c ~file:f ~page:p in
                 let mhit = List.mem k !model in
                 if mhit then model := k :: List.filter (( <> ) k) !model;
                 hit = mhit && agree k
             | Mem (f, p) ->
                 let ((f, p) as k) = key f p in
                 ignore (Buffer_cache.mem c ~file:f ~page:p);
                 agree k
             | Remove (f, p) ->
                 let ((f, p) as k) = key f p in
                 Buffer_cache.remove c ~file:f ~page:p;
                 model := List.filter (( <> ) k) !model;
                 agree k
             | Drop_file f ->
                 let file = files.(f) in
                 Buffer_cache.drop_file c file;
                 model := List.filter (fun (f', _) -> f' <> file) !model;
                 agree (file, 0)
             | Clear ->
                 Buffer_cache.clear c;
                 model := [];
                 agree (files.(0), 0))
           ops))

(* After warm-up a page access or a cost charge allocates nothing: the
   cache is flat int arrays and the clock an unboxed float.  10k reads
   over 128 pages through a 64-page cache (hits, misses and evictions)
   plus 10k comparison charges stay under 64 minor words in total. *)
let test_access_allocates_nothing () =
  let env = mk_env ~cache_bytes:(64 * Device.hdd.Device.page_size) () in
  let f = Sfile.create env in
  Sfile.append_pages env f 128;
  let file = Sfile.id f in
  let rs = Random.State.make [| 19 |] in
  let pages = Array.init 10_000 (fun _ -> Random.State.int rs 128) in
  Array.iter (fun page -> Env.read_page env ~file ~page) pages;
  Env.charge_comparisons env 1;
  Env.reset_measurement env;
  let w0 = Gc.minor_words () in
  for i = 0 to Array.length pages - 1 do
    Env.read_page env ~file ~page:pages.(i)
  done;
  for _ = 1 to 10_000 do
    Env.charge_comparisons env 1
  done;
  let words = Gc.minor_words () -. w0 in
  let st = Env.stats env in
  Alcotest.(check bool) "hits" true (st.Io_stats.cache_hits > 1000);
  Alcotest.(check bool) "misses" true (st.Io_stats.cache_misses > 1000);
  Alcotest.(check int) "cache full" 64 (Buffer_cache.size (Env.cache env));
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words < 64" words)
    true (words < 64.0)

(* ------------------------------------------------------------------ *)
(* Env cost accounting *)

let test_sequential_cheaper_than_random () =
  let env1 = mk_env ~cache_bytes:0 () in
  let f1 = Sfile.create env1 in
  Sfile.append_pages env1 f1 100;
  let t0 = Env.now_us env1 in
  Sfile.read_range env1 f1 ~first:0 ~count:50;
  let seq_cost = Env.now_us env1 -. t0 in
  let env2 = mk_env ~cache_bytes:0 () in
  let f2 = Sfile.create env2 in
  Sfile.append_pages env2 f2 100;
  let t0 = Env.now_us env2 in
  for i = 0 to 24 do
    Sfile.read_page env2 f2 (i * 4)
  done;
  let rand_cost = Env.now_us env2 -. t0 in
  (* 50 sequential pages vs 25 random pages: random still costs more. *)
  Alcotest.(check bool)
    (Printf.sprintf "random dearer (%.0f > %.0f)" rand_cost seq_cost)
    true (rand_cost > seq_cost)

let test_cache_hit_is_cheap () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 1;
  (* Written pages are resident; the read is a hit. *)
  let t0 = Env.now_us env in
  Sfile.read_page env f 0;
  let hit_cost = Env.now_us env -. t0 in
  Alcotest.(check bool) "hit cheap" true (hit_cost < 1.0);
  Alcotest.(check int) "hit counted" 1 (Env.stats env).Io_stats.cache_hits

let test_read_miss_counted () =
  let env = mk_env ~cache_bytes:0 () in
  let f = Sfile.create env in
  Sfile.append_pages env f 10;
  Sfile.read_page env f 3;
  let st = Env.stats env in
  Alcotest.(check int) "one read" 1 st.Io_stats.pages_read;
  Alcotest.(check int) "random" 1 st.Io_stats.rand_reads;
  Sfile.read_page env f 4;
  Alcotest.(check int) "sequential follow-on" 1 (Env.stats env).Io_stats.seq_reads

let test_interleaved_files_are_random () =
  let env = mk_env ~cache_bytes:0 () in
  let a = Sfile.create env and b = Sfile.create env in
  Sfile.append_pages env a 10;
  Sfile.append_pages env b 10;
  Env.reset_measurement env;
  (* Alternate between files: every access repositions. *)
  for i = 0 to 4 do
    Sfile.read_page env a i;
    Sfile.read_page env b i
  done;
  let st = Env.stats env in
  Alcotest.(check int) "all random" 10 st.Io_stats.rand_reads

let test_write_cost_and_caching () =
  let env = mk_env ~cache_bytes:(100 * Device.hdd.Device.page_size) () in
  let f = Sfile.create env in
  let t0 = Env.now_us env in
  Sfile.append_pages env f 10;
  let cost = Env.now_us env -. t0 in
  let expect =
    Device.hdd.Device.seek_us +. (10.0 *. Device.hdd.Device.write_us_per_page)
  in
  Alcotest.(check (float 0.01)) "write cost" expect cost;
  Alcotest.(check int) "pages" 10 (Sfile.npages f);
  Env.reset_measurement env;
  Sfile.read_range env f ~first:0 ~count:10;
  Alcotest.(check int) "all hits" 10 (Env.stats env).Io_stats.cache_hits

let test_charges () =
  let env = mk_env () in
  let t0 = Env.now_us env in
  Env.charge_comparisons env 1000;
  Alcotest.(check bool) "cmp advances" true (Env.now_us env > t0);
  Alcotest.(check int) "counted" 1000 (Env.stats env).Io_stats.comparisons;
  let t1 = Env.now_us env in
  Env.charge_cache_lines env 10;
  Env.charge_hashes env 10;
  Env.charge_entry_visits env 10;
  Alcotest.(check bool) "cpu advances" true (Env.now_us env > t1)

let test_sfile_delete () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 5;
  Sfile.delete env f;
  Alcotest.check_raises "read after delete"
    (Invalid_argument "Sfile.read_page: file 0 deleted") (fun () ->
      Sfile.read_page env f 0)

let test_sfile_bounds () =
  let env = mk_env () in
  let f = Sfile.create env in
  Sfile.append_pages env f 2;
  Alcotest.check_raises "oob"
    (Invalid_argument "Sfile.read_page: page 2 outside file of 2 pages")
    (fun () -> Sfile.read_page env f 2)

let test_ssd_cheaper_random () =
  (* The SSD profile's random reads are orders of magnitude cheaper. *)
  let run device =
    let env = Env.create ~cache_bytes:0 device in
    let f = Sfile.create env in
    Sfile.append_pages env f 100;
    let t0 = Env.now_us env in
    for i = 0 to 19 do
      Sfile.read_page env f (i * 5)
    done;
    Env.now_us env -. t0
  in
  let hdd = run Device.hdd and ssd = run Device.ssd in
  Alcotest.(check bool)
    (Printf.sprintf "ssd %.0fus << hdd %.0fus" ssd hdd)
    true
    (ssd *. 10.0 < hdd)

let test_scan_all () =
  let env = mk_env ~cache_bytes:0 () in
  let f = Sfile.create env in
  Sfile.append_pages env f 20;
  Env.reset_measurement env;
  Sfile.scan_all env f;
  let st = Env.stats env in
  Alcotest.(check int) "reads" 20 st.Io_stats.pages_read;
  Alcotest.(check int) "one seek" 1 st.Io_stats.rand_reads;
  Alcotest.(check int) "rest sequential" 19 st.Io_stats.seq_reads

let () =
  Alcotest.run "lsm_sim"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "drop file" `Quick test_cache_drop_file;
          Alcotest.test_case "zero capacity" `Quick test_cache_zero_capacity;
          Alcotest.test_case "lru stress" `Quick test_cache_lru_chain_stress;
          prop_cache_matches_model;
          prop_cache_wide_keys;
        ] );
      ( "env",
        [
          Alcotest.test_case "seq cheaper than random" `Quick
            test_sequential_cheaper_than_random;
          Alcotest.test_case "cache hit cheap" `Quick test_cache_hit_is_cheap;
          Alcotest.test_case "access allocates nothing" `Quick
            test_access_allocates_nothing;
          Alcotest.test_case "miss counting" `Quick test_read_miss_counted;
          Alcotest.test_case "interleaving randomizes" `Quick
            test_interleaved_files_are_random;
          Alcotest.test_case "write cost + caching" `Quick
            test_write_cost_and_caching;
          Alcotest.test_case "cpu charges" `Quick test_charges;
          Alcotest.test_case "ssd cheap random" `Quick test_ssd_cheaper_random;
        ] );
      ( "sfile",
        [
          Alcotest.test_case "delete" `Quick test_sfile_delete;
          Alcotest.test_case "bounds" `Quick test_sfile_bounds;
          Alcotest.test_case "scan_all" `Quick test_scan_all;
        ] );
    ]
