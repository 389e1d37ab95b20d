(* Tests for lib/serve: the global flush coordinator (budget invariant),
   open-loop arrival processes, and the driver's saturation/determinism
   contracts — the knee must be demonstrable: below capacity p99 stays
   bounded, above it queueing delay dominates. *)

module Budget = Lsm_serve.Budget
module Arrivals = Lsm_serve.Arrivals
module Driver = Lsm_serve.Driver

(* ------------------------------------------------------------------ *)
(* Budget coordinator, against synthetic partitions *)

let synthetic mems =
  let mem = Array.map ref mems in
  let flushed = ref [] in
  let parts =
    Array.mapi
      (fun i _ ->
        Budget.part
          ~mem_bytes:(fun () -> !(mem.(i)))
          ~flush:(fun () ->
            flushed := i :: !flushed;
            mem.(i) := 0)
          ())
      mem
  in
  (flushed, parts)

let test_budget_evicts_largest () =
  let flushed, parts = synthetic [| 10; 20; 5 |] in
  let b = Budget.create ~budget_bytes:30 parts in
  Budget.enforce b;
  Alcotest.(check (list int)) "largest memtable flushed" [ 1 ] !flushed;
  Alcotest.(check int) "total back under budget" 15 (Budget.total b);
  Alcotest.(check int) "one eviction" 1 (Budget.evictions b);
  Alcotest.(check int) "pre-enforcement peak" 35 (Budget.peak_pre_bytes b);
  Alcotest.(check int) "post-enforcement peak" 15 (Budget.peak_bytes b);
  (* Below budget enforce is a no-op. *)
  Budget.enforce b;
  Alcotest.(check int) "no spurious eviction" 1 (Budget.evictions b)

let test_budget_cascades () =
  let flushed, parts = synthetic [| 10; 20; 5 |] in
  let b = Budget.create ~budget_bytes:12 parts in
  Budget.enforce b;
  (* 35 >= 12: flush p1 (20) -> 15 >= 12: flush p0 (10) -> 5 < 12. *)
  Alcotest.(check (list int)) "argmax order" [ 1; 0 ] (List.rev !flushed);
  Alcotest.(check int) "two evictions" 2 (Budget.evictions b);
  Alcotest.(check bool) "invariant restored" true
    (Budget.total b < Budget.budget_bytes b)

let test_budget_ties_break_low () =
  let flushed, parts = synthetic [| 7; 7 |] in
  let b = Budget.create ~budget_bytes:10 parts in
  Budget.enforce b;
  Alcotest.(check (list int)) "lowest index wins the tie" [ 0 ] !flushed

let test_budget_validates () =
  let _, parts = synthetic [| 1 |] in
  Alcotest.check_raises "budget >= 1"
    (Invalid_argument "Budget.create: budget_bytes >= 1") (fun () ->
      ignore (Budget.create ~budget_bytes:0 parts));
  Alcotest.check_raises "no partitions"
    (Invalid_argument "Budget.create: no partitions") (fun () ->
      ignore (Budget.create ~budget_bytes:1 [||]))

(* Sharded partitions: eviction flushes the largest *shard*, never a
   whole partition's memtables — the overshoot fix.  Mirrors
   [synthetic] with per-shard byte counters. *)
let synthetic_sharded parts_shards =
  let mem = Array.map Array.copy parts_shards in
  let flushed = ref [] in
  let parts =
    Array.mapi
      (fun i shards ->
        Budget.part ~shards:(Array.length shards)
          ~mem_bytes:(fun () -> Array.fold_left ( + ) 0 mem.(i))
          ~shard_bytes:(fun s -> mem.(i).(s))
          ~flush_shard:(fun s ->
            flushed := (i, s) :: !flushed;
            mem.(i).(s) <- 0)
          ~flush:(fun () -> Array.fill mem.(i) 0 (Array.length mem.(i)) 0)
          ())
      mem
  in
  (flushed, parts)

let test_budget_evicts_largest_shard () =
  let flushed, parts = synthetic_sharded [| [| 8; 12 |]; [| 6; 9 |] |] in
  let b = Budget.create ~budget_bytes:30 parts in
  Budget.enforce b;
  Alcotest.(check (list (pair int int)))
    "largest shard only" [ (0, 1) ] !flushed;
  Alcotest.(check int) "sibling shards untouched" 23 (Budget.total b);
  Alcotest.(check int) "one eviction" 1 (Budget.evictions b)

let test_budget_shard_cascade () =
  let flushed, parts = synthetic_sharded [| [| 8; 12 |]; [| 6; 9 |] |] in
  let b = Budget.create ~budget_bytes:12 parts in
  Budget.enforce b;
  (* 35 >= 12: evict (0,1)=12 -> 23 >= 12: (1,1)=9 -> 14 >= 12: (0,0)=8
     -> 6 < 12.  Greedy largest-first crosses partitions freely. *)
  Alcotest.(check (list (pair int int)))
    "greedy largest-first across partitions"
    [ (0, 1); (1, 1); (0, 0) ]
    (List.rev !flushed);
  Alcotest.(check int) "three evictions" 3 (Budget.evictions b)

(* The overshoot regression this PR fixes: on an identical write
   sequence the shard-granular policy must not raise the
   pre-enforcement peak.  peak_pre is the budget plus whichever write
   trips it, so with aligned write sizes the two policies peak at
   exactly the same byte — while the sharded one evicts in smaller
   units (more, cheaper evictions instead of whole-memtable dumps). *)
let test_budget_shard_peak_pre_no_regress () =
  let drive ~shards =
    let n = max 1 shards in
    let mem = Array.make n 0 in
    let parts =
      [|
        Budget.part ~shards:n
          ~mem_bytes:(fun () -> Array.fold_left ( + ) 0 mem)
          ~shard_bytes:(fun s -> mem.(s))
          ~flush_shard:(fun s -> mem.(s) <- 0)
          ~flush:(fun () -> Array.fill mem 0 n 0)
          ();
      |]
    in
    let b = Budget.create ~budget_bytes:100 parts in
    for i = 0 to 39 do
      mem.(i mod n) <- mem.(i mod n) + 10;
      Budget.enforce b
    done;
    b
  in
  let b1 = drive ~shards:1 in
  let b4 = drive ~shards:4 in
  Alcotest.(check bool) "both configurations evicted" true
    (Budget.evictions b1 > 0 && Budget.evictions b4 > 0);
  Alcotest.(check int) "sharded peak_pre no worse"
    (Budget.peak_pre_bytes b1)
    (Budget.peak_pre_bytes b4);
  Alcotest.(check bool) "sharded evicts in smaller units" true
    (Budget.evictions b4 > Budget.evictions b1)

(* [enforce] against a reference that sums the footprint before
   enforcement, before every eviction decision and after enforcement,
   as the coordinator once did.  Random write traces over 1-3
   partitions of 1-3 shards each (one shard = the unsharded handle)
   must evict the same shards in the same order and leave the same
   peaks and counts; and an [enforce] that evicts nothing reads each
   partition's footprint exactly once. *)
let prop_budget_matches_reference =
  let open QCheck2.Gen in
  let gen =
    int_range 1 3 >>= fun parts ->
    list_repeat parts (int_range 1 3) >>= fun shards ->
    int_range 10 120 >>= fun budget ->
    list_size (int_range 1 80)
      (triple (int_range 0 (parts - 1)) (int_range 0 2) (int_range 1 40))
    >|= fun writes -> (Array.of_list shards, budget, writes)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"enforce = recompute-every-time reference"
       gen (fun (shards, budget, writes) ->
         let nparts = Array.length shards in
         let state () = Array.map (fun k -> Array.make k 0) shards in
         (* The coordinator under test. *)
         let mem = state () and flushed = ref [] and reads = ref 0 in
         let parts =
           Array.mapi
             (fun i k ->
               let sum () =
                 incr reads;
                 Array.fold_left ( + ) 0 mem.(i)
               in
               Budget.part ~shards:k ~mem_bytes:sum
                 ~shard_bytes:(fun s -> mem.(i).(s))
                 ~flush_shard:(fun s ->
                   flushed := (i, s) :: !flushed;
                   mem.(i).(s) <- 0)
                 ~flush:(fun () ->
                   flushed := (i, 0) :: !flushed;
                   Array.fill mem.(i) 0 k 0)
                 ())
             shards
         in
         let b = Budget.create ~budget_bytes:budget parts in
         (* The reference. *)
         let rmem = state () and rflushed = ref [] in
         let revictions = Array.make nparts 0 in
         let rpeak = ref 0 and rpeak_pre = ref 0 in
         let total () =
           Array.fold_left (Array.fold_left ( + )) 0 rmem
         in
         let rec drain () =
           if total () >= budget then begin
             let best = ref None in
             Array.iteri
               (fun i m ->
                 Array.iteri
                   (fun s v ->
                     if v > 0 then
                       match !best with
                       | Some (bv, _, _) when bv >= v -> ()
                       | _ -> best := Some (v, i, s))
                   m)
               rmem;
             match !best with
             | Some (_, i, s) ->
                 rflushed := (i, s) :: !rflushed;
                 rmem.(i).(s) <- 0;
                 revictions.(i) <- revictions.(i) + 1;
                 drain ()
             | None -> ()
           end
         in
         let one_read_when_idle = ref true in
         List.iter
           (fun (i, s, bytes) ->
             let s = s mod shards.(i) in
             mem.(i).(s) <- mem.(i).(s) + bytes;
             rmem.(i).(s) <- rmem.(i).(s) + bytes;
             let ev0 = Budget.evictions b and r0 = !reads in
             Budget.enforce b;
             if Budget.evictions b = ev0 && !reads - r0 <> nparts then
               one_read_when_idle := false;
             let pre = total () in
             if pre > !rpeak_pre then rpeak_pre := pre;
             drain ();
             let post = total () in
             if post > !rpeak then rpeak := post)
           writes;
         !one_read_when_idle
         && !flushed = !rflushed
         && Budget.peak_bytes b = !rpeak
         && Budget.peak_pre_bytes b = !rpeak_pre
         && Budget.evictions b = Array.fold_left ( + ) 0 revictions
         && List.for_all
              (fun i -> Budget.evictions_of b i = revictions.(i))
              (List.init nparts Fun.id)
         && !flushed <> [] = (Budget.evictions b > 0)))

(* ------------------------------------------------------------------ *)
(* Arrival processes *)

let test_arrivals_uniform_exact () =
  let a = Arrivals.create ~rate_rps:1000.0 `Uniform in
  Alcotest.(check (float 1e-9)) "first" 1000.0 (Arrivals.next a);
  Alcotest.(check (float 1e-9)) "second" 2000.0 (Arrivals.next a);
  Alcotest.(check (float 1e-9)) "third" 3000.0 (Arrivals.next a)

let test_arrivals_poisson_mean () =
  let a = Arrivals.create ~seed:3 ~rate_rps:1000.0 `Poisson in
  let n = 20_000 in
  let prev = ref 0.0 in
  for _ = 1 to n do
    let t = Arrivals.next a in
    Alcotest.(check bool) "strictly increasing" true (t > !prev);
    prev := t
  done;
  (* Exponential gaps with mean 1000us: the empirical mean over 20k draws
     sits within a few sigma of 1000 (and the stream is seeded, so this
     is deterministic regardless). *)
  let mean_gap = !prev /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.1fus ~ 1000us" mean_gap)
    true
    (mean_gap > 950.0 && mean_gap < 1050.0)

let test_arrivals_seeded () =
  let a = Arrivals.create ~seed:11 ~rate_rps:500.0 `Poisson in
  let b = Arrivals.create ~seed:11 ~rate_rps:500.0 `Poisson in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.0)) "same stream" (Arrivals.next a)
      (Arrivals.next b)
  done

let test_arrivals_bursty_mean () =
  let a = Arrivals.create ~seed:3 ~rate_rps:1000.0 `Bursty in
  let n = 100_000 in
  let prev = ref 0.0 in
  let sumsq = ref 0.0 in
  for _ = 1 to n do
    let t = Arrivals.next a in
    Alcotest.(check bool) "strictly increasing" true (t > !prev);
    let gap = t -. !prev in
    sumsq := !sumsq +. (gap *. gap);
    prev := t
  done;
  (* The on/off modulation preserves the long-run mean rate exactly, so
     the empirical mean gap still sits near 1000us — but the gap
     distribution is a mixture of two exponentials, so its squared
     coefficient of variation exceeds Poisson's 1. *)
  let mean_gap = !prev /. Float.of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.1fus ~ 1000us" mean_gap)
    true
    (mean_gap > 900.0 && mean_gap < 1100.0);
  let var = (!sumsq /. Float.of_int n) -. (mean_gap *. mean_gap) in
  let scv = var /. (mean_gap *. mean_gap) in
  Alcotest.(check bool)
    (Printf.sprintf "burstier than Poisson: scv %.2f > 1.2" scv)
    true (scv > 1.2)

let test_arrivals_bursty_seeded () =
  let a = Arrivals.create ~seed:11 ~rate_rps:500.0 `Bursty in
  let b = Arrivals.create ~seed:11 ~rate_rps:500.0 `Bursty in
  for _ = 1 to 1000 do
    Alcotest.(check (float 0.0)) "same stream" (Arrivals.next a)
      (Arrivals.next b)
  done

let test_arrivals_validate () =
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Arrivals.create: rate_rps must be > 0") (fun () ->
      ignore (Arrivals.create ~rate_rps:0.0 `Poisson));
  List.iter
    (fun k ->
      Alcotest.(check string)
        "kind roundtrip"
        (Arrivals.string_of_kind k)
        (Arrivals.string_of_kind
           (Arrivals.kind_of_string (Arrivals.string_of_kind k))))
    [ `Poisson; `Uniform; `Bursty ];
  match Arrivals.kind_of_string "fractal" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown kind must raise"

(* ------------------------------------------------------------------ *)
(* The open-loop driver *)

let tiny_cfg ?(rate = 1200.0) ?(duration = 0.25) ?(seed = 5) () =
  let cfg = Driver.config ~partitions:4 Lsm_harness.Scale.tiny in
  { cfg with Driver.rate_rps = rate; duration_s = duration; seed }

(* One run shared by the invariant/accounting/determinism checks. *)
let base_run = lazy (Driver.run (tiny_cfg ()))

let test_budget_invariant_under_load () =
  let r = Lazy.force base_run in
  Alcotest.(check bool) "coordinator fired" true (r.Driver.evictions > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d < budget %d" r.Driver.peak_mem_bytes
       r.Driver.budget_bytes)
    true
    (r.Driver.peak_mem_bytes < r.Driver.budget_bytes);
  (* Since evictions fired, some write overshot the budget before its
     same-instant eviction pulled the aggregate back under. *)
  Alcotest.(check bool) "overshoot reached the budget" true
    (r.Driver.peak_pre_mem_bytes >= r.Driver.budget_bytes)

let test_class_accounting () =
  let r = Lazy.force base_run in
  Alcotest.(check (list string))
    "one row per class plus all"
    [ "ingest"; "point"; "multi"; "secondary"; "scan"; "all" ]
    (List.map (fun (c : Driver.class_stats) -> c.Driver.cls) r.Driver.classes);
  let counts =
    List.map (fun (c : Driver.class_stats) -> c.Driver.count) r.Driver.classes
  in
  (match counts with
  | [ a; b; c; d; e; all ] ->
      Alcotest.(check int) "classes partition the requests" all
        (a + b + c + d + e);
      Alcotest.(check int) "all = requests" r.Driver.requests all
  | _ -> Alcotest.fail "expected 6 class rows");
  List.iter
    (fun (c : Driver.class_stats) ->
      Alcotest.(check bool)
        (c.Driver.cls ^ ": 0 <= p50 <= p95 <= p99")
        true
        (c.Driver.p50_us >= 0.0
        && c.Driver.p50_us <= c.Driver.p95_us
        && c.Driver.p95_us <= c.Driver.p99_us))
    r.Driver.classes

let test_run_deterministic () =
  let r1 = Lazy.force base_run in
  let r2 = Driver.run (tiny_cfg ()) in
  Alcotest.(check bool) "same seed, identical result" true (r1 = r2);
  let r3 = Driver.run (tiny_cfg ~seed:6 ()) in
  Alcotest.(check bool) "different seed, different traffic" true (r1 <> r3)

let test_auto_rate () =
  let r = Driver.run (tiny_cfg ~rate:0.0 ~duration:0.15 ()) in
  Alcotest.(check bool) "capacity estimate recorded" true
    (r.Driver.capacity_rps > 0.0);
  Alcotest.(check (float 0.0)) "offered rate = 70% of capacity"
    (0.7 *. r.Driver.capacity_rps)
    r.Driver.rate_rps

let test_knee () =
  let cfg = tiny_cfg ~rate:0.0 ~duration:0.3 () in
  let cap = Driver.estimate_capacity cfg in
  Alcotest.(check bool) "capacity positive" true (cap > 0.0);
  let low = Driver.run { cfg with Driver.rate_rps = 0.3 *. cap } in
  let high = Driver.run { cfg with Driver.rate_rps = 3.0 *. cap } in
  Alcotest.(check bool) "30% of capacity: below saturation" false
    low.Driver.saturated;
  Alcotest.(check bool) "3x capacity: saturated" true high.Driver.saturated;
  Alcotest.(check bool)
    (Printf.sprintf "queueing delay grew %.2fx across the run"
       high.Driver.queue_growth)
    true
    (high.Driver.queue_growth > 1.5);
  Alcotest.(check bool) "backlog dominates above the knee" true
    (high.Driver.backlog_frac > low.Driver.backlog_frac
    && high.Driver.backlog_frac > 0.5)

(* ------------------------------------------------------------------ *)
(* One request loop: the router's whole-request path and its pieces *)

module Rt = Driver.Rt

(* The chaos mix (every class, multi-gets included) under an eighth of
   the tiny budget, so budget evictions land on partitions other than
   the writer's during traffic, not only during the preload. *)
let mixed_cfg ?(strategy = Lsm_core.Strategy.validation) () =
  let cfg = tiny_cfg ~duration:1.25 () in
  {
    cfg with
    Driver.mix = Driver.chaos_mix;
    strategy;
    budget_bytes = cfg.Driver.budget_bytes / 8;
  }

(* [Router.exec] and the per-partition session pieces the request loop
   drives must charge every partition the same simulated time for the
   same request: two identical clusters fed the same seeded requests,
   one through each path. *)
let test_exec_equals_pieces () =
  let cfg = mixed_cfg () in
  let whole = Driver.build cfg and pieces = Driver.build cfg in
  Driver.preload whole cfg;
  Driver.preload pieces cfg;
  let rt = pieces.Driver.rt in
  let n = cfg.Driver.partitions in
  let seen = Hashtbl.create 5 in
  for _ = 1 to 1500 do
    let cls, req = Driver.gen_request whole cfg in
    ignore (Driver.gen_request pieces cfg);
    let o = Rt.exec whole.Driver.rt req in
    Rt.snapshot rt;
    (match req with
    | Rt.Insert _ | Rt.Upsert _ | Rt.Delete _ ->
        ignore (Rt.exec_write rt req);
        Budget.enforce (Rt.budget rt)
    | Rt.Point pk -> ignore (Rt.point_part rt pk)
    | Rt.Multi_get pks ->
        let groups = Rt.key_groups rt pks in
        for i = 0 to n - 1 do
          ignore (Rt.multi_get_part rt i groups.(i))
        done
    | Rt.Secondary { sec; lo; hi; mode } ->
        for i = 0 to n - 1 do
          ignore (Rt.secondary_part rt i ~sec ~lo ~hi ~mode)
        done
    | Rt.Time_range { tlo; thi } ->
        for i = 0 to n - 1 do
          ignore (Rt.time_range_part rt i ~tlo ~thi)
        done);
    let svc = Rt.service_since rt in
    Hashtbl.replace seen (Driver.class_name cls) ();
    Array.iteri
      (fun i d ->
        if not (Float.equal d svc.(i)) then
          Alcotest.failf "%s: partition %d charged %.17g by exec, %.17g by \
                          the pieces"
            (Driver.class_name cls) i d svc.(i))
      o.Rt.service_us
  done;
  Alcotest.(check int) "every class exercised" 5 (Hashtbl.length seen)

(* The folded loop moves only the horizons of partitions that did work;
   the whole-request loop it replaced moved every involved partition's.
   Pin [Driver.run]'s class tables to that older rule, replayed here over
   [Router.exec]: any request that involves an idle partition shows up
   as a difference. *)
let exec_loop_classes (cfg : Driver.config) =
  let sys = Driver.build cfg in
  Driver.preload sys cfg;
  let arr =
    Arrivals.create ~seed:((cfg.Driver.seed * 131) + 7)
      ~rate_rps:cfg.Driver.rate_rps cfg.Driver.arrivals
  in
  let horizon = cfg.Driver.duration_s *. 1e6 in
  let free = Array.make cfg.Driver.partitions 0.0 in
  let lats = Hashtbl.create 5 in
  let rec go a =
    if a <= horizon then begin
      let cls, req = Driver.gen_request sys cfg in
      let o = Rt.exec sys.Driver.rt req in
      let svc = o.Rt.service_us in
      let involved = ref o.Rt.touched in
      Array.iteri
        (fun i d ->
          if d > 0.0 && not (List.mem i !involved) then
            involved := i :: !involved)
        svc;
      let start =
        List.fold_left (fun m i -> Float.max m free.(i)) a !involved
      in
      let service =
        List.fold_left (fun m i -> Float.max m svc.(i)) 0.0 !involved
      in
      List.iter (fun i -> free.(i) <- start +. svc.(i)) !involved;
      let name = Driver.class_name cls in
      let prev = Option.value ~default:[] (Hashtbl.find_opt lats name) in
      Hashtbl.replace lats name ((start -. a, service) :: prev);
      go (Arrivals.next arr)
    end
  in
  go (Arrivals.next arr);
  lats

let check_run_matches_exec_loop strategy () =
  let cfg = mixed_cfg ~strategy () in
  let r = Driver.run cfg in
  let lats = exec_loop_classes cfg in
  List.iter
    (fun (c : Driver.class_stats) ->
      if c.Driver.cls <> "all" then begin
        let qs =
          List.rev
            (Option.value ~default:[] (Hashtbl.find_opt lats c.Driver.cls))
        in
        let xs = Array.of_list (List.map (fun (q, s) -> q +. s) qs) in
        let pct p =
          if Array.length xs = 0 then 0.0 else Lsm_obs.Stats.percentile xs p
        in
        let mean f =
          if qs = [] then 0.0
          else
            List.fold_left (fun acc x -> acc +. f x) 0.0 qs
            /. Float.of_int (List.length qs)
        in
        let same what x y =
          Alcotest.(check bool) (c.Driver.cls ^ " " ^ what ^ " identical") true
            (Float.equal x y)
        in
        Alcotest.(check int) (c.Driver.cls ^ " count") (Array.length xs)
          c.Driver.count;
        same "p50" (pct 50.0) c.Driver.p50_us;
        same "p99" (pct 99.0) c.Driver.p99_us;
        same "mean queue" (mean fst) c.Driver.mean_queue_us;
        same "mean service" (mean snd) c.Driver.mean_service_us
      end)
    r.Driver.classes

(* ------------------------------------------------------------------ *)
(* Columnar samples: SLO tables against the list-based oracle *)

module Samples = Lsm_serve.Samples

(* The tables as the driver built them from a list of sample records:
   one filtered copy per table, latencies mapped into an array, means
   by left folds, the percentile by nan filter and sort per rank. *)
type osample = { o_cls : int; o_phase : int; o_arr : float; o_q : float; o_s : float }

let old_percentile samples p =
  let s =
    Array.of_seq
      (Seq.filter (fun v -> not (Float.is_nan v)) (Array.to_seq samples))
  in
  let n = Array.length s in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare s;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let old_mean = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. Float.of_int (List.length l)

let old_stats_of name samples =
  let lat = Array.of_list (List.map (fun s -> s.o_q +. s.o_s) samples) in
  let pct p = if Array.length lat = 0 then 0.0 else old_percentile lat p in
  {
    Driver.cls = name;
    count = List.length samples;
    p50_us = pct 50.0;
    p95_us = pct 95.0;
    p99_us = pct 99.0;
    mean_queue_us = old_mean (List.map (fun s -> s.o_q) samples);
    mean_service_us = old_mean (List.map (fun s -> s.o_s) samples);
  }

let old_class_table ss =
  List.map
    (fun c ->
      let k = Driver.class_index c in
      old_stats_of (Driver.class_name c) (List.filter (fun s -> s.o_cls = k) ss))
    Driver.all_classes
  @ [ old_stats_of "all" ss ]

let old_tables ss =
  old_class_table ss
  :: List.mapi
       (fun k _ -> old_class_table (List.filter (fun s -> s.o_phase = k) ss))
       Driver.phases

let old_queue_halves ss ~half =
  let mean keep =
    old_mean
      (List.filter_map (fun s -> if keep s.o_arr then Some s.o_q else None) ss)
  in
  (mean (fun t -> t < half), mean (fun t -> t >= half))

(* The same tables from the columns, as [Driver.serve] builds them. *)
let new_tables st =
  Driver.class_table st (fun _ -> true)
  :: List.mapi
       (fun k _ -> Driver.class_table st (fun i -> Samples.phase st i = k))
       Driver.phases

let store_of ss =
  let st = Samples.create () in
  List.iter
    (fun s ->
      Samples.push st ~cls:s.o_cls ~phase:s.o_phase ~arrival_us:s.o_arr
        ~queue_us:s.o_q ~service_us:s.o_s)
    ss;
  st

let same_stats (a : Driver.class_stats) (b : Driver.class_stats) =
  String.equal a.Driver.cls b.Driver.cls
  && a.Driver.count = b.Driver.count
  && Float.equal a.Driver.p50_us b.Driver.p50_us
  && Float.equal a.Driver.p95_us b.Driver.p95_us
  && Float.equal a.Driver.p99_us b.Driver.p99_us
  && Float.equal a.Driver.mean_queue_us b.Driver.mean_queue_us
  && Float.equal a.Driver.mean_service_us b.Driver.mean_service_us

let same_tables ss =
  let st = store_of ss in
  let half = 500.0 in
  List.for_all2 (List.for_all2 same_stats) (new_tables st) (old_tables ss)
  &&
  let q1, q2 = Samples.mean_queue_halves st ~half in
  let o1, o2 = old_queue_halves ss ~half in
  Float.equal q1 o1 && Float.equal q2 o2

let sample_gen =
  let open QCheck2.Gen in
  let time =
    frequency
      [ (8, float_bound_inclusive 2000.0); (1, return 0.0); (1, return Float.nan) ]
  in
  map
    (fun ((o_cls, o_phase), (o_arr, o_q, o_s)) ->
      { o_cls; o_phase; o_arr; o_q; o_s })
    (pair
       (pair (int_range 0 4) (int_range 0 2))
       (triple (float_bound_inclusive 1000.0) time time))

(* Random traces (nan latencies, ties at zero, every phase, classes that
   draw nothing) plus the edge traces: empty, one sample, all nan. *)
let prop_samples_match_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"columnar tables = list oracle"
       QCheck2.Gen.(list_size (int_range 0 300) sample_gen)
       same_tables)

let test_samples_edges () =
  let one = { o_cls = 3; o_phase = 1; o_arr = 10.0; o_q = 2.0; o_s = 5.0 } in
  let nan = { one with o_q = Float.nan } in
  List.iter
    (fun (what, ss) ->
      Alcotest.(check bool) (what ^ " = oracle") true (same_tables ss))
    [
      ("empty", []);
      ("one sample", [ one ]);
      ("all latencies nan", [ nan; { nan with o_cls = 0 }; nan ]);
      ("nan beside finite", [ one; nan; { one with o_s = 1.0 } ]);
    ];
  let st = store_of [ nan ] in
  let t = Samples.table st "x" (fun _ -> true) in
  Alcotest.(check bool) "all-nan selection reads nan" true
    (t.Driver.count = 1 && Float.is_nan t.Driver.p99_us);
  let t = Samples.table st "x" (fun _ -> false) in
  Alcotest.(check bool) "empty selection reads 0" true
    (t.Driver.count = 0 && t.Driver.p99_us = 0.0 && t.Driver.mean_queue_us = 0.0)

(* Words allocated per sample to build every table of a 20k-sample
   trace (all classes, all phases, both run halves).  The columns are
   read in place and the one scratch array costs a word a sample
   (1.01 in all); the oracle's filtered lists, boxed floats and
   per-rank sequence copies cost about 1,330. *)
let test_samples_table_alloc () =
  let n = 20_000 in
  let rng = Lsm_util.Rng.create 3 in
  let ss =
    List.init n (fun i ->
        {
          o_cls = Lsm_util.Rng.int rng 5;
          o_phase = Lsm_util.Rng.int rng 3;
          o_arr = Float.of_int i;
          o_q = Lsm_util.Rng.float rng *. 100.0;
          o_s = Lsm_util.Rng.float rng *. 1000.0;
        })
  in
  let st = store_of ss in
  (* Minor and direct major allocation: the scratch array is too large
     for the minor heap. *)
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let per_sample f =
    let w0 = allocated () in
    ignore (Sys.opaque_identity (f ()));
    (allocated () -. w0) /. Float.of_int n
  in
  let half = Float.of_int (n / 2) in
  let columnar =
    per_sample (fun () ->
        (new_tables st, Samples.mean_queue_halves st ~half))
  in
  let oracle =
    per_sample (fun () -> (old_tables ss, old_queue_halves ss ~half))
  in
  let ceiling = 1.5 in
  Printf.printf "tables: %.2f words/sample columnar, %.2f oracle (ceiling %.1f)\n"
    columnar oracle ceiling;
  Alcotest.(check bool) "columnar under the ceiling" true (columnar <= ceiling);
  Alcotest.(check bool) "oracle over the ceiling" true (oracle > ceiling);
  (* The store has doubled five times past its first 1024 rows. *)
  Alcotest.(check bool) "grown store = oracle" true
    (List.for_all2 (List.for_all2 same_stats) (new_tables st) (old_tables ss))

(* ------------------------------------------------------------------ *)
(* Timelines, burn-rate SLOs, and interference attribution *)

module Timeseries = Lsm_obs.Timeseries
module Slo = Lsm_obs.Slo
module Histogram = Lsm_obs.Histogram
module Serve_report = Lsm_serve.Serve_report

let window_us = 20_000.0

(* The knee pair again, this time instrumented: one capacity probe, then
   a quiet 0.3x run and a saturated 3x run with timelines attached. *)
let timeline_pair =
  lazy
    (let cfg = tiny_cfg ~rate:0.0 ~duration:0.3 () in
     let cap = Driver.estimate_capacity cfg in
     let low_ts = Timeseries.create ~window_us () in
     let low =
       Driver.run ~timeline:low_ts { cfg with Driver.rate_rps = 0.3 *. cap }
     in
     let high_ts = Timeseries.create ~window_us () in
     let high =
       Driver.run ~timeline:high_ts { cfg with Driver.rate_rps = 3.0 *. cap }
     in
     (low, low_ts, high, high_ts))

(* Threshold comfortably above everything the quiet run saw: the 0.3x
   run cannot violate it even once, so any alert can only come from the
   saturated run's queueing. *)
let objective_for low_ts =
  let worst = ref 0.0 in
  for i = 0 to Timeseries.n_windows low_ts - 1 do
    match Timeseries.hist low_ts ~i "all" with
    | Some h -> worst := Float.max !worst (Histogram.max_value h)
    | None -> ()
  done;
  { Slo.series = "all"; quantile = 0.99; threshold_us = !worst *. 1.5 }

let test_saturated_run_alerts_with_culprit () =
  let _, low_ts, high, high_ts = Lazy.force timeline_pair in
  let o = objective_for low_ts in
  Alcotest.(check bool) "3x run saturated" true high.Driver.saturated;
  let alerts = Slo.evaluate high_ts o in
  Alcotest.(check bool) "burn-rate alert fired" true (alerts <> []);
  let findings = Slo.attribute high_ts alerts in
  Alcotest.(check bool) "attribution joined events" true (findings <> []);
  Alcotest.(check bool)
    "a budget eviction or merge is named in a spiking window" true
    (List.exists
       (fun (f : Slo.finding) ->
         match f.Slo.f_event.Timeseries.e_kind with
         | "eviction" | "lsm.merge" | "lsm.flush" | "dataset.flush"
         | "dataset.merge" ->
             true
         | _ -> false)
       findings);
  (* Every finding's overlap stays within one window. *)
  List.iter
    (fun (f : Slo.finding) ->
      Alcotest.(check bool) "overlap bounded by the window" true
        (f.Slo.f_overlap_us >= 0.0
        && f.Slo.f_overlap_us <= Timeseries.window_us high_ts))
    findings

let test_quiet_run_no_alerts () =
  let low, low_ts, _, _ = Lazy.force timeline_pair in
  Alcotest.(check bool) "0.3x run below saturation" false low.Driver.saturated;
  let o = objective_for low_ts in
  Alcotest.(check (list int))
    "0.3x capacity: no burn-rate alerts" []
    (List.map (fun (a : Slo.alert) -> a.Slo.a_window) (Slo.evaluate low_ts o))

let test_timeline_noninvasive () =
  let r_plain = Lazy.force base_run in
  let ts = Timeseries.create ~window_us () in
  let r_instr = Driver.run ~timeline:ts (tiny_cfg ()) in
  Alcotest.(check bool) "result identical with timeline attached" true
    (r_plain = r_instr);
  Alcotest.(check bool) "timeline observed the run" true
    (Timeseries.n_windows ts > 0)

let test_timeline_byte_identical () =
  let render () =
    let ts = Timeseries.create ~window_us () in
    let r = Driver.run ~timeline:ts (tiny_cfg ()) in
    let o = { Slo.series = "point"; quantile = 0.99; threshold_us = 1500.0 } in
    ( Lsm_obs.Json.to_string (Serve_report.timeline_to_json r ts [ o ]),
      Timeseries.to_csv ts )
  in
  let j1, c1 = render () in
  let j2, c2 = render () in
  Alcotest.(check string) "timeline JSON byte-identical across runs" j1 j2;
  Alcotest.(check string) "timeline CSV byte-identical across runs" c1 c2

let () =
  Alcotest.run "lsm_serve"
    [
      ( "budget",
        [
          Alcotest.test_case "evicts the largest memtable" `Quick
            test_budget_evicts_largest;
          Alcotest.test_case "cascades until under budget" `Quick
            test_budget_cascades;
          Alcotest.test_case "ties break low" `Quick test_budget_ties_break_low;
          Alcotest.test_case "validates arguments" `Quick test_budget_validates;
          Alcotest.test_case "evicts the largest shard" `Quick
            test_budget_evicts_largest_shard;
          Alcotest.test_case "shard cascade crosses partitions" `Quick
            test_budget_shard_cascade;
          Alcotest.test_case "sharded peak_pre does not regress" `Quick
            test_budget_shard_peak_pre_no_regress;
          prop_budget_matches_reference;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "uniform gaps exact" `Quick
            test_arrivals_uniform_exact;
          Alcotest.test_case "poisson mean gap" `Quick test_arrivals_poisson_mean;
          Alcotest.test_case "seeded streams repeat" `Quick test_arrivals_seeded;
          Alcotest.test_case "bursty preserves mean, adds variance" `Quick
            test_arrivals_bursty_mean;
          Alcotest.test_case "bursty seeded streams repeat" `Quick
            test_arrivals_bursty_seeded;
          Alcotest.test_case "validates arguments" `Quick test_arrivals_validate;
        ] );
      ( "driver",
        [
          Alcotest.test_case "budget invariant under load" `Quick
            test_budget_invariant_under_load;
          Alcotest.test_case "class accounting" `Quick test_class_accounting;
          Alcotest.test_case "deterministic for a seed" `Quick
            test_run_deterministic;
          Alcotest.test_case "auto rate anchors to capacity" `Quick
            test_auto_rate;
          Alcotest.test_case "saturation knee" `Quick test_knee;
          Alcotest.test_case "run matches the exec loop (validation)" `Quick
            (check_run_matches_exec_loop Lsm_core.Strategy.validation);
          Alcotest.test_case "run matches the exec loop (eager)" `Quick
            (check_run_matches_exec_loop Lsm_core.Strategy.Eager);
        ] );
      ( "samples",
        [
          prop_samples_match_oracle;
          Alcotest.test_case "edge traces" `Quick test_samples_edges;
          Alcotest.test_case "tables: words per sample" `Quick
            test_samples_table_alloc;
        ] );
      ( "router",
        [
          Alcotest.test_case "exec equals the session pieces" `Quick
            test_exec_equals_pieces;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "saturated run alerts with culprit" `Quick
            test_saturated_run_alerts_with_culprit;
          Alcotest.test_case "quiet run stays silent" `Quick
            test_quiet_run_no_alerts;
          Alcotest.test_case "instrumentation is non-invasive" `Quick
            test_timeline_noninvasive;
          Alcotest.test_case "exports byte-identical for a seed" `Quick
            test_timeline_byte_identical;
        ] );
    ]
