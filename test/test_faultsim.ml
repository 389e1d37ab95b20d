(* Tests for Lsm_faultsim: deterministic enumeration, plan selection,
   crash matrices under both strategies, and deep checks of the nastiest
   individual crash points (interrupted lockstep merges, half-flushed
   primary pairs, torn checkpoints, crashes straddling commit). *)

module F = Lsm_faultsim.Fault
module Sc = Lsm_faultsim.Scenario
module Ch = Lsm_faultsim.Checker
module H = Lsm_faultsim.Harness
module P = Lsm_sim.Fault_point

let point = Alcotest.testable (fun ppf p -> Fmt.string ppf (P.name p)) ( = )

let small ?(validation = false) ?(seed = 7) ?(group_commit = 1)
    ?(maint_workers = 1) ?(mem_shards = 1) () =
  {
    Sc.default_config with
    Sc.seed;
    txns = 25;
    validation;
    group_commit;
    maint_workers;
    mem_shards;
  }

(* The group-commit + overlapping-maintenance configuration every new
   matrix runs under: commits amortize one fsync over groups of 4, and
   two modeled workers interleave independent merges. *)
let grouped ?validation ?seed () =
  small ?validation ?seed ~group_commit:4 ~maint_workers:2 ()

(* The sharded-memtable configuration: four memory shards per tree, so
   the drive phase rotates per-shard flushes and the enumerator surfaces
   every per-shard flush window as a crash point. *)
let sharded ?validation ?seed () = small ?validation ?seed ~mem_shards:4 ()

(* ------------------------------------------------------------------ *)
(* Determinism of the enumeration *)

let test_counting_deterministic () =
  let inj1, st1 = Sc.run (small ()) in
  let inj2, st2 = Sc.run (small ()) in
  Alcotest.(check (list (pair point int)))
    "announcement totals repeat" (F.hits inj1) (F.hits inj2);
  Alcotest.(check int)
    "model state repeats"
    (Sc.M.count st1.Sc.model)
    (Sc.M.count st2.Sc.model);
  Alcotest.(check bool) "counting run completes" true
    (st1.Sc.outcome = Sc.Completed);
  Alcotest.(check bool) "nothing fired" false (F.fired inj1)

let test_counting_covers_required_points () =
  let inj, _ = Sc.run (small ()) in
  let hits = F.hits inj in
  List.iter
    (fun p ->
      match List.assoc_opt p hits with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "fault point %s never announced" (P.name p))
    [
      P.Io_read; Io_write; Lsm_flush_begin; Lsm_flush_install;
      Lsm_merge_begin; Lsm_merge_install; Dataset_flush_begin;
      Dataset_flush_pair; Dataset_merge_pair; Txn_op_begin;
      Txn_op_logged; Txn_commit_pre; Txn_commit_durable;
      Txn_ckpt_begin; Txn_ckpt_mid; Txn_ckpt_end; Txn_flush_anchor;
      (* One worker runs the same scheduler, so its job boundaries are
         crash points too. *)
      Maint_job_start; Maint_job_install;
    ]

(* Under group commit + overlapped maintenance the enumerator must also
   surface the group-seal/fsync/ack windows (torn commit groups) and the
   scheduler's job boundaries — otherwise those crash states are never
   tested. *)
let test_counting_covers_group_points () =
  let inj, _ = Sc.run (grouped ()) in
  let hits = F.hits inj in
  List.iter
    (fun p ->
      match List.assoc_opt p hits with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "fault point %s never announced" (P.name p))
    [
      P.Wal_group_seal; Wal_group_fsync; Wal_group_ack;
      Maint_job_start; Maint_job_install;
    ];
  (* Without group commit no group window is announced. *)
  let inj0, _ = Sc.run (small ()) in
  match List.assoc P.Wal_group_seal (F.hits inj0) with
  | 0 -> ()
  | n -> Alcotest.failf "ungrouped run announced wal.group.seal %d times" n

(* Sharded memtables expose per-shard flush windows: the dataset-level
   shard flush (each tree pair flushed for one shard) and the tree-level
   shard seal/install.  The unsharded configuration must announce none —
   it always flushes whole memtables. *)
let test_counting_covers_shard_points () =
  let inj, _ = Sc.run (sharded ()) in
  let hits = F.hits inj in
  List.iter
    (fun p ->
      match List.assoc_opt p hits with
      | Some n when n > 0 -> ()
      | _ -> Alcotest.failf "fault point %s never announced" (P.name p))
    [
      P.Dataset_flush_shard_begin; Dataset_flush_shard_pair;
      Lsm_flush_shard_begin; Lsm_flush_shard_install;
    ];
  let inj0, _ = Sc.run (small ()) in
  List.iter
    (fun p ->
      match List.assoc p (F.hits inj0) with
      | 0 -> ()
      | n ->
          Alcotest.failf "unsharded run announced %s %d times" (P.name p) n)
    [ P.Dataset_flush_shard_begin; Lsm_flush_shard_begin ]

(* Exhaustiveness: the fullest configuration (group commit, overlapping
   maintenance, sharded memtables) under Mutable-bitmap announces every
   point of the closed set.  A constructor no scenario reaches is dead
   weight in the fault matrix and fails here. *)
let test_counting_covers_every_point () =
  let inj, _ =
    Sc.run (small ~group_commit:4 ~maint_workers:2 ~mem_shards:4 ())
  in
  List.iter
    (fun (p, n) ->
      if n < 1 then Alcotest.failf "fault point %s never announced" (P.name p))
    (F.hits inj);
  Alcotest.(check (list point)) "hits cover the type in order" P.all
    (List.map fst (F.hits inj))

(* Every constructor's name parses back to it; the list is in name order
   with no duplicates; only the page-I/O points are I/O points. *)
let test_point_names_round_trip () =
  List.iter
    (fun p ->
      Alcotest.(check (option point)) (P.name p ^ " round-trips") (Some p)
        (P.of_name (P.name p));
      Alcotest.(check bool) (P.name p ^ " is_io")
        (String.starts_with ~prefix:"io." (P.name p))
        (P.is_io p))
    P.all;
  let names = List.map P.name P.all in
  Alcotest.(check (list string)) "name order, unique"
    (List.sort_uniq compare names) names;
  Alcotest.(check (option point)) "unknown name" None
    (P.of_name "lsm.flsh.begin");
  Alcotest.(check int) "longest name"
    (List.fold_left (fun m s -> max m (String.length s)) 0 names)
    P.max_name_length

let test_select_plans () =
  let hits = [ (P.Io_read, 100); (P.Io_write, 3); (P.Txn_op_begin, 1) ] in
  let plans = H.select_plans ~kind:F.Crash ~budget:20 hits in
  Alcotest.(check bool)
    "budget roughly met" true
    (List.length plans >= 20 && List.length plans <= 26);
  List.iter
    (fun { F.point; hit; _ } ->
      let c = List.assoc point hits in
      if hit < 1 || hit > c then
        Alcotest.failf "plan hit %d out of range for %s (count %d)" hit
          (P.name point) c)
    plans;
  (* every point gets at least one plan; hits within a point are unique *)
  List.iter
    (fun (p, _) ->
      let mine = List.filter (fun { F.point; _ } -> point = p) plans in
      Alcotest.(check bool) (P.name p ^ " covered") true (mine <> []);
      let hs = List.map (fun { F.hit; _ } -> hit) mine in
      Alcotest.(check int) (P.name p ^ " hits unique") (List.length hs)
        (List.length (List.sort_uniq compare hs)))
    hits;
  Alcotest.(check (list (pair point int)))
    "selection is deterministic"
    (List.map (fun { F.point; hit; _ } -> (point, hit)) plans)
    (List.map
       (fun { F.point; hit; _ } -> (point, hit))
       (H.select_plans ~kind:F.Crash ~budget:20 hits))

(* ------------------------------------------------------------------ *)
(* Crash matrices *)

let check_report r =
  if not (H.ok r) then begin
    H.print_report Format.str_formatter r;
    Alcotest.failf "fault matrix failed:@.%s" (Format.flush_str_formatter ())
  end

let test_matrix_mutable_bitmap () =
  check_report (H.run ~crash_budget:40 ~io_budget:8 (small ()))

let test_matrix_validation () =
  check_report (H.run ~crash_budget:40 ~io_budget:8 (small ~validation:true ()))

let test_matrix_other_seed () =
  check_report (H.run ~crash_budget:30 ~io_budget:6 (small ~seed:42 ()))

(* The expanded matrices: >= 50 crash points per strategy, with the
   group-commit and overlapping-merge fault points in the enumeration. *)
let test_matrix_grouped_mutable_bitmap () =
  let r = H.run ~crash_budget:50 ~io_budget:8 (grouped ()) in
  check_report r;
  Alcotest.(check bool)
    ">= 50 crash plans" true
    (List.length r.H.r_plans >= 50)

let test_matrix_grouped_validation () =
  let r = H.run ~crash_budget:50 ~io_budget:8 (grouped ~validation:true ()) in
  check_report r;
  Alcotest.(check bool)
    ">= 50 crash plans" true
    (List.length r.H.r_plans >= 50)

(* The per-shard fault matrix: with four memory shards the rotating
   drive-phase flushes announce every per-shard crash point, and crashes
   anywhere in a shard flush — one shard durable, siblings still in
   memory — must recover to a checker-accepted state under both WAL
   strategies. *)
let test_matrix_sharded_mutable_bitmap () =
  check_report (H.run ~crash_budget:40 ~io_budget:8 (sharded ()))

let test_matrix_sharded_validation () =
  check_report (H.run ~crash_budget:40 ~io_budget:8 (sharded ~validation:true ()))

(* ------------------------------------------------------------------ *)
(* Deep dives into specific crash points *)

(* Run one plan targeting the middle occurrence of [point]; the fault
   must fire, recovery must pass the checker, and the system must accept
   new work afterwards. *)
let run_point_cfg cfg point =
  let name = P.name point in
  let inj0, _ = Sc.run cfg in
  match List.assoc point (F.hits inj0) with
  | 0 -> Alcotest.failf "point %s never announced" name
  | c ->
      let plan = F.plan F.Crash ~point ~hit:((c / 2) + 1) in
      let inj, st = Sc.run ~plan cfg in
      Alcotest.(check bool) (name ^ " fired") true (F.fired inj);
      Alcotest.(check bool)
        (name ^ " crashed") true
        (match st.Sc.outcome with Sc.Crashed _ -> true | _ -> false);
      (match Ch.check st with
      | [] -> ()
      | msgs ->
          Alcotest.failf "%s: post-recovery check failed:@.%s" name
            (String.concat "\n" msgs));
      Sc.smoke st;
      match Ch.check st with
      | [] -> ()
      | msgs ->
          Alcotest.failf "%s: post-smoke check failed:@.%s" name
            (String.concat "\n" msgs)

let run_point ?validation point = run_point_cfg (small ?validation ()) point

let test_crash_between_pair_flush () = run_point P.Dataset_flush_pair
let test_crash_mid_lockstep_merge () = run_point P.Dataset_merge_pair
let test_crash_mid_checkpoint () = run_point P.Txn_ckpt_mid
let test_crash_at_commit_durable () = run_point P.Txn_commit_durable
let test_crash_before_commit () = run_point P.Txn_commit_pre
let test_crash_at_merge_install () = run_point P.Lsm_merge_install
let test_crash_validation_flush () =
  run_point ~validation:true P.Dataset_flush_begin

(* Group-commit crash windows: before the group fsync (the whole group is
   torn — every member must be discarded), after the fsync but before the
   durable frontier advances, and after durability but before the ack. *)
let test_crash_at_group_seal () = run_point_cfg (grouped ()) P.Wal_group_seal
let test_crash_at_group_fsync () = run_point_cfg (grouped ()) P.Wal_group_fsync
let test_crash_at_group_ack () = run_point_cfg (grouped ()) P.Wal_group_ack

(* Crashes inside the overlapping scheduler: at a job admission (merges
   in flight but nothing installed) and at a job install (a prefix of the
   round's merges installed, the rest abandoned). *)
let test_crash_at_maint_job_start () =
  run_point_cfg (grouped ()) P.Maint_job_start

let test_crash_at_maint_job_install () =
  run_point_cfg (grouped ()) P.Maint_job_install

let test_crash_grouped_lockstep_merge () =
  run_point_cfg (grouped ()) P.Dataset_merge_pair

(* Per-shard flush crash windows: between the two trees of a shard flush
   (primary durable for the shard, a secondary not), and at the tree-level
   shard install (the shard's component on disk but the in-memory shard
   not yet cleared at crash time). *)
let test_crash_between_shard_pair () =
  run_point_cfg (sharded ()) P.Dataset_flush_shard_pair

let test_crash_at_shard_install () =
  run_point_cfg (sharded ()) P.Lsm_flush_shard_install

let test_crash_at_shard_begin_validation () =
  run_point_cfg (sharded ~validation:true ()) P.Dataset_flush_shard_begin

(* A transient I/O error during a query is retried and the run completes
   with no crash at all. *)
let test_transient_io_error_retried () =
  let cfg = small () in
  let plan = F.plan F.Io_error ~point:P.Io_read ~hit:3 in
  let inj, st = Sc.run ~plan cfg in
  Alcotest.(check bool) "io error fired" true (F.fired inj);
  (* The engine's retry/backoff absorbs a one-shot transient fault at the
     I/O site itself, so the run always completes. *)
  Alcotest.(check bool) "completed" true (st.Sc.outcome = Sc.Completed);
  Alcotest.(check bool) "retry counted" true
    ((Lsm_sim.Env.resil st.Sc.env).Lsm_sim.Env.retries > 0);
  match Ch.check st with
  | [] -> ()
  | msgs -> Alcotest.failf "io-error run failed:@.%s" (String.concat "\n" msgs)

(* Fault-kind naming: canonical spellings round-trip, and the legacy
   "io-error" spelling still parses. *)
let test_kind_round_trip () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (F.kind_to_string k ^ " round-trips")
        true
        (F.kind_of_string (F.kind_to_string k) = Some k))
    [ F.Crash; F.Io_error; F.Corrupt ];
  Alcotest.(check bool) "io-error alias" true
    (F.kind_of_string "io-error" = Some F.Io_error);
  Alcotest.(check bool) "bogus kind rejected" true
    (F.kind_of_string "bogus" = None);
  (* The Env printer and Fault use the same spelling. *)
  List.iter
    (fun k ->
      Alcotest.(check string) "printer agrees"
        (F.kind_to_string k)
        (Lsm_sim.Env.string_of_fault_kind k))
    [ F.Crash; F.Io_error; F.Corrupt ]

(* A corruption plan never crashes the run: the flipped page is caught by
   its checksum, reads degrade but stay correct, and the healing sweep
   (exercised by the checker) rebuilds the quarantined component. *)
let test_corrupt_detected_and_healed () =
  let cfg = small () in
  let inj0, _ = Sc.run cfg in
  match List.assoc P.Io_write (F.hits inj0) with
  | 0 -> Alcotest.fail "io.write never announced"
  | c ->
      let plan = F.plan F.Corrupt ~point:P.Io_write ~hit:((c / 2) + 1) in
      let inj, st = Sc.run ~plan cfg in
      Alcotest.(check bool) "corruption fired" true (F.fired inj);
      Alcotest.(check bool) "completed (no crash)" true
        (st.Sc.outcome = Sc.Completed);
      (match Ch.check st with
      | [] -> ()
      | msgs ->
          Alcotest.failf "corrupt run failed:@.%s" (String.concat "\n" msgs));
      Alcotest.(check int) "nothing left quarantined" 0
        (Sc.D.quarantined_count st.Sc.d);
      Alcotest.(check int) "no corrupt pages left" 0
        (Lsm_sim.Env.corrupt_page_count st.Sc.env);
      Sc.smoke st;
      match Ch.check st with
      | [] -> ()
      | msgs ->
          Alcotest.failf "post-smoke check failed:@.%s"
            (String.concat "\n" msgs)

(* An intermittent window shorter than the engine's retry budget is
   absorbed entirely at the I/O site: the run completes with no crash. *)
let test_intermittent_absorbed () =
  let cfg = small () in
  let plan = F.plan ~fails:2 F.Io_error ~point:P.Io_read ~hit:5 in
  let inj, st = Sc.run ~plan cfg in
  Alcotest.(check bool) "fired" true (F.fired inj);
  Alcotest.(check bool) "completed" true (st.Sc.outcome = Sc.Completed);
  Alcotest.(check bool) "absorbed by >=2 retries" true
    ((Lsm_sim.Env.resil st.Sc.env).Lsm_sim.Env.retries >= 2);
  match Ch.check st with
  | [] -> ()
  | msgs -> Alcotest.failf "intermittent run failed:@.%s" (String.concat "\n" msgs)

(* A plan on a point this configuration never reaches (the group-commit
   seal without group commit) never fires and the scenario just
   completes. *)
let test_unreachable_plan () =
  let inj, st = Sc.run ~plan:(F.plan F.Crash ~point:P.Wal_group_seal ~hit:1)
      (small ())
  in
  Alcotest.(check bool) "not fired" false (F.fired inj);
  Alcotest.(check bool) "completed" true (st.Sc.outcome = Sc.Completed)

let () =
  Alcotest.run "lsm_faultsim"
    [
      ( "determinism",
        [
          Alcotest.test_case "counting runs repeat" `Quick
            test_counting_deterministic;
          Alcotest.test_case "required points announced" `Quick
            test_counting_covers_required_points;
          Alcotest.test_case "group-commit points announced" `Quick
            test_counting_covers_group_points;
          Alcotest.test_case "per-shard points announced" `Quick
            test_counting_covers_shard_points;
          Alcotest.test_case "every point announced" `Quick
            test_counting_covers_every_point;
          Alcotest.test_case "point names round-trip" `Quick
            test_point_names_round_trip;
          Alcotest.test_case "plan selection" `Quick test_select_plans;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "mutable-bitmap matrix" `Quick
            test_matrix_mutable_bitmap;
          Alcotest.test_case "validation matrix" `Quick test_matrix_validation;
          Alcotest.test_case "other seed" `Quick test_matrix_other_seed;
          Alcotest.test_case "group-commit mutable-bitmap matrix" `Quick
            test_matrix_grouped_mutable_bitmap;
          Alcotest.test_case "group-commit validation matrix" `Quick
            test_matrix_grouped_validation;
          Alcotest.test_case "sharded mutable-bitmap matrix" `Quick
            test_matrix_sharded_mutable_bitmap;
          Alcotest.test_case "sharded validation matrix" `Quick
            test_matrix_sharded_validation;
        ] );
      ( "crash points",
        [
          Alcotest.test_case "half-flushed primary pair" `Quick
            test_crash_between_pair_flush;
          Alcotest.test_case "interrupted lockstep merge" `Quick
            test_crash_mid_lockstep_merge;
          Alcotest.test_case "torn checkpoint" `Quick test_crash_mid_checkpoint;
          Alcotest.test_case "crash after commit durable" `Quick
            test_crash_at_commit_durable;
          Alcotest.test_case "crash before commit" `Quick
            test_crash_before_commit;
          Alcotest.test_case "crash at merge install" `Quick
            test_crash_at_merge_install;
          Alcotest.test_case "validation flush crash" `Quick
            test_crash_validation_flush;
          Alcotest.test_case "torn group at seal" `Quick
            test_crash_at_group_seal;
          Alcotest.test_case "torn group at fsync" `Quick
            test_crash_at_group_fsync;
          Alcotest.test_case "durable group at ack" `Quick
            test_crash_at_group_ack;
          Alcotest.test_case "crash at maint job start" `Quick
            test_crash_at_maint_job_start;
          Alcotest.test_case "crash at maint job install" `Quick
            test_crash_at_maint_job_install;
          Alcotest.test_case "grouped lockstep merge crash" `Quick
            test_crash_grouped_lockstep_merge;
          Alcotest.test_case "half-flushed shard pair" `Quick
            test_crash_between_shard_pair;
          Alcotest.test_case "crash at shard install" `Quick
            test_crash_at_shard_install;
          Alcotest.test_case "validation shard flush crash" `Quick
            test_crash_at_shard_begin_validation;
          Alcotest.test_case "transient io error" `Quick
            test_transient_io_error_retried;
          Alcotest.test_case "unreachable plan" `Quick test_unreachable_plan;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "kind naming round-trip" `Quick
            test_kind_round_trip;
          Alcotest.test_case "corruption detected and healed" `Quick
            test_corrupt_detected_and_healed;
          Alcotest.test_case "intermittent fault absorbed" `Quick
            test_intermittent_absorbed;
        ] );
    ]
