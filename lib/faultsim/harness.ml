(** The fault-matrix harness: enumerate every fault point a seeded
    scenario announces, choose a deterministic sample of (point, hit)
    plans within a budget, run each plan to its crash (or transient I/O
    error), and require the recovered state to pass the
    {!Checker} — twice, the second time after a post-recovery smoke
    workload proves the system still ingests, flushes, and checkpoints.

    Everything is derived from the scenario seed: a failure report names
    the exact plan, and one command replays it. *)

type failure = {
  f_plan : Fault.plan;
  f_stage : string;  (** ["post-recovery"] or ["post-smoke"] *)
  f_msgs : string list;
}

type report = {
  r_cfg : Scenario.config;
  r_points : (Lsm_sim.Fault_point.t * int) list;
      (** counting-run announcement totals, every point *)
  r_plans : Fault.plan list;  (** every plan the matrix ran *)
  r_crashed : int;  (** plans whose fault actually fired *)
  r_not_fired : Fault.plan list;
      (** selected plans that never triggered — an enumeration bug *)
  r_failures : failure list;
}

let ok r = r.r_failures = [] && r.r_not_fired = []

(* ------------------------------------------------------------------ *)
(* Plan selection *)

(** [select_plans ~kind ?fails ~budget hits] picks ~[budget] plans across
    the announced points: at least one per point, the rest distributed
    proportionally to announcement counts, hits stride-sampled across
    each point's range so early, middle, and late occurrences are all
    covered.  [fails] (default 1) makes every selected plan intermittent:
    fail that many consecutive announcements.  Purely arithmetic —
    deterministic given the counts. *)
let select_plans ~kind ?(fails = 1) ~budget hits =
  let hits = List.filter (fun (_, c) -> c > 0) hits in
  let npts = List.length hits in
  if npts = 0 || budget <= 0 then []
  else begin
    let total = List.fold_left (fun a (_, c) -> a + c) 0 hits in
    let extra = max 0 (budget - npts) in
    List.concat_map
      (fun (point, c) ->
        let quota = min c (1 + ((extra * c) + total - 1) / total) in
        let chosen = ref [] in
        for j = quota downto 1 do
          (* the j-th stride midpoint of [1, c] *)
          let h = 1 + (((2 * j) - 1) * c / (2 * quota)) in
          let h = max 1 (min c h) in
          match !chosen with
          | { Fault.hit; _ } :: _ when hit = h -> ()
          | _ -> chosen := { Fault.kind; point; hit = h; fails } :: !chosen
        done;
        List.rev !chosen)
      hits
  end

(* ------------------------------------------------------------------ *)
(* Matrix run *)

exception Baseline_failure of string list

(** [run cfg] enumerates (a fault-free counting run, which must itself
    pass the checker — otherwise the scenario or checker is broken and
    {!Baseline_failure} is raised), then runs a mixed matrix:
    ~[crash_budget] crash plans across every announced point,
    ~[io_budget] transient-error plans across the page-I/O points,
    ~[corrupt_budget] corruption plans (page checksum flips; the run must
    degrade, keep answering correctly, and heal), and
    ~[intermittent_budget] intermittent I/O plans split between windows
    the engine's retry budget absorbs ([fails = 2]) and windows that
    exhaust it and exercise the Unrecoverable path ([fails = 6]). *)
let run ?(crash_budget = 60) ?(io_budget = 12) ?(corrupt_budget = 8)
    ?(intermittent_budget = 6) cfg =
  let inj0, st0 = Scenario.run cfg in
  (match st0.Scenario.outcome with
  | Scenario.Completed -> ()
  | Scenario.Crashed _ -> assert false);
  (match Checker.check st0 with
  | [] -> ()
  | msgs -> raise (Baseline_failure msgs));
  let points = Fault.hits inj0 in
  let io_points =
    List.filter (fun (p, _) -> Lsm_sim.Fault_point.is_io p) points
  in
  let absorbed = intermittent_budget / 2 in
  let plans =
    select_plans ~kind:Fault.Crash ~budget:crash_budget points
    @ select_plans ~kind:Fault.Io_error ~budget:io_budget io_points
    @ select_plans ~kind:Fault.Corrupt ~budget:corrupt_budget io_points
    @ select_plans ~kind:Fault.Io_error ~fails:2 ~budget:absorbed io_points
    @ select_plans ~kind:Fault.Io_error ~fails:6
        ~budget:(intermittent_budget - absorbed) io_points
  in
  let crashed = ref 0 in
  let not_fired = ref [] in
  let failures = ref [] in
  List.iter
    (fun plan ->
      let inj, st = Scenario.run ~plan cfg in
      if not (Fault.fired inj) then not_fired := plan :: !not_fired
      else begin
        (match st.Scenario.outcome with
        | Scenario.Crashed _ -> incr crashed
        | Scenario.Completed -> ());
        match Checker.check st with
        | _ :: _ as msgs ->
            failures :=
              { f_plan = plan; f_stage = "post-recovery"; f_msgs = msgs }
              :: !failures
        | [] -> (
            Scenario.smoke st;
            match Checker.check st with
            | [] -> ()
            | msgs ->
                failures :=
                  { f_plan = plan; f_stage = "post-smoke"; f_msgs = msgs }
                  :: !failures)
      end)
    plans;
  {
    r_cfg = cfg;
    r_points = points;
    r_plans = plans;
    r_crashed = !crashed;
    r_not_fired = List.rev !not_fired;
    r_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

(** One ["  <name> <count>"] listing row, the name column as wide as the
    longest point name. *)
let pp_point_count ppf (p, c) =
  Format.fprintf ppf "  %-*s %6d" Lsm_sim.Fault_point.max_name_length
    (Lsm_sim.Fault_point.name p) c

(** The one command that replays a failing plan exactly. *)
let repro_command cfg (p : Fault.plan) =
  Printf.sprintf
    "lsm_repro faultsim --seed %d --txns %d%s%s%s%s --point %s --hit %d \
     --kind %s%s"
    cfg.Scenario.seed cfg.Scenario.txns
    (if cfg.Scenario.validation then " --validation" else "")
    (if cfg.Scenario.group_commit > 1 then
       Printf.sprintf " --group-commit %d" cfg.Scenario.group_commit
     else "")
    (if cfg.Scenario.maint_workers > 1 then
       Printf.sprintf " --maint-workers %d" cfg.Scenario.maint_workers
     else "")
    (if cfg.Scenario.mem_shards > 1 then
       Printf.sprintf " --mem-shards %d" cfg.Scenario.mem_shards
     else "")
    (Lsm_sim.Fault_point.name p.Fault.point) p.Fault.hit
    (Fault.kind_to_string p.Fault.kind)
    (if p.Fault.fails > 1 then Printf.sprintf " --fails %d" p.Fault.fails
     else "")

let print_report ppf r =
  let cfg = r.r_cfg in
  Format.fprintf ppf "faultsim: seed %d, %d txns, strategy %s%s%s%s@."
    cfg.Scenario.seed cfg.Scenario.txns
    (if cfg.Scenario.validation then "validation" else "mutable-bitmap")
    (if cfg.Scenario.group_commit > 1 then
       Printf.sprintf ", group-commit %d" cfg.Scenario.group_commit
     else "")
    (if cfg.Scenario.maint_workers > 1 then
       Printf.sprintf ", maint-workers %d" cfg.Scenario.maint_workers
     else "")
    (if cfg.Scenario.mem_shards > 1 then
       Printf.sprintf ", mem-shards %d" cfg.Scenario.mem_shards
     else "");
  Format.fprintf ppf "fault points announced (drive phase):@.";
  List.iter
    (fun (p, c) ->
      if c > 0 then Format.fprintf ppf "%a@." pp_point_count (p, c))
    r.r_points;
  Format.fprintf ppf "plans run: %d (%d fired as crashes)@."
    (List.length r.r_plans) r.r_crashed;
  List.iter
    (fun p ->
      Format.fprintf ppf "PLAN DID NOT FIRE: %s@.  repro: %s@."
        (Fault.describe p) (repro_command cfg p))
    r.r_not_fired;
  List.iter
    (fun f ->
      Format.fprintf ppf "FAILED (%s): %s@.  repro: %s@." f.f_stage
        (Fault.describe f.f_plan) (repro_command cfg f.f_plan);
      List.iter (fun m -> Format.fprintf ppf "    %s@." m) f.f_msgs)
    r.r_failures;
  if ok r then Format.fprintf ppf "all %d plans recovered to checker-accepted state@."
      (List.length r.r_plans)
  else
    Format.fprintf ppf "%d failures, %d unfired plans — reproduce with the commands above@."
      (List.length r.r_failures)
      (List.length r.r_not_fired)
