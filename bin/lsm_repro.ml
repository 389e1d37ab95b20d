(* Command-line driver for the reproduction experiments.

   lsm_repro list                 — show every experiment
   lsm_repro run fig14 [-s tiny]  — run one experiment
   lsm_repro all [-s medium]      — run the full suite
   lsm_repro inspect [-s small]   — amplification + component report
   lsm_repro serve [-s tiny]      — open-loop serving run / load sweep
   lsm_repro faultsim [--seed 1]  — fault-injection sweep + recovery check *)

open Cmdliner

let scale_arg =
  let doc = "Experiment scale: tiny, small, medium, or large." in
  let scales =
    List.map (fun s -> (s.Lsm_harness.Scale.name, s)) Lsm_harness.Scale.all
  in
  Arg.(
    value
    & opt (enum scales) Lsm_harness.Scale.small
    & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

(* An int that must be at least 1; a smaller one is a usage error, which
   exits 2 like any other bad flag. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be >= 1" s))
    | None -> Error (`Msg ("expected an integer, got " ^ s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Shared by `serve` and `faultsim`. *)
let maint_workers_arg =
  let doc =
    "Modeled maintenance workers (per partition, under $(b,serve)): with \
     more than one, independent merges overlap deterministically."
  in
  Arg.(value & opt pos_int 1 & info [ "maint-workers" ] ~docv:"N" ~doc)

let mem_shards_arg =
  let doc =
    "Memory shards per tree.  Under $(b,serve) the budget evicts one full \
     shard at a time, so sibling shards keep absorbing writes during a \
     flush; under $(b,faultsim) the drive phase rotates per-shard \
     flushes, exercising the per-shard flush crash points."
  in
  Arg.(value & opt pos_int 1 & info [ "mem-shards" ] ~docv:"N" ~doc)

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-8s %s\n" e.Lsm_harness.Registry.id
          e.Lsm_harness.Registry.description)
      Lsm_harness.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all experiments") Term.(const run $ const ())

(* Observability flags (shared by `run` and `all`). *)
let trace_arg =
  let doc =
    "Record engine spans and write a Chrome trace_event JSON to $(docv) \
     (load in chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc = "Print a per-environment text profile of the engine spans." in
  Arg.(value & flag & info [ "profile" ] ~doc)

let metrics_arg =
  let doc = "Print each environment's metrics registry after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let explain_arg =
  let doc =
    "Record query plans (EXPLAIN ANALYZE): after the run, print one plan \
     tree per distinct operation with per-node timing, counters, and I/O \
     deltas."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

let explain_json_arg =
  let doc = "Like $(b,--explain), but write the plans as JSON to $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "explain-json" ] ~docv:"FILE" ~doc)

let check_writable = function
  | Some path -> (
      (* Fail on an unwritable path now, not after the experiment. *)
      try close_out (open_out path)
      with Sys_error msg ->
        Printf.eprintf "cannot write file: %s\n" msg;
        exit 1)
  | None -> ()

let setup_obs ~trace ~profile ~metrics ~explain ~explain_json =
  check_writable trace;
  check_writable explain_json;
  if trace <> None || profile || metrics then Lsm_harness.Obs_hub.enable ();
  if explain || explain_json <> None then Lsm_harness.Obs_hub.enable_explain ()

let finish_obs ~trace ~profile ~metrics ~explain ~explain_json =
  (match trace with
  | Some path ->
      let n = Lsm_harness.Obs_hub.write_chrome_trace path in
      Printf.printf "wrote %d spans to %s\n" n path
  | None -> ());
  if profile then print_string (Lsm_harness.Obs_hub.profile_text ());
  if explain then print_string (Lsm_harness.Obs_hub.explain_text ());
  (match explain_json with
  | Some path ->
      Lsm_obs.Json.write ~path (Lsm_harness.Obs_hub.explain_json ());
      Printf.printf "wrote explain plans to %s\n" path
  | None -> ());
  if metrics then
    List.iter print_endline (Lsm_harness.Obs_hub.metrics_lines ())

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let run scale id trace profile metrics explain explain_json =
    match Lsm_harness.Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment %s (try `lsm_repro list`)\n" id;
        exit 1
    | Some e ->
        setup_obs ~trace ~profile ~metrics ~explain ~explain_json;
        Printf.printf "running %s (%s) at scale %s...\n%!" e.Lsm_harness.Registry.id
          e.Lsm_harness.Registry.description scale.Lsm_harness.Scale.name;
        let reports = e.Lsm_harness.Registry.run scale in
        let reports =
          if metrics then
            List.map
              (fun r ->
                Lsm_harness.Report.with_appendix r
                  (Lsm_harness.Obs_hub.metrics_lines ()))
              reports
          else reports
        in
        List.iter Lsm_harness.Report.print reports;
        finish_obs ~trace ~profile ~metrics:false ~explain ~explain_json
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one experiment by id (e.g. fig14)")
    Term.(
      const run $ scale_arg $ id_arg $ trace_arg $ profile_arg $ metrics_arg
      $ explain_arg $ explain_json_arg)

let csv_arg =
  let doc = "Also write one plot-ready CSV per table into $(docv)." in
  Arg.(
    value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)

let all_cmd =
  let run scale csv_dir trace profile metrics explain explain_json =
    setup_obs ~trace ~profile ~metrics ~explain ~explain_json;
    Lsm_harness.Registry.run_all ?csv_dir scale;
    finish_obs ~trace ~profile ~metrics ~explain ~explain_json
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Run the full experiment suite")
    Term.(
      const run $ scale_arg $ csv_arg $ trace_arg $ profile_arg $ metrics_arg
      $ explain_arg $ explain_json_arg)

let inspect_cmd =
  let json_arg =
    let doc = "Also write the full inspection document as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let queries_arg =
    let doc = "Point-lookup sample size for the read-amplification probe." in
    Arg.(value & opt int 200 & info [ "queries" ] ~docv:"N" ~doc)
  in
  let run scale json queries =
    check_writable json;
    Printf.printf "inspecting at scale %s (%d records)...\n%!"
      scale.Lsm_harness.Scale.name scale.Lsm_harness.Scale.records;
    let r = Lsm_harness.Inspect.run ~queries scale in
    List.iter Lsm_harness.Report.print r.Lsm_harness.Inspect.reports;
    match json with
    | Some path ->
        Lsm_obs.Json.write ~path r.Lsm_harness.Inspect.json;
        Printf.printf "wrote inspection document to %s\n" path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Build the fig-12 insert workload and report write/read/space \
          amplification plus per-component state")
    Term.(const run $ scale_arg $ json_arg $ queries_arg)

let serve_cmd =
  let module Driver = Lsm_serve.Driver in
  let partitions_arg =
    let doc = "Number of hash partitions (simulated nodes)." in
    Arg.(value & opt pos_int 4 & info [ "p"; "partitions" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc =
      "Offered arrival rate in requests per simulated second; 0 (the \
       default) picks 70% of an estimated capacity."
    in
    Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let sweep_arg =
    let doc =
      "Load-sweep mode: run a rate ladder anchored to the capacity \
       estimate and report the saturation knee."
    in
    Arg.(value & flag & info [ "sweep" ] ~doc)
  in
  let duration_arg =
    let doc = "Simulated seconds of open-loop traffic (0 = scale default)." in
    Arg.(value & opt float 0.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let seed_arg =
    let doc = "Workload seed; results are deterministic given the seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let users_arg =
    let doc = "Zipf key-population size (0 = scale default)." in
    Arg.(value & opt int 0 & info [ "users" ] ~docv:"N" ~doc)
  in
  let arrivals_arg =
    let doc =
      "Arrival process: $(b,poisson), $(b,uniform), or $(b,bursty) \
       (on/off-modulated Poisson, same mean rate)."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("poisson", `Poisson); ("uniform", `Uniform); ("bursty", `Bursty) ])
          `Poisson
      & info [ "arrivals" ] ~docv:"KIND" ~doc)
  in
  let chaos_arg =
    let doc =
      "Chaos fault plan: scheduled partition faults interpreted on the \
       arrival clock (e.g. $(b,crash\\@p2\\@t150ms); \
       $(b,io\\@p0\\@t50ms+40ms!6); $(b,slow\\@p3\\@t60ms+50ms*8); \
       $(b,corrupt\\@p1\\@t80ms)).  Repeatable; elements may also be \
       ';'-separated.  Runs against the durable (WAL-wrapped) cluster \
       with the degraded-correctness checker on."
    in
    Arg.(value & opt_all string [] & info [ "chaos" ] ~docv:"SPEC" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-request read deadline in simulated microseconds (chaos runs): \
       later answers are errors, hopeless queueing fails fast.  0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "deadline-us" ] ~docv:"US" ~doc)
  in
  let shed_backlog_arg =
    let doc =
      "Admission-control backlog cap in simulated microseconds (chaos \
       runs): shed a request when every partition it needs has more \
       queued work than this.  0 disables."
    in
    Arg.(value & opt float 0.0 & info [ "shed-backlog" ] ~docv:"US" ~doc)
  in
  let retries_arg =
    let doc = "Front-door retry budget per partition piece (chaos runs)." in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let hedge_arg =
    let doc =
      "Hedging threshold in simulated microseconds (chaos runs): a point \
       read slower than this gets one hedged re-attempt.  0 derives \
       deadline/2 when a deadline is set; negative disables."
    in
    Arg.(value & opt float 0.0 & info [ "hedge-us" ] ~docv:"US" ~doc)
  in
  let strategy_arg =
    let doc = "Delete-handling strategy: $(b,validation) or $(b,bitmap)." in
    Arg.(
      value
      & opt
          (enum
             [
               ("validation", Lsm_core.Strategy.validation);
               ("bitmap", Lsm_core.Strategy.mutable_bitmap);
             ])
          Lsm_core.Strategy.validation
      & info [ "strategy" ] ~docv:"KIND" ~doc)
  in
  let json_arg =
    let doc = "Write the serve document (lsm-repro-serve/1) to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let timeline_arg =
    let doc =
      "Collect windowed telemetry during the run and write the timeline \
       document (lsm-repro-timeline/1) to $(docv): per-window latency \
       histograms per class, per-partition busy/backlog/memtable series, \
       and a flight-recorder ring of maintenance events, plus the SLO \
       evaluation.  Incompatible with $(b,--sweep)."
    in
    Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)
  in
  let timeline_csv_arg =
    let doc = "Also write the timeline's windows as a plot-ready CSV." in
    Arg.(
      value & opt (some string) None & info [ "timeline-csv" ] ~docv:"FILE" ~doc)
  in
  let slo_arg =
    let doc =
      "SLO objective evaluated against the timeline, as SERIES:pQ<DUR \
       (e.g. $(b,point:p99<1500us), $(b,all:p95<2ms)).  Repeatable.  The \
       default, when a timeline is collected, is $(b,point:p99<1500us)."
    in
    Arg.(value & opt_all string [] & info [ "slo" ] ~docv:"SPEC" ~doc)
  in
  let window_ms_arg =
    let doc = "Timeline window width, in simulated milliseconds." in
    Arg.(value & opt float 100.0 & info [ "window-ms" ] ~docv:"MS" ~doc)
  in
  let run scale partitions rate sweep duration seed users arrivals chaos
      deadline_us shed_backlog_us retries hedge_us strategy json timeline
      timeline_csv slos window_ms maint_workers mem_shards metrics =
    check_writable json;
    check_writable timeline;
    check_writable timeline_csv;
    if sweep && timeline <> None then begin
      Printf.eprintf "--timeline records a single run; drop --sweep\n";
      exit 2
    end;
    if window_ms <= 0.0 then begin
      Printf.eprintf "--window-ms must be positive\n";
      exit 2
    end;
    let faults =
      match chaos with
      | [] -> []
      | specs -> (
          match Lsm_serve.Chaos.parse (String.concat ";" specs) with
          | Ok fs -> fs
          | Error msg ->
              Printf.eprintf "%s\n%s\n" msg Lsm_serve.Chaos.usage;
              exit 2)
    in
    List.iter
      (fun f ->
        if f.Lsm_serve.Chaos.part >= partitions then begin
          Printf.eprintf "chaos fault targets p%d but there are %d partitions\n"
            f.Lsm_serve.Chaos.part partitions;
          exit 2
        end)
      faults;
    if faults <> [] && sweep then begin
      Printf.eprintf "--chaos runs a single faulted run; drop --sweep\n";
      exit 2
    end;
    if retries < 0 then begin
      Printf.eprintf "--retries must be >= 0\n";
      exit 2
    end;
    let policy =
      { Lsm_serve.Chaos.deadline_us; retries; hedge_us; shed_backlog_us }
    in
    if faults = [] && policy <> Lsm_serve.Chaos.default_policy then begin
      Printf.eprintf
        "--deadline-us, --hedge-us, --shed-backlog and --retries shape chaos \
         runs; add --chaos or drop them\n";
      exit 2
    end;
    let objectives =
      let specs = if slos = [] then [ "point:p99<1500us" ] else slos in
      List.map
        (fun s ->
          match Lsm_obs.Slo.objective_of_string s with
          | Ok o -> o
          | Error msg ->
              Printf.eprintf "%s\n" msg;
              exit 2)
        specs
    in
    if metrics then Lsm_harness.Obs_hub.enable ();
    let cfg = Driver.config ~partitions scale in
    let cfg =
      {
        cfg with
        Driver.rate_rps = rate;
        duration_s = (if duration > 0.0 then duration else cfg.Driver.duration_s);
        users = (if users > 0 then users else cfg.Driver.users);
        arrivals;
        maint_workers;
        mem_shards;
        seed;
        strategy;
        chaos = faults;
        mix = (if faults = [] then cfg.Driver.mix else Driver.chaos_mix);
        policy;
      }
    in
    Printf.printf
      "serving at scale %s: %d partitions, budget %d bytes, %d users, seed %d...\n%!"
      scale.Lsm_harness.Scale.name partitions cfg.Driver.budget_bytes
      cfg.Driver.users seed;
    let reg = Lsm_obs.Metrics.create () in
    let checker_failed = ref false in
    let doc =
      if sweep then begin
        let sw = Driver.sweep cfg in
        Lsm_harness.Report.print (Lsm_serve.Serve_report.sweep_report sw);
        List.iter
          (fun r -> Lsm_harness.Report.print (Lsm_serve.Serve_report.report r))
          sw.Driver.points;
        (match sw.Driver.points with
        | [] -> ()
        | p -> Lsm_serve.Serve_report.publish (List.nth p (List.length p - 1)) reg);
        Lsm_serve.Serve_report.sweep_to_json cfg sw
      end
      else begin
        let ts =
          Option.map
            (fun _ ->
              Lsm_obs.Timeseries.create ~window_us:(window_ms *. 1000.0) ())
            timeline
        in
        let r, doc =
          if faults <> [] then begin
            let checker = Lsm_serve.Chaos_checker.create ~partitions () in
            let verdict = ref None in
            let c =
              Driver.run_chaos ?timeline:ts
                ~on_preload:(Lsm_serve.Chaos_checker.preload checker)
                ~observe:(Lsm_serve.Chaos_checker.observe checker)
                ~probe:(fun lookup ->
                  verdict :=
                    Some (Lsm_serve.Chaos_checker.verify checker ~probe:lookup))
                cfg
            in
            Lsm_harness.Report.print
              (Lsm_serve.Serve_report.chaos_report ?checker:!verdict c);
            (match !verdict with
            | Some v when not (Lsm_serve.Chaos_checker.ok v) ->
                checker_failed := true
            | _ -> ());
            ( c.Driver.c_base,
              Lsm_serve.Serve_report.chaos_to_json ?checker:!verdict c )
          end
          else begin
            let r = Driver.run ?timeline:ts cfg in
            Lsm_harness.Report.print (Lsm_serve.Serve_report.report r);
            (r, Lsm_serve.Serve_report.to_json r)
          end
        in
        Option.iter
          (fun ts ->
            Lsm_harness.Report.print
              (Lsm_serve.Serve_report.timeline_report r ts objectives);
            Option.iter
              (fun path ->
                Lsm_obs.Json.write ~path
                  (Lsm_serve.Serve_report.timeline_to_json r ts objectives);
                Printf.printf "wrote timeline document to %s\n" path)
              timeline;
            Option.iter
              (fun path ->
                let oc = open_out path in
                output_string oc (Lsm_obs.Timeseries.to_csv ts);
                close_out oc;
                Printf.printf "wrote timeline CSV to %s\n" path)
              timeline_csv)
          ts;
        Lsm_serve.Serve_report.publish r reg;
        doc
      end
    in
    (match json with
    | Some path ->
        Lsm_obs.Json.write ~path doc;
        Printf.printf "wrote serve document to %s\n" path
    | None -> ());
    if metrics then begin
      print_endline "metrics: serve";
      List.iter
        (fun l -> print_endline ("  " ^ l))
        (Lsm_obs.Metrics.to_lines reg);
      List.iter print_endline (Lsm_harness.Obs_hub.metrics_lines ())
    end;
    if !checker_failed then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Open-loop serving layer: arrival-driven mixed traffic against N \
          partitions under one global memory budget, with per-class \
          p50/p95/p99, a load-sweep mode that finds the saturation knee, \
          and a chaos mode that injects partition faults under load and \
          audits graceful degradation")
    Term.(
      const run $ scale_arg $ partitions_arg $ rate_arg $ sweep_arg
      $ duration_arg $ seed_arg $ users_arg $ arrivals_arg $ chaos_arg
      $ deadline_arg $ shed_backlog_arg $ retries_arg $ hedge_arg
      $ strategy_arg $ json_arg $ timeline_arg $ timeline_csv_arg $ slo_arg
      $ window_ms_arg $ maint_workers_arg $ mem_shards_arg $ metrics_arg)

let faultsim_cmd =
  let module F = Lsm_faultsim.Fault in
  let module Sc = Lsm_faultsim.Scenario in
  let module H = Lsm_faultsim.Harness in
  let module C = Lsm_faultsim.Checker in
  let seed_arg =
    let doc = "Workload seed; a failure reproduces from this alone." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let txns_arg =
    let doc = "Transactions per scenario run." in
    Arg.(value & opt int Sc.default_config.Sc.txns & info [ "txns" ] ~docv:"N" ~doc)
  in
  let points_arg =
    let doc = "Crash-plan budget: distinct (point, hit) crashes to inject." in
    Arg.(value & opt int 500 & info [ "points" ] ~docv:"N" ~doc)
  in
  let io_arg =
    let doc = "Transient I/O-error plan budget (page-I/O points only)." in
    Arg.(value & opt int 24 & info [ "io" ] ~docv:"N" ~doc)
  in
  let corrupt_arg =
    let doc = "Page-corruption plan budget (page-I/O points only)." in
    Arg.(value & opt int 12 & info [ "corrupt" ] ~docv:"N" ~doc)
  in
  let intermittent_arg =
    let doc =
      "Intermittent I/O plan budget: half fail 2 consecutive announcements \
       (absorbed by the engine's retry budget), half fail 6 (exhausting it)."
    in
    Arg.(value & opt int 8 & info [ "intermittent" ] ~docv:"N" ~doc)
  in
  let list_points_arg =
    let doc =
      "Run the fault-free counting run and list every fault point (the \
       valid --point values) with its occurrence count, then exit.  Points \
       this configuration never reaches count 0."
    in
    Arg.(value & flag & info [ "list-points" ] ~doc)
  in
  let validation_arg =
    let doc = "Run the Validation strategy instead of Mutable-bitmap." in
    Arg.(value & flag & info [ "validation" ] ~doc)
  in
  let group_commit_arg =
    let doc =
      "WAL group-commit batch size: commits enqueue into a group and one \
       fsync covers the whole group. 1 (default) = serial, one fsync per \
       commit."
    in
    Arg.(value & opt pos_int 1 & info [ "group-commit" ] ~docv:"N" ~doc)
  in
  let point_arg =
    let doc =
      "Reproduce a single plan: fault point name (with --hit); \
       $(b,--list-points) lists them."
    in
    let points =
      List.map
        (fun p -> (Lsm_sim.Fault_point.name p, p))
        Lsm_sim.Fault_point.all
    in
    Arg.(
      value
      & opt (some (enum points)) None
      & info [ "point" ] ~docv:"POINT" ~doc)
  in
  let hit_arg =
    let doc = "Which occurrence of --point fails (1-based)." in
    Arg.(value & opt pos_int 1 & info [ "hit" ] ~docv:"K" ~doc)
  in
  let kind_arg =
    let doc =
      "Fault kind for --point: " ^ Arg.doc_alts_enum F.kind_spellings ^ "."
    in
    Arg.(
      value & opt (enum F.kind_spellings) F.Crash
      & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let fails_arg =
    let doc =
      "Consecutive announcements of --point to fail (intermittent fault)."
    in
    Arg.(value & opt pos_int 1 & info [ "fails" ] ~docv:"K" ~doc)
  in
  let run seed txns points io corrupt intermittent validation group_commit
      maint_workers mem_shards list_points point hit kind fails =
    let cfg =
      {
        Sc.default_config with
        Sc.seed;
        txns;
        validation;
        group_commit;
        maint_workers;
        mem_shards;
      }
    in
    if list_points then begin
      let inj, _ = Sc.run cfg in
      Printf.printf
        "fault points, announcements in the drive phase (seed %d):\n" seed;
      List.iter (Format.printf "%a@." H.pp_point_count) (F.hits inj);
      print_newline ();
      print_string
        "serve-layer chaos faults (lsm_repro serve --chaos, per partition):\n\
        \  crash                  crash + durable-frontier recovery under load\n\
        \  io                     intermittent I/O-error window on io.* points\n\
        \  slow                   device I/O time multiplier window\n\
        \  corrupt                one-shot page corruption, quarantine + heal\n";
      print_string Lsm_serve.Chaos.usage
    end
    else
    match point with
    | Some p ->
        (* Single-plan reproduction: run it, print the checker verdict. *)
        let plan = { F.kind; point = p; hit; fails } in
        let inj, st = Sc.run ~plan cfg in
        if not (F.fired inj) then begin
          Printf.printf "plan did not fire: %s\n" (F.describe plan);
          exit 1
        end;
        let msgs = C.check st in
        let msgs =
          if msgs = [] then (Sc.smoke st; C.check st) else msgs
        in
        if msgs = [] then
          Printf.printf "recovered and checker-accepted: %s\n" (F.describe plan)
        else begin
          Printf.printf "FAILED: %s\n" (F.describe plan);
          List.iter (fun m -> Printf.printf "  %s\n" m) msgs;
          exit 1
        end
    | None -> (
        match
          H.run ~crash_budget:points ~io_budget:io ~corrupt_budget:corrupt
            ~intermittent_budget:intermittent cfg
        with
        | r ->
            H.print_report Format.std_formatter r;
            if not (H.ok r) then exit 1
        | exception H.Baseline_failure msgs ->
            Printf.printf "BASELINE FAILURE (no fault injected):\n";
            List.iter (fun m -> Printf.printf "  %s\n" m) msgs;
            exit 1)
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:
         "Enumerate crash, I/O-error, corruption, and intermittent fault \
          injection points over a seeded transactional workload, fail at \
          each, and verify recovery (and healing) against a \
          committed-state model")
    Term.(
      const run $ seed_arg $ txns_arg $ points_arg $ io_arg $ corrupt_arg
      $ intermittent_arg $ validation_arg $ group_commit_arg
      $ maint_workers_arg $ mem_shards_arg $ list_points_arg $ point_arg
      $ hit_arg $ kind_arg $ fails_arg)

let () =
  let doc =
    "Reproduction of 'Efficient Data Ingestion and Query Processing for \
     LSM-Based Storage Systems' (Luo & Carey, VLDB 2019)"
  in
  let code =
    Cmd.eval
      (Cmd.group
         (Cmd.info "lsm_repro" ~version:"1.0.0" ~doc)
         [ list_cmd; run_cmd; all_cmd; inspect_cmd; serve_cmd; faultsim_cmd ])
  in
  (* Cmdliner reports CLI misuse (unknown subcommand or flag) with its
     own exit code; map it to the conventional 2. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
