(* The installed binary's CLI contract, exercised by shelling out to the
   real executable: usage errors (unknown subcommand, unknown flag,
   missing required argument) exit 2; success exits 0.

   Tests run with the build directory as cwd, so the executable lives at
   ../bin/ relative to us (declared as a dune dep). *)

let exe = "../bin/lsm_repro.exe"

let run args =
  Sys.command
    (Filename.quote_command exe ~stdout:"/dev/null" ~stderr:"/dev/null" args)

let test_unknown_subcommand () =
  Alcotest.(check int) "exit 2" 2 (run [ "definitely-not-a-subcommand" ])

let test_unknown_flag () =
  Alcotest.(check int) "exit 2" 2 (run [ "list"; "--no-such-flag" ])

let test_missing_required_arg () =
  (* `run` requires an experiment id. *)
  Alcotest.(check int) "exit 2" 2 (run [ "run" ])

let test_bad_scale_value () =
  Alcotest.(check int)
    "unknown flag on inspect" 2
    (run [ "inspect"; "--no-such-flag" ])

let test_list_ok () = Alcotest.(check int) "exit 0" 0 (run [ "list" ])

let test_help_ok () = Alcotest.(check int) "exit 0" 0 (run [ "--help" ])

(* ------------------------------------------------------------------ *)
(* Machine-readable output contracts: the JSON documents the binary
   writes parse with our own parser and keep their schema promises. *)

module J = Lsm_obs.Json

let parse_file path =
  match J.read ~path with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" path e

let member k j =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let str k j =
  match J.to_string_opt (member k j) with
  | Some s -> s
  | None -> Alcotest.failf "field %S not a string" k

let items k j =
  match J.to_list (member k j) with
  | Some l -> l
  | None -> Alcotest.failf "field %S not a list" k

let num k j =
  (* amplifications may serialize as Int or Float *)
  match member k j with
  | J.Int n -> float_of_int n
  | J.Float f -> f
  | _ -> Alcotest.failf "field %S not a number" k

let int_fields j =
  match j with
  | J.Obj kvs ->
      List.map
        (fun (k, v) ->
          match v with
          | J.Int n -> (k, n)
          | _ -> Alcotest.failf "field %S not an int" k)
        kvs
  | _ -> Alcotest.fail "expected an object of ints"

let test_inspect_json () =
  let path = Filename.temp_file "inspect" ".json" in
  Alcotest.(check int) "inspect exits 0" 0
    (run [ "inspect"; "-s"; "tiny"; "--json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-inspect/1" (str "schema" j);
  Alcotest.(check string) "scale" "tiny" (str "scale" j);
  let write = member "write" j and space = member "space" j in
  Alcotest.(check bool) "write amplification >= 1" true
    (num "amplification" write >= 1.0);
  Alcotest.(check bool) "read amplification >= 0" true
    (num "amplification" (member "read" j) >= 0.0);
  Alcotest.(check bool) "space amplification >= 1" true
    (num "amplification" space >= 1.0);
  let write_counters =
    match write with
    | J.Obj kvs -> List.filter (fun (k, _) -> k <> "amplification") kvs
    | _ -> Alcotest.fail "write section not an object"
  in
  List.iter
    (fun (k, v) ->
      if v < 0 then Alcotest.failf "write counter %s negative" k)
    (int_fields (J.Obj write_counters));
  let gauges = member "gauges" j in
  Alcotest.(check bool) "memory gauge reported" true
    (num "mem.resident_bytes" gauges >= 0.0);
  let comps = items "components" j in
  Alcotest.(check bool) "has components" true (comps <> []);
  List.iter
    (fun c ->
      ignore (str "tree" c);
      let rows = int_fields (J.Obj [ ("rows", member "rows" c) ]) in
      Alcotest.(check bool) "rows non-negative" true
        (List.for_all (fun (_, v) -> v >= 0) rows);
      let lo = num "min_ts" c and hi = num "max_ts" c in
      Alcotest.(check bool) "component id ordered" true (lo <= hi))
    comps

(* In every explain plan node, each inclusive I/O counter equals its own
   self counter plus the sum over children — missing keys count as 0. *)
let rec check_io_decomposition name node =
  let get m k = Option.value ~default:0 (List.assoc_opt k m) in
  let io = int_fields (member "io" node)
  and self = int_fields (member "io_self" node) in
  let children = items "children" node in
  let child_ios =
    List.map (fun c -> int_fields (member "io" c)) children
  in
  let keys =
    List.sort_uniq compare
      (List.map fst io @ List.map fst self
      @ List.concat_map (fun m -> List.map fst m) child_ios)
  in
  List.iter
    (fun k ->
      let sum = List.fold_left (fun acc m -> acc + get m k) 0 child_ios in
      Alcotest.(check int)
        (Printf.sprintf "%s: io.%s = self + children" name k)
        (get io k)
        (get self k + sum))
    keys;
  List.iteri
    (fun i c -> check_io_decomposition (Printf.sprintf "%s/%d" name i) c)
    children

let test_explain_json () =
  let path = Filename.temp_file "explain" ".json" in
  Alcotest.(check int) "run exits 0" 0
    (run [ "run"; "fig16"; "-s"; "tiny"; "--explain-json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-explain/1" (str "schema" j);
  let envs = items "envs" j in
  Alcotest.(check bool) "has environments" true (envs <> []);
  List.iter
    (fun env ->
      let plans = items "plans" env in
      Alcotest.(check bool) "env has plans" true (plans <> []);
      List.iter
        (fun p ->
          let name = str "name" p in
          let execs = num "executions" p in
          Alcotest.(check bool) (name ^ " executed") true (execs >= 1.0);
          let root = member "root" p in
          Alcotest.(check string) "root name matches plan" name
            (str "name" root);
          check_io_decomposition name root)
        plans)
    envs

(* The serve subcommand: exit code and the lsm-repro-serve/1 schema. *)
let test_serve_json () =
  let path = Filename.temp_file "serve" ".json" in
  Alcotest.(check int) "serve exits 0" 0
    (run
       [ "serve"; "-s"; "tiny"; "--duration"; "0.2"; "--rate"; "1000";
         "--seed"; "7"; "--json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-serve/1" (str "schema" j);
  Alcotest.(check string) "mode" "run" (str "mode" j);
  Alcotest.(check string) "scale echoed" "tiny" (str "scale" (member "config" j));
  let run_o = member "run" j in
  Alcotest.(check bool) "requests positive" true (num "requests" run_o > 0.0);
  let classes = items "classes" run_o in
  Alcotest.(check (list string))
    "one row per op class plus all"
    [ "ingest"; "point"; "multi"; "secondary"; "scan"; "all" ]
    (List.map (str "class") classes);
  List.iter
    (fun c ->
      let p50 = num "p50_us" c and p99 = num "p99_us" c in
      Alcotest.(check bool)
        (str "class" c ^ ": 0 <= p50 <= p99")
        true
        (p50 >= 0.0 && p50 <= p99))
    classes;
  let b = member "budget" run_o in
  Alcotest.(check bool) "budget honoured" true (member "ok" b = J.Bool true);
  Alcotest.(check bool) "peak under budget" true
    (num "peak_bytes" b <= num "budget_bytes" b);
  Alcotest.(check bool) "coordinator flushed" true (num "evictions" b > 0.0)

let test_serve_sweep_json () =
  let path = Filename.temp_file "serve_sweep" ".json" in
  Alcotest.(check int) "sweep exits 0" 0
    (run
       [ "serve"; "-s"; "tiny"; "--sweep"; "--duration"; "0.15"; "--seed"; "7";
         "--json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-serve/1" (str "schema" j);
  Alcotest.(check string) "mode" "sweep" (str "mode" j);
  let sw = member "sweep" j in
  Alcotest.(check bool) "capacity positive" true (num "capacity_rps" sw > 0.0);
  let points = items "points" sw in
  Alcotest.(check bool) "ladder has rungs" true (List.length points >= 3);
  (* The default ladder straddles the capacity estimate, so the knee must
     be visible: at least one rung saturated, at least one not. *)
  let sat =
    List.map (fun p -> member "saturated" p = J.Bool true) points
  in
  Alcotest.(check bool) "some rung saturated" true (List.mem true sat);
  Alcotest.(check bool) "some rung below saturation" true (List.mem false sat);
  match member "knee_rps" sw with
  | J.Float k -> Alcotest.(check bool) "knee positive" true (k > 0.0)
  | J.Null -> Alcotest.fail "expected a knee on the default ladder"
  | _ -> Alcotest.fail "knee_rps must be a number or null"

(* The timeline document: lsm-repro-timeline/1 schema, dense indexed
   windows, the flight-recorder ring, and an SLO section that echoes the
   requested objective.  The CSV sidecar is a header plus one row per
   window. *)
let test_serve_timeline_json () =
  let path = Filename.temp_file "timeline" ".json" in
  let csv = Filename.temp_file "timeline" ".csv" in
  Alcotest.(check int) "serve --timeline exits 0" 0
    (run
       [ "serve"; "-s"; "tiny"; "--duration"; "0.2"; "--rate"; "1000";
         "--seed"; "7"; "--window-ms"; "50"; "--slo"; "point:p99<1500us";
         "--timeline"; path; "--timeline-csv"; csv ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-timeline/1" (str "schema" j);
  Alcotest.(check string) "scale echoed" "tiny" (str "scale" (member "config" j));
  Alcotest.(check bool) "run section present" true
    (num "requests" (member "run" j) > 0.0);
  let tl = member "timeline" j in
  Alcotest.(check (float 0.0)) "window width echoed" 50_000.0
    (num "window_us" tl);
  let n = int_of_float (num "n_windows" tl) in
  Alcotest.(check bool) "windows collected" true (n > 0);
  let windows = items "windows" tl in
  Alcotest.(check int) "windows dense" n (List.length windows);
  List.iteri
    (fun i w ->
      Alcotest.(check int) "windows indexed in order" i
        (int_of_float (num "i" w)))
    windows;
  let total =
    List.fold_left
      (fun acc w ->
        match J.member "all" (member "series" w) with
        | Some s -> acc + int_of_float (num "count" s)
        | None -> acc)
      0 windows
  in
  Alcotest.(check bool) "the all series counted completions" true (total > 0);
  let ev = member "events" tl in
  Alcotest.(check bool) "ring accounting sane" true
    (num "recorded" ev >= num "dropped" ev);
  let slo = member "slo" j in
  (match items "objectives" slo with
  | [ o ] ->
      Alcotest.(check string) "objective series" "point" (str "series" o);
      Alcotest.(check (float 1e-9)) "objective threshold" 1500.0
        (num "threshold_us" o)
  | _ -> Alcotest.fail "expected exactly one objective");
  ignore (items "alerts" slo);
  ignore (items "findings" slo);
  ignore (items "flight_records" slo);
  let ic = open_in csv in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove csv;
  match List.rev !lines with
  | header :: rows ->
      Alcotest.(check bool) "CSV header shape" true
        (String.length header > 16
        && String.sub header 0 15 = "window,start_us");
      Alcotest.(check int) "CSV row per window" n (List.length rows)
  | [] -> Alcotest.fail "empty timeline CSV"

let test_serve_timeline_rejects_sweep () =
  Alcotest.(check int) "--timeline with --sweep exits 2" 2
    (run
       [ "serve"; "-s"; "tiny"; "--sweep"; "--timeline"; "/dev/null" ]);
  Alcotest.(check int) "bad --slo spec exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--slo"; "nonsense" ]);
  Alcotest.(check int) "non-positive --window-ms exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--window-ms"; "0" ])

let test_serve_bad_arrivals () =
  Alcotest.(check int) "unknown arrival process exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--arrivals"; "fractal" ])

(* The chaos flag's contract: parse errors and impossible plans are
   usage errors (exit 2); a good run passes its checker (exit 0) and
   writes the chaos document. *)
let test_serve_chaos_bad_specs () =
  Alcotest.(check int) "unknown fault kind exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--chaos"; "explode@p0@t5ms" ]);
  Alcotest.(check int) "missing window exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--chaos"; "io@p0@t5ms" ]);
  Alcotest.(check int) "bad time unit exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--chaos"; "crash@p0@t5parsecs" ]);
  Alcotest.(check int) "fault beyond partition count exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "-p"; "4"; "--chaos"; "crash@p7@t5ms" ]);
  Alcotest.(check int) "--chaos with --sweep exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--sweep"; "--chaos"; "crash@p0@t5ms" ]);
  Alcotest.(check int) "unknown strategy exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--strategy"; "eager" ])

(* The front-door policy flags only shape chaos runs: without --chaos a
   non-default value is a usage error, not a silent no-op. *)
let test_serve_policy_needs_chaos () =
  List.iter
    (fun (flag, v) ->
      Alcotest.(check int) (flag ^ " without --chaos exits 2") 2
        (run [ "serve"; "-s"; "tiny"; flag; v ]))
    [
      ("--deadline-us", "8000");
      ("--hedge-us", "500");
      ("--shed-backlog", "30000");
      ("--retries", "3");
    ];
  Alcotest.(check int) "--deadline-us with --sweep exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--sweep"; "--deadline-us"; "8000" ])

let test_serve_chaos_json () =
  let path = Filename.temp_file "serve_chaos" ".json" in
  Alcotest.(check int) "chaos run passes its checker" 0
    (run
       [ "serve"; "-s"; "tiny"; "--duration"; "0.2"; "--rate"; "800";
         "--seed"; "7"; "--chaos"; "crash@p1@t50ms"; "--deadline-us"; "8000";
         "--json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-serve/1" (str "schema" j);
  Alcotest.(check string) "mode" "chaos" (str "mode" j);
  let c = member "chaos" j in
  Alcotest.(check bool) "availability in (0, 1]" true
    (num "availability" c > 0.0 && num "availability" c <= 1.0);
  let v = member "checker" j in
  Alcotest.(check bool) "checker ok" true (member "ok" v = J.Bool true)

(* The faultsim subcommand's exit-code contract. *)
let test_faultsim_ok () =
  Alcotest.(check int) "small matrix passes" 0
    (run [ "faultsim"; "--seed"; "3"; "--txns"; "15"; "--points"; "20"; "--io"; "4" ])

let test_faultsim_single_plan () =
  Alcotest.(check int) "single-plan repro passes" 0
    (run
       [ "faultsim"; "--seed"; "3"; "--txns"; "15"; "--point";
         "dataset.flush.pair"; "--hit"; "1"; "--kind"; "crash" ])

(* A real point this configuration never announces (the group seal
   without --group-commit) runs the scenario and reports an unfired plan. *)
let test_faultsim_unreachable_plan_fails () =
  Alcotest.(check int) "unfired plan exits 1" 1
    (run
       [ "faultsim"; "--seed"; "3"; "--txns"; "15"; "--point"; "wal.group.seal";
         "--hit"; "1" ])

(* Plans that can never fire are usage errors, rejected before any run. *)
let test_faultsim_bad_plan_usage () =
  let base = [ "faultsim"; "--seed"; "3"; "--txns"; "15" ] in
  Alcotest.(check int) "unknown --point exits 2" 2
    (run (base @ [ "--point"; "no.such.point"; "--hit"; "1" ]));
  Alcotest.(check int) "misspelt --point exits 2" 2
    (run (base @ [ "--point"; "lsm.flsh.begin" ]));
  Alcotest.(check int) "--hit 0 exits 2" 2
    (run (base @ [ "--point"; "io.read"; "--hit"; "0" ]));
  Alcotest.(check int) "--fails 0 exits 2" 2
    (run (base @ [ "--point"; "io.read"; "--fails"; "0" ]));
  Alcotest.(check int) "unknown --kind exits 2" 2
    (run (base @ [ "--point"; "io.read"; "--kind"; "bogus" ]))

(* --list-points prints the whole closed set, one aligned line per point,
   with 0 for the points this configuration never reaches. *)
let test_faultsim_list_points () =
  let path = Filename.temp_file "points" ".txt" in
  let code =
    Sys.command
      (Filename.quote_command exe ~stdout:path ~stderr:"/dev/null"
         [ "faultsim"; "--seed"; "3"; "--txns"; "15"; "--list-points" ])
  in
  Alcotest.(check int) "exit 0" 0 code;
  let lines = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let rows =
    List.filter_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ name; count ] when Lsm_sim.Fault_point.of_name name <> None ->
            Some (l, name, int_of_string count)
        | _ -> None)
      (String.split_on_char '\n' lines)
  in
  Alcotest.(check (list string)) "every point, in type order"
    (List.map Lsm_sim.Fault_point.name Lsm_sim.Fault_point.all)
    (List.map (fun (_, n, _) -> n) rows);
  Alcotest.(check int) "unreached point shows 0" 0
    (List.assoc "wal.group.seal" (List.map (fun (_, n, c) -> (n, c)) rows));
  Alcotest.(check int) "aligned count column" 1
    (List.length
       (List.sort_uniq compare
          (List.map (fun (l, _, _) -> String.length l) rows)))

(* Group-commit + overlapping-maintenance flags: matrices pass, the
   repro-command contract reaches the new fault points, and nonsense
   values are usage errors. *)
let test_faultsim_grouped_ok () =
  Alcotest.(check int) "grouped matrix passes" 0
    (run
       [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--group-commit"; "4";
         "--maint-workers"; "2"; "--points"; "20"; "--io"; "4" ])

let test_faultsim_group_point_repro () =
  Alcotest.(check int) "crash inside group fsync recovers" 0
    (run
       [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--group-commit"; "4";
         "--point"; "wal.group.fsync"; "--hit"; "1"; "--kind"; "crash" ]);
  Alcotest.(check int) "crash at maint job install recovers" 0
    (run
       [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--maint-workers"; "2";
         "--point"; "maint.job.install"; "--hit"; "1"; "--kind"; "crash" ])

let test_faultsim_group_points_need_flags () =
  (* Without the flags the points are never announced, so the plan must
     report as unfired (exit 1), not silently pass. *)
  Alcotest.(check int) "wal.group.fsync absent in serial mode" 1
    (run
       [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--point";
         "wal.group.fsync"; "--hit"; "1"; "--kind"; "crash" ])

let test_faultsim_bad_group_flags () =
  Alcotest.(check int) "--group-commit 0 exits 2" 2
    (run [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--group-commit"; "0" ]);
  Alcotest.(check int) "--maint-workers 0 exits 2" 2
    (run [ "faultsim"; "--seed"; "5"; "--txns"; "15"; "--maint-workers"; "0" ])

let test_serve_maint_workers () =
  let path = Filename.temp_file "serve_mw" ".json" in
  Alcotest.(check int) "serve --maint-workers 2 exits 0" 0
    (run
       [ "serve"; "-s"; "tiny"; "--duration"; "0.2"; "--rate"; "1000";
         "--maint-workers"; "2"; "--seed"; "7"; "--json"; path ]);
  let j = parse_file path in
  Sys.remove path;
  Alcotest.(check string) "schema" "lsm-repro-serve/1" (str "schema" j);
  Alcotest.(check int) "--maint-workers 0 exits 2" 2
    (run [ "serve"; "-s"; "tiny"; "--maint-workers"; "0" ])

let () =
  if not (Sys.file_exists exe) then (
    Printf.eprintf "test_cli: %s not found (run under dune)\n" exe;
    exit 1);
  Alcotest.run "lsm_repro_cli"
    [
      ( "exit codes",
        [
          Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
          Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
          Alcotest.test_case "missing required arg" `Quick
            test_missing_required_arg;
          Alcotest.test_case "unknown flag on inspect" `Quick
            test_bad_scale_value;
          Alcotest.test_case "list succeeds" `Quick test_list_ok;
          Alcotest.test_case "--help succeeds" `Quick test_help_ok;
        ] );
      ( "json documents",
        [
          Alcotest.test_case "inspect --json schema" `Quick test_inspect_json;
          Alcotest.test_case "explain-json io decomposition" `Quick
            test_explain_json;
        ] );
      ( "serve",
        [
          Alcotest.test_case "serve --json schema" `Quick test_serve_json;
          Alcotest.test_case "serve --sweep knee" `Quick test_serve_sweep_json;
          Alcotest.test_case "serve --timeline schema" `Quick
            test_serve_timeline_json;
          Alcotest.test_case "timeline flag validation" `Quick
            test_serve_timeline_rejects_sweep;
          Alcotest.test_case "bad arrivals flag" `Quick test_serve_bad_arrivals;
          Alcotest.test_case "chaos flag validation" `Quick
            test_serve_chaos_bad_specs;
          Alcotest.test_case "policy flags need --chaos" `Quick
            test_serve_policy_needs_chaos;
          Alcotest.test_case "chaos run + document" `Quick
            test_serve_chaos_json;
        ] );
      ( "faultsim",
        [
          Alcotest.test_case "matrix passes" `Quick test_faultsim_ok;
          Alcotest.test_case "single plan repro" `Quick
            test_faultsim_single_plan;
          Alcotest.test_case "unfired plan fails" `Quick
            test_faultsim_unreachable_plan_fails;
          Alcotest.test_case "bad plan is a usage error" `Quick
            test_faultsim_bad_plan_usage;
          Alcotest.test_case "list-points covers the type" `Quick
            test_faultsim_list_points;
          Alcotest.test_case "grouped matrix passes" `Quick
            test_faultsim_grouped_ok;
          Alcotest.test_case "group/maint point repro" `Quick
            test_faultsim_group_point_repro;
          Alcotest.test_case "group points gated by flags" `Quick
            test_faultsim_group_points_need_flags;
          Alcotest.test_case "bad group flags" `Quick
            test_faultsim_bad_group_flags;
          Alcotest.test_case "serve --maint-workers" `Quick
            test_serve_maint_workers;
        ] );
    ]
