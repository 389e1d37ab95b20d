(* End-to-end benchmark of the serving stack: four workloads, metrics on
   the simulated and the host clock, and a traced run that splits them
   into per-layer numbers.

     e2e.exe run [--workload W]... [--seed N] [--reps N | --seconds S]
                 [--trace 0|1] [--json F] [--trace-dir D] [--smoke]
                 [--spec BENCHMARK.json]
     e2e.exe compare A.json B.json [--spec BENCHMARK.json]

   Every repetition runs as its own single-threaded child process, one
   at a time.  [run] exits 1 when a check fails and 2 on bad usage; its
   last line of output, when one workload is selected, is the result as
   one JSON object.  See README.md. *)

module W = Workloads
module Json = Lsm_obs.Json

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

let parse_args name args specs ~anon usage =
  try
    Arg.parse_argv ~current:(ref 0) (Array.of_list (name :: args)) specs anon
      usage
  with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0

(* ------------------------------------------------------------------ *)
(* The benchmark definition *)

type spec_metric = {
  m_name : string;
  m_unit : string;
  m_better : string;
  m_bound : float option;
}

type spec = { end_to_end : spec_metric list; per_layer : spec_metric list }

let read_spec path =
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let metrics key doc =
    match Option.bind (Json.member key doc) Json.to_list with
    | None -> die "%s: no %S list" path key
    | Some l ->
        List.map
          (fun j ->
            match (str "name" j, str "unit" j, str "better" j) with
            | Some m_name, Some m_unit, Some m_better ->
                let bound = Json.member "bound" j in
                let m_bound = Option.bind bound Json.to_float in
                { m_name; m_unit; m_better; m_bound }
            | _ -> die "%s: a %s entry lacks name, unit or better" path key)
          l
  in
  match Json.read ~path with
  | Error e -> die "%s: %s" path e
  | Ok doc ->
      {
        end_to_end = metrics "end_to_end" doc;
        per_layer = metrics "per_layer" doc;
      }

let spec_arg spec_path =
  ( "--spec",
    Arg.Set_string spec_path,
    "F  the benchmark definition (default BENCHMARK.json)" )

(* ------------------------------------------------------------------ *)
(* Children: one repetition each, reported as tagged lines *)

let child_main args =
  let workload = ref "" and seed = ref 42 and smoke = ref false in
  let traced = ref false and first = ref false in
  parse_args "child" args
    [
      ("--workload", Arg.Set_string workload, "");
      ("--seed", Arg.Set_int seed, "");
      ("--smoke", Arg.Set smoke, "");
      ("--traced", Arg.Set traced, "");
      ("--first", Arg.Set first, "");
    ]
    ~anon:(fun a -> die "child: unexpected %s" a)
    "";
  let size = if !smoke then W.Smoke else W.Full in
  let m = { W.size; seed = !seed; traced = !traced; first = !first } in
  let r = W.run m !workload in
  let p fmt = Printf.printf fmt in
  p "setup_s %h\ntimed_s %h\nops %d\nerrors %d\nheap_mb %h\n" r.W.setup_s
    r.W.timed_s r.W.ops r.W.errors r.W.heap_mb;
  List.iter (fun (k, v) -> p "sim %s %h\n" k v) r.W.sim;
  List.iter (fun (k, v) -> p "host %s %h\n" k v) r.W.host;
  List.iter (fun (k, v) -> p "layer %s %h\n" k v) r.W.layers;
  List.iter (fun s -> p "fail %s\n" s) r.W.failures;
  List.iter (fun s -> p "table %s\n" s) (String.split_on_char '\n' r.W.table)

(* Read a child's report back; lines keep their order. *)
let parse_rep lines =
  let empty =
    {
      W.setup_s = 0.0;
      timed_s = 0.0;
      ops = 0;
      errors = 0;
      heap_mb = 0.0;
      sim = [];
      host = [];
      layers = [];
      failures = [];
      table = "";
    }
  in
  let split s =
    match String.index_opt s ' ' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  let r =
    List.fold_left
      (fun (r : W.rep) line ->
        let key, rest = split line in
        let named () =
          let k, v = split rest in
          (k, float_of_string v)
        in
        match key with
        | "setup_s" -> { r with setup_s = float_of_string rest }
        | "timed_s" -> { r with timed_s = float_of_string rest }
        | "ops" -> { r with ops = int_of_string rest }
        | "errors" -> { r with errors = int_of_string rest }
        | "heap_mb" -> { r with heap_mb = float_of_string rest }
        | "sim" -> { r with sim = named () :: r.sim }
        | "host" -> { r with host = named () :: r.host }
        | "layer" -> { r with layers = named () :: r.layers }
        | "fail" -> { r with failures = rest :: r.failures }
        | "table" -> { r with table = r.table ^ rest ^ "\n" }
        | _ -> r)
      empty lines
  in
  {
    r with
    sim = List.rev r.sim;
    host = List.rev r.host;
    layers = List.rev r.layers;
    failures = List.rev r.failures;
  }

(* Run one repetition in a fresh process and wait for it. *)
let spawn args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let argv = Array.of_list (exe :: "child" :: args) in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = String.split_on_char '\n' (In_channel.input_all ic) in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
      try Ok (parse_rep lines) with _ -> Error "unreadable child output")
  | Unix.WEXITED c -> Error (Printf.sprintf "child exited %d" c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "child killed by signal %d" s)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles, as Python's statistics.quantiles(n=4)
   computes them (the "exclusive" method). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (Float.nan, Float.nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = Float.of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* Metric dictionary *)

let clock name =
  if List.mem name [ "setup_s"; "host_ops_per_s"; "peak_heap_mb" ] then "host"
  else "sim"

(* Unit, direction and bound of an end-to-end metric: the benchmark
   definition's where it names the metric.  The others are the
   per-workload simulated latencies and [failed_frac]; deterministic for
   a seed, they may move by 1%. *)
let describe spec name =
  match List.find_opt (fun m -> m.m_name = name) spec.end_to_end with
  | Some m -> (m.m_unit, m.m_better, Option.value ~default:0.01 m.m_bound)
  | None -> ((if name = "failed_frac" then "frac" else "ms"), "lower", 0.01)

(* ------------------------------------------------------------------ *)
(* One workload's results *)

type result = {
  workload : string;
  reps : int;
  traced : W.rep option;
  metrics : (string * float list) list;  (** end to end: samples *)
  layers : (string * float) list;
  failures : string list;
  attempted : int;
  failed : int;
}

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let aggregate spec ~workload ~traced_on (reps : W.rep list)
    (traced : W.rep option) failures =
  let first = List.hd reps in
  let col f = List.map (fun (r : W.rep) -> f r) reps in
  let sum f = List.fold_left ( + ) 0 (col f) in
  (* Simulated metrics come from the first repetition; every later one
     must reproduce each of them that it measures, bit for bit. *)
  let drift =
    List.concat_map
      (fun (r : W.rep) ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k first.W.sim with
            | Some v0 when not (same_bits v v0) ->
                Some
                  (Printf.sprintf
                     "simulated %s differs between repetitions: %h vs %h" k v0
                     v)
            | _ -> None)
          r.W.sim)
      reps
  in
  let errors = sum (fun r -> r.W.errors) in
  let attempted = sum (fun r -> r.W.ops) in
  let failed_frac = Float.of_int errors /. Float.of_int (max 1 attempted) in
  let metrics =
    [
      ("setup_s", col (fun r -> r.W.setup_s));
      ("host_ops_per_s", col (fun r -> Float.of_int r.W.ops /. r.W.timed_s));
      ("peak_heap_mb", col (fun r -> r.W.heap_mb));
    ]
    @ List.map (fun (k, v) -> (k, [ v ])) first.W.sim
    @ [ ("failed_frac", [ failed_frac ]) ]
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
        let host_layers =
          List.map
            (fun (k, _) ->
              let v r = Option.value ~default:Float.nan (List.assoc_opt k r) in
              (k, median (col (fun r -> v r.W.host))))
            first.W.host
        in
        let base = median (col (fun r -> r.W.timed_s)) in
        t.W.layers @ host_layers
        @ [ ("obs.overhead_frac", (t.W.timed_s /. base) -. 1.0) ]
  in
  let missing names have =
    List.filter_map
      (fun m ->
        if List.mem_assoc m.m_name have then None
        else Some ("metric missing: " ^ m.m_name))
      names
  in
  let traced_reps = Option.to_list traced in
  let all_reps = reps @ traced_reps in
  let total f = List.fold_left (fun n (r : W.rep) -> n + f r) 0 all_reps in
  {
    workload;
    reps = List.length reps;
    traced;
    metrics;
    layers;
    failures =
      failures
      @ List.concat_map (fun (r : W.rep) -> r.W.failures) all_reps
      @ drift
      @ missing spec.end_to_end metrics
      @ if traced_on then missing spec.per_layer layers else [];
    attempted = total (fun r -> r.W.ops);
    failed = total (fun r -> r.W.errors);
  }

(* ------------------------------------------------------------------ *)
(* Reporting *)

let print_result spec res =
  Printf.printf "\n== %s: %d repetition%s, %s\n" res.workload res.reps
    (if res.reps = 1 then "" else "s")
    (if res.failures = [] then "all checks pass" else "CHECKS FAILED");
  Printf.printf "  %-20s %-6s %-5s %14s %14s %14s %3s %6s\n" "metric" "unit"
    "clock" "median" "q1" "q3" "n" "bound";
  List.iter
    (fun (k, xs) ->
      let unit, _, bound = describe spec k in
      let q1, q3 = quartiles xs in
      Printf.printf "  %-20s %-6s %-5s %14.6g %14.6g %14.6g %3d %6.3f\n" k unit
        (clock k) (median xs) q1 q3 (List.length xs) bound)
    res.metrics;
  if res.layers <> [] then begin
    Printf.printf "  per layer (traced run):\n";
    List.iter (fun (k, v) -> Printf.printf "    %-40s %14.6g\n" k v) res.layers
  end;
  Option.iter
    (fun t ->
      List.iter
        (fun l -> Printf.printf "  %s\n" l)
        (String.split_on_char '\n' t.W.table))
    res.traced;
  List.iter (fun f -> Printf.printf "  FAIL %s\n" f) res.failures

let json_of spec ~seed ~smoke results =
  let num f = Json.Float f in
  let metric (k, xs) =
    let unit, better, bound = describe spec k in
    Json.Obj
      [
        ("name", Json.Str k);
        ("unit", Json.Str unit);
        ("clock", Json.Str (clock k));
        ("better", Json.Str better);
        ("bound", num bound);
        ("samples", Json.List (List.map num xs));
      ]
  in
  let workload r =
    Json.Obj
      [
        ("name", Json.Str r.workload);
        ("reps", Json.Int r.reps);
        ("correct", Json.Bool (r.failures = []));
        ("attempted", Json.Int r.attempted);
        ("failed", Json.Int r.failed);
        ("failures", Json.List (List.map (fun s -> Json.Str s) r.failures));
        ("metrics", Json.List (List.map metric r.metrics));
        ("layers", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.layers));
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "lsm-repro-e2e/1");
      ("seed", Json.Int seed);
      ("smoke", Json.Bool smoke);
      ("workloads", Json.List (List.map workload results));
    ]

(* The result line: every metric the definition names, by name, with
   its unit and every digit. *)
let result_line spec ~traced res =
  let ok = ref (res.failures = []) in
  let field m =
    let value =
      if traced then List.assoc_opt m.m_name res.layers
      else Option.map median (List.assoc_opt m.m_name res.metrics)
    in
    let v =
      match value with
      | Some v when Float.is_finite v -> v
      | _ ->
          ok := false;
          0.0
    in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.m_name v m.m_unit
  in
  let fields =
    List.map field (if traced then spec.per_layer else spec.end_to_end)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    !ok (max 1 res.attempted) res.failed
    (String.concat ", " fields)

let write_traces dir res =
  Option.iter
    (fun t ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let base = Filename.concat dir res.workload in
      let layers = List.map (fun (k, v) -> (k, Json.Float v)) res.layers in
      Json.write ~path:(base ^ ".layers.json")
        (Json.Obj
           [
             ("workload", Json.Str res.workload);
             ("layers", Json.Obj layers);
             ("table", Json.Str t.W.table);
           ]);
      Out_channel.with_open_text (base ^ ".layers.txt") (fun oc ->
          List.iter
            (fun (k, v) -> Printf.fprintf oc "%-40s %.6g\n" k v)
            res.layers;
          output_string oc t.W.table))
    res.traced

(* ------------------------------------------------------------------ *)
(* run *)

let run_main args =
  let workloads = ref [] and seed = ref 42 and reps = ref 0 in
  let seconds = ref 0.0 and trace = ref 0 and json = ref "" in
  let trace_dir = ref "" and smoke = ref false in
  let spec_path = ref "BENCHMARK.json" in
  parse_args "run" args
    [
      ( "--workload",
        Arg.String (fun w -> workloads := !workloads @ [ w ]),
        "W  workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N  input seed (default 42)");
      ("--reps", Arg.Set_int reps, "N  repetitions per workload (default 5)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S  instead, repeat for about S seconds per workload" );
      ("--trace", Arg.Set_int trace, "0|1  add the traced run's layer metrics");
      ("--json", Arg.Set_string json, "F  write every sample to F");
      ( "--trace-dir",
        Arg.Set_string trace_dir,
        "D  write each traced run's layers to D (implies --trace 1)" );
      ("--smoke", Arg.Set smoke, " tiny sizes, one repetition, traced");
      spec_arg spec_path;
    ]
    ~anon:(fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe run [options]";
  let spec = read_spec !spec_path in
  let workloads = if !workloads = [] then W.names else !workloads in
  List.iter
    (fun w -> if not (List.mem w W.names) then die "unknown workload %s" w)
    workloads;
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let traced_on = !trace = 1 || !trace_dir <> "" || !smoke in
  let reps = if !smoke then 1 else if !reps > 0 then !reps else 5 in
  let common =
    (if !smoke then [ "--smoke" ] else []) @ [ "--seed"; string_of_int !seed ]
  in
  let run_workload w =
    let args extra = [ "--workload"; w ] @ common @ extra in
    let t0 = Unix.gettimeofday () in
    let failures = ref [] in
    (* With --seconds, stop before a repetition as soon as repeating the
       last one would overrun; the first is the longest (it also runs the
       observed durable-faults pass). *)
    let rec loop acc k last =
      let enough =
        if !seconds > 0.0 && not !smoke then
          k > 0 && Unix.gettimeofday () -. t0 +. last > !seconds
        else k >= reps
      in
      if enough then List.rev acc
      else
        let t = Unix.gettimeofday () in
        match spawn (args (if k = 0 then [ "--first" ] else [])) with
        | Ok r -> loop (r :: acc) (k + 1) (Unix.gettimeofday () -. t)
        | Error e ->
            failures := e :: !failures;
            List.rev acc
    in
    let done_reps = loop [] 0 0.0 in
    let traced =
      if traced_on && done_reps <> [] then
        match spawn (args [ "--traced" ]) with
        | Ok r -> Some r
        | Error e ->
            failures := e :: !failures;
            None
      else None
    in
    if done_reps = [] then begin
      Printf.printf "\n== %s: no repetition completed: %s\n" w
        (String.concat "; " !failures);
      None
    end
    else begin
      let res =
        aggregate spec ~workload:w ~traced_on done_reps traced
          (List.rev !failures)
      in
      print_result spec res;
      if !trace_dir <> "" then write_traces !trace_dir res;
      Some res
    end
  in
  let results = List.map run_workload workloads in
  let ok =
    List.for_all (function Some r -> r.failures = [] | None -> false) results
  in
  let results = List.filter_map Fun.id results in
  if !json <> "" then
    Json.write ~path:!json (json_of spec ~seed:!seed ~smoke:!smoke results);
  (match results with
  | [ r ] when List.length workloads = 1 ->
      print_endline (result_line spec ~traced:traced_on r)
  | _ -> ());
  exit (if ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare *)

type side = { med : float; q1 : float; q3 : float; xs : float list }

let side xs =
  let q1, q3 = quartiles xs in
  { med = median xs; q1; q3; xs }

let spread s = if s.med = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.med

(* Workload name -> metric name -> samples. *)
let load path =
  let get k conv j = Option.bind (Json.member k j) conv in
  match Json.read ~path with
  | Error e -> die "%s: %s" path e
  | Ok doc -> (
      match get "workloads" Json.to_list doc with
      | None -> die "%s: not an e2e result (no workloads)" path
      | Some ws ->
          List.filter_map
            (fun w ->
              let metric m =
                let samples = get "samples" Json.to_list m in
                match (get "name" Json.to_string_opt m, samples) with
                | Some k, Some xs -> Some (k, List.filter_map Json.to_float xs)
                | _ -> None
              in
              let ms = get "metrics" Json.to_list w in
              let ms = Option.value ~default:[] ms in
              Option.map
                (fun n -> (n, List.filter_map metric ms))
                (get "name" Json.to_string_opt w))
            ws)

(* [worse], [better], [unchanged], or [unresolved] when either side's
   spread is wider than the bound and B neither wins nor loses every
   run.  [floor] is an absolute allowance for values near zero. *)
let verdict ~better ~bound ~floor a b =
  let scale = Float.abs a.med in
  let worse_by =
    let d = if better = "higher" then a.med -. b.med else b.med -. a.med in
    if scale > 0.0 then d /. scale else d
  in
  let allowed =
    Float.max bound (if scale > 0.0 then floor /. scale else floor)
  in
  let beats x y = if better = "higher" then x > y else x < y in
  let all_b beat = List.for_all (fun y -> List.for_all (beat y) a.xs) b.xs in
  if Float.max (spread a) (spread b) > bound then
    if all_b beats && worse_by < -.allowed then "better"
    else if all_b (fun y x -> beats x y) && worse_by > allowed then "worse"
    else "unresolved"
  else if worse_by > allowed then "worse"
  else if worse_by < -.allowed then "better"
  else "unchanged"

let compare_main args =
  let spec_path = ref "BENCHMARK.json" and files = ref [] in
  parse_args "compare" args [ spec_arg spec_path ]
    ~anon:(fun f -> files := !files @ [ f ])
    "e2e.exe compare A.json B.json";
  let a, b =
    match !files with
    | [ a; b ] -> (a, b)
    | _ -> die "compare takes two result files"
  in
  let spec = read_spec !spec_path in
  let db = load b in
  let regressions = ref 0 in
  Printf.printf
    "%-15s %-18s %-6s %11s %11s %11s %3s  %11s %11s %11s %3s %6s  %s\n"
    "workload" "metric" "unit" "A median" "A q1" "A q3" "n" "B median" "B q1"
    "B q3" "n" "bound" "verdict";
  List.iter
    (fun (w, ma) ->
      List.iter
        (fun (k, xa) ->
          match Option.bind (List.assoc_opt w db) (List.assoc_opt k) with
          | None -> ()
          | Some xb ->
              let unit, better, bound = describe spec k in
              let sa = side xa and sb = side xb in
              let floor = if unit = "ms" then 0.01 else 0.0 in
              let v =
                (* Any rise in failed requests is a regression. *)
                if k = "failed_frac" && sb.med > sa.med then "worse"
                else verdict ~better ~bound ~floor sa sb
              in
              if v = "worse" then incr regressions;
              Printf.printf
                "%-15s %-18s %-6s %11.5g %11.5g %11.5g %3d  %11.5g %11.5g \
                 %11.5g %3d %6.3f  %s\n"
                w k unit sa.med sa.q1 sa.q3 (List.length xa) sb.med sb.q1 sb.q3
                (List.length xb) bound v)
        ma)
    (load a);
  Printf.printf "%d regression%s\n" !regressions
    (if !regressions = 1 then "" else "s");
  exit (if !regressions > 0 then 1 else 0)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_main args
  | _ :: "compare" :: args -> compare_main args
  | _ :: "child" :: args -> child_main args
  | _ -> die "usage: e2e.exe run [options] | e2e.exe compare A.json B.json"
