(** Harness-wide observability switchboard.

    Experiments create their environments through {!Setup}; when tracing
    is requested ({!enable}, driven by the CLI's [--trace]/[--profile]/
    [--metrics] flags) every such environment gets an enabled
    {!Lsm_obs.Obs.t} handle, and the hub remembers it.  After the run the
    hub merges all tracers into one Chrome [trace_event] document (one
    pid per environment — experiments like fig14 build a dozen), renders
    per-environment text profiles, and dumps the metrics registries. *)

module Env = Lsm_sim.Env
module Tracer = Lsm_obs.Tracer
module Metrics = Lsm_obs.Metrics

let device_name env = (Env.device env).Lsm_sim.Device.name

let enabled = ref false
let explain_on = ref false
let trace_capacity = ref 65536
let envs : Env.t list ref = ref []

(** [enable ()] turns the hub on: subsequently attached environments are
    created with observability enabled.  [capacity] bounds each
    environment's span ring. *)
let enable ?capacity () =
  (match capacity with Some c -> trace_capacity := c | None -> ());
  enabled := true

let is_enabled () = !enabled

(** [enable_explain ()] turns plan recording on: subsequently attached
    environments get an active {!Lsm_obs.Explain.t}, independently of
    tracing/metrics. *)
let enable_explain () = explain_on := true

(** [attach env] registers [env] with the hub (enabling its obs handle
    and/or plan recorder) when the hub is on; a no-op otherwise.  Returns
    [env] so it can wrap a creation expression. *)
let attach env =
  if !enabled || !explain_on then begin
    if !enabled then
      ignore (Env.enable_obs ~trace_capacity:!trace_capacity env);
    if !explain_on then ignore (Env.enable_explain env);
    envs := env :: !envs
  end;
  env

(** Attached environments, oldest first. *)
let observed () = List.rev !envs

let reset () = envs := []

(* Chrome metadata event naming a pid, so Perfetto shows "env-0 (hdd)"
   instead of a bare number. *)
let process_name_event b ~first ~pid name =
  if not first then Buffer.add_char b ',';
  Buffer.add_string b
    (Printf.sprintf
       {|{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":"%s"}}|}
       pid name)

(** [write_chrome_trace path] merges every attached environment's span
    ring into one loadable [chrome://tracing] / Perfetto document at
    [path], one pid per environment.  Returns the number of spans
    written. *)
let write_chrome_trace path =
  let b = Buffer.create 4096 in
  Buffer.add_string b {|{"displayTimeUnit":"ms","traceEvents":[|};
  let n = ref 0 in
  List.iteri
    (fun pid env ->
      let tr = Env.tracer env in
      if Tracer.recorded tr > 0 then begin
        process_name_event b ~first:(!n = 0) ~pid
          (Printf.sprintf "env-%d (%s)" pid (device_name env));
        n := !n + Tracer.add_chrome_events b ~pid ~first:false tr
      end)
    (observed ());
  Buffer.add_string b "]}\n";
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  !n

(** [profile_text ()] renders one aligned profile per attached
    environment, each against that environment's own elapsed simulated
    time (so the coverage percentage is meaningful per env). *)
let profile_text () =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i env ->
      let tr = Env.tracer env in
      if Tracer.recorded tr > 0 then begin
        Buffer.add_string b
          (Printf.sprintf "\n--- profile: env-%d (%s) ---\n" i
             (device_name env));
        Buffer.add_string b (Tracer.profile ~total_us:(Env.now_us env) tr)
      end)
    (observed ());
  if Buffer.length b > 0 then Buffer.add_char b '\n';
  Buffer.contents b

(** [explain_text ()] renders every attached environment's retained query
    plans, one block per environment that recorded any. *)
let explain_text () =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i env ->
      let e = Env.explain env in
      if Lsm_obs.Explain.plans e <> [] then begin
        Buffer.add_string b
          (Printf.sprintf "\n--- explain: env-%d (%s) ---\n" i
             (device_name env));
        Buffer.add_string b (Lsm_obs.Explain.to_text e)
      end)
    (observed ());
  Buffer.contents b

(** [explain_json ()] is the same as one schema-tagged document: each
    environment that recorded plans contributes an entry. *)
let explain_json () =
  let envs_json =
    List.concat
      (List.mapi
         (fun i env ->
           let e = Env.explain env in
           if Lsm_obs.Explain.plans e = [] then []
           else
             [
               Lsm_obs.Json.Obj
                 [
                   ("env", Lsm_obs.Json.Str (Printf.sprintf "env-%d" i));
                   ("device", Lsm_obs.Json.Str (device_name env));
                   ( "plans",
                     match
                       Lsm_obs.Json.member "plans" (Lsm_obs.Explain.to_json e)
                     with
                     | Some p -> p
                     | None -> Lsm_obs.Json.List [] );
                 ];
             ])
         (observed ()))
  in
  Lsm_obs.Json.Obj
    [
      ("schema", Lsm_obs.Json.Str Lsm_obs.Explain.schema);
      ("envs", Lsm_obs.Json.List envs_json);
    ]

(** [metrics_lines ()] publishes each environment's I/O counters into its
    registry and returns the aligned dump, one block per environment. *)
let metrics_lines () =
  List.concat
    (List.mapi
       (fun i env ->
         Env.publish_io_metrics env;
         let lines = Metrics.to_lines (Env.metrics env) in
         if lines = [] then []
         else
           Printf.sprintf "metrics: env-%d (%s)" i (device_name env)
           :: List.map (fun l -> "  " ^ l) lines)
       (observed ()))
