(** Windowed time-series telemetry on the simulated clock.

    Every end-of-run report in this repo answers "what happened on
    average"; this module answers "what happened *when*".  Observations
    land in fixed-width windows (index = ⌊t / window⌋), each window
    holding named latency histograms (the log-scale {!Histogram}, so a
    window costs a flat int array per series), integer counters, float
    accumulators, running maxima, and last-value gauges.  Alongside the
    windows, a bounded flight-recorder ring keeps discrete *events* —
    maintenance spans such as budget evictions, flushes, and merges —
    with their full timestamps, so an SLO alert in window W can be
    joined back against the exact maintenance activity that overlapped
    it ({!Slo.attribute}).

    Everything here is driven by simulated time supplied by the caller;
    a run that is deterministic for a seed therefore produces a
    byte-identical JSON/CSV export, which CI relies on. *)

type window = {
  hists : (string, Histogram.t) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  sums : (string, float ref) Hashtbl.t;
  maxes : (string, float ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;  (** last value wins *)
}

type event = {
  e_start_us : float;
  e_dur_us : float;
  e_kind : string;  (** e.g. ["eviction"], ["dataset.flush"], ["lsm.merge"] *)
  e_part : int;  (** partition the event ran on; [-1] = global *)
  e_detail : (string * int) list;  (** e.g. bytes evicted, amp deltas *)
}

type t = {
  window_us : float;
  windows : (int, window) Hashtbl.t;
  mutable max_index : int;  (** highest window index touched; -1 = none *)
  ring : event Ring.t;
}

let create ?(events_capacity = 4096) ~window_us () =
  if window_us <= 0.0 then invalid_arg "Timeseries.create: window_us > 0";
  if events_capacity < 1 then
    invalid_arg "Timeseries.create: events_capacity >= 1";
  {
    window_us;
    windows = Hashtbl.create 64;
    max_index = -1;
    ring = Ring.create events_capacity;
  }

let window_us t = t.window_us

(** [index t ~at_us] is the window holding instant [at_us] (clamped at
    0 — the run timeline starts at the epoch). *)
let index t ~at_us =
  if at_us <= 0.0 then 0 else int_of_float (Float.floor (at_us /. t.window_us))

let n_windows t = t.max_index + 1
let window_start t i = Float.of_int i *. t.window_us

let window_of t i =
  match Hashtbl.find_opt t.windows i with
  | Some w -> w
  | None ->
      let w =
        {
          hists = Hashtbl.create 8;
          counts = Hashtbl.create 8;
          sums = Hashtbl.create 8;
          maxes = Hashtbl.create 8;
          gauges = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.windows i w;
      if i > t.max_index then t.max_index <- i;
      w

let cell tbl mk series =
  match Hashtbl.find_opt tbl series with
  | Some c -> c
  | None ->
      let c = mk () in
      Hashtbl.replace tbl series c;
      c

(** [observe t ~at_us series v] feeds [v] into [series]'s latency
    histogram in the window of [at_us]. *)
let observe t ~at_us series v =
  Histogram.observe (cell (window_of t (index t ~at_us)).hists Histogram.create series) v

(** [count t ~at_us series n] bumps an integer counter. *)
let count t ~at_us series n =
  let c = cell (window_of t (index t ~at_us)).counts (fun () -> ref 0) series in
  c := !c + n

(** [add t ~at_us series v] accumulates a float (e.g. busy microseconds). *)
let add t ~at_us series v =
  let c = cell (window_of t (index t ~at_us)).sums (fun () -> ref 0.0) series in
  c := !c +. v

(** [set_max t ~at_us series v] keeps the window's running maximum. *)
let set_max t ~at_us series v =
  let c =
    cell (window_of t (index t ~at_us)).maxes (fun () -> ref neg_infinity) series
  in
  if v > !c then c := v

(** [set_last t ~at_us series v] records a sampled gauge; the last
    sample in the window wins. *)
let set_last t ~at_us series v =
  let c = cell (window_of t (index t ~at_us)).gauges (fun () -> ref 0.0) series in
  c := v

(* ------------------------------------------------------------------ *)
(* Per-window readers (used by Slo and the exports) *)

let hist t ~i series =
  Option.bind (Hashtbl.find_opt t.windows i) (fun w ->
      Hashtbl.find_opt w.hists series)

let count_of t ~i series =
  match
    Option.bind (Hashtbl.find_opt t.windows i) (fun w ->
        Hashtbl.find_opt w.counts series)
  with
  | Some c -> !c
  | None -> 0

let sum_of t ~i series =
  match
    Option.bind (Hashtbl.find_opt t.windows i) (fun w ->
        Hashtbl.find_opt w.sums series)
  with
  | Some c -> !c
  | None -> 0.0

let max_of t ~i series =
  Option.map ( ! )
    (Option.bind (Hashtbl.find_opt t.windows i) (fun w ->
         Hashtbl.find_opt w.maxes series))

let last_of t ~i series =
  Option.map ( ! )
    (Option.bind (Hashtbl.find_opt t.windows i) (fun w ->
         Hashtbl.find_opt w.gauges series))

let names_of proj t =
  let s = ref [] in
  Hashtbl.iter
    (fun _ w -> Hashtbl.iter (fun k _ -> if not (List.mem k !s) then s := k :: !s) (proj w))
    t.windows;
  List.sort compare !s

(** Sorted unions of series names over all windows, per family. *)
let hist_names t = names_of (fun w -> w.hists) t
let count_names t = names_of (fun w -> w.counts) t
let sum_names t = names_of (fun w -> w.sums) t
let max_names t = names_of (fun w -> w.maxes) t
let gauge_names t = names_of (fun w -> w.gauges) t

(* ------------------------------------------------------------------ *)
(* Events (flight recorder) *)

(** [event t ~start_us ~dur_us ~kind ~part detail] records one discrete
    maintenance event into the bounded ring. *)
let event t ~start_us ~dur_us ~kind ~part detail =
  Ring.push t.ring
    {
      e_start_us = start_us;
      e_dur_us = dur_us;
      e_kind = kind;
      e_part = part;
      e_detail = detail;
    }

let events_recorded t = Ring.recorded t.ring
let events_dropped t = Ring.dropped t.ring

(** [events t] is the ring's contents, oldest first. *)
let events t = Ring.to_array t.ring

(** [events_between t ~from_us ~until_us] is every ring event whose span
    [start, start+dur] intersects [[from_us, until_us)], oldest first. *)
let events_between t ~from_us ~until_us =
  List.filter
    (fun e -> e.e_start_us +. e.e_dur_us >= from_us && e.e_start_us < until_us)
    (Array.to_list (events t))

(** [events_of_kind t kind] is every ring event of one kind, oldest
    first — e.g. a chaos report pulling its ["breaker.open"] or
    ["chaos.crash"] markers back out of the flight recorder. *)
let events_of_kind t kind =
  List.filter (fun e -> e.e_kind = kind) (Array.to_list (events t))

(* ------------------------------------------------------------------ *)
(* Exports *)

let hist_summary_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean_us", Json.Float (Histogram.mean h));
      ("p50_us", Json.Float (Histogram.quantile h 0.5));
      ("p95_us", Json.Float (Histogram.quantile h 0.95));
      ("p99_us", Json.Float (Histogram.quantile h 0.99));
      ("max_us", Json.Float (Histogram.max_value h));
    ]

let event_json e =
  Json.Obj
    [
      ("start_us", Json.Float e.e_start_us);
      ("dur_us", Json.Float e.e_dur_us);
      ("kind", Json.Str e.e_kind);
      ("part", Json.Int e.e_part);
      ("detail", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) e.e_detail));
    ]

let window_json t i =
  let pick tbl = Option.bind (Hashtbl.find_opt t.windows i) tbl in
  let assoc names get = List.filter_map (fun n -> get n) names in
  Json.Obj
    [
      ("i", Json.Int i);
      ("start_us", Json.Float (window_start t i));
      ( "series",
        Json.Obj
          (assoc (hist_names t) (fun n ->
               Option.map
                 (fun h -> (n, hist_summary_json h))
                 (pick (fun w -> Hashtbl.find_opt w.hists n)))) );
      ( "counters",
        Json.Obj
          (assoc (count_names t) (fun n ->
               Option.map
                 (fun c -> (n, Json.Int !c))
                 (pick (fun w -> Hashtbl.find_opt w.counts n)))) );
      ( "sums",
        Json.Obj
          (assoc (sum_names t) (fun n ->
               Option.map
                 (fun c -> (n, Json.Float !c))
                 (pick (fun w -> Hashtbl.find_opt w.sums n)))) );
      ( "maxes",
        Json.Obj
          (assoc (max_names t) (fun n ->
               Option.map
                 (fun c -> (n, Json.Float !c))
                 (pick (fun w -> Hashtbl.find_opt w.maxes n)))) );
      ( "gauges",
        Json.Obj
          (assoc (gauge_names t) (fun n ->
               Option.map
                 (fun c -> (n, Json.Float !c))
                 (pick (fun w -> Hashtbl.find_opt w.gauges n)))) );
    ]

(** [to_json t]: the windows (dense, 0 .. max index — empty windows emit
    empty objects so consumers can difference neighbours) and the event
    ring.  Deterministic: series names are sorted, windows are in index
    order. *)
let to_json t =
  Json.Obj
    [
      ("window_us", Json.Float t.window_us);
      ("n_windows", Json.Int (n_windows t));
      ("windows", Json.List (List.init (n_windows t) (window_json t)));
      ( "events",
        Json.Obj
          [
            ("recorded", Json.Int (events_recorded t));
            ("dropped", Json.Int (events_dropped t));
            ( "ring",
              Json.List (Array.to_list (Array.map event_json (events t))) );
          ] );
    ]

(** [to_csv t] is a plot-ready table: one row per window, one column
    group per series (count/p50/p95/p99 for histograms; a single column
    for counters, sums, maxes, gauges).  Missing cells are 0. *)
let to_csv t =
  let b = Buffer.create 1024 in
  let hists = hist_names t
  and counts = count_names t
  and sums = sum_names t
  and maxes = max_names t
  and gauges = gauge_names t in
  Buffer.add_string b "window,start_us";
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf ",%s.count,%s.p50_us,%s.p95_us,%s.p99_us" n n n n))
    hists;
  List.iter (fun n -> Buffer.add_string b ("," ^ n)) (counts @ sums @ maxes @ gauges);
  Buffer.add_char b '\n';
  for i = 0 to t.max_index do
    Buffer.add_string b (Printf.sprintf "%d,%.3f" i (window_start t i));
    List.iter
      (fun n ->
        match hist t ~i n with
        | Some h ->
            Buffer.add_string b
              (Printf.sprintf ",%d,%.3f,%.3f,%.3f" (Histogram.count h)
                 (Histogram.quantile h 0.5)
                 (Histogram.quantile h 0.95)
                 (Histogram.quantile h 0.99))
        | None -> Buffer.add_string b ",0,0,0,0")
      hists;
    List.iter
      (fun n -> Buffer.add_string b (Printf.sprintf ",%d" (count_of t ~i n)))
      counts;
    List.iter
      (fun n -> Buffer.add_string b (Printf.sprintf ",%.3f" (sum_of t ~i n)))
      sums;
    List.iter
      (fun n ->
        Buffer.add_string b
          (Printf.sprintf ",%.3f" (Option.value ~default:0.0 (max_of t ~i n))))
      maxes;
    List.iter
      (fun n ->
        Buffer.add_string b
          (Printf.sprintf ",%.3f" (Option.value ~default:0.0 (last_of t ~i n))))
      gauges;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b
