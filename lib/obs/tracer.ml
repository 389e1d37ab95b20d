(** The span sink: completed spans of the *simulated* clock.

    The storage environment ([Lsm_sim.Env.span]) owns the span stack and
    computes each span's duration, self time and I/O arguments once;
    this module only folds the result in.  Each completed span lands in
    a bounded ring for trace export, while exact aggregates (per-name
    count / total / self time, top-level coverage, top-level I/O
    argument totals) are folded in at completion so they survive ring
    wraparound.  The disabled tracer ignores everything. *)

type event = {
  ev_name : string;
  ev_cat : string;
  ev_start_us : float;
  ev_dur_us : float;
  ev_depth : int;  (** 0 = top-level *)
  ev_args : int array;  (** one value per argument name, e.g. I/O deltas *)
}

type agg = {
  mutable a_count : int;
  mutable a_total_us : float;
  mutable a_self_us : float;  (** total minus time in direct children *)
  mutable a_max_us : float;
}

type t = {
  enabled : bool;
  arg_names : string array;  (** what each event argument counts *)
  ring : event Ring.t;  (** the last [capacity] completed spans *)
  aggs : (string, agg) Hashtbl.t;
  top_args : int array;  (** per argument, its top-level span total *)
  mutable top_level_us : float;  (** sum of top-level span durations *)
}

let create ?(capacity = 65_536) ~arg_names () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be positive";
  {
    enabled = true;
    arg_names;
    ring = Ring.create capacity;
    aggs = Hashtbl.create 64;
    top_args = Array.make (Array.length arg_names) 0;
    top_level_us = 0.0;
  }

let disabled =
  {
    enabled = false;
    arg_names = [||];
    ring = Ring.create 0;
    aggs = Hashtbl.create 1;
    top_args = [||];
    top_level_us = 0.0;
  }

let enabled t = t.enabled

let agg_of t name =
  match Hashtbl.find_opt t.aggs name with
  | Some a -> a
  | None ->
      let a = { a_count = 0; a_total_us = 0.0; a_self_us = 0.0; a_max_us = 0.0 } in
      Hashtbl.replace t.aggs name a;
      a

(** [record t ~name ~cat ~start_us ~dur_us ~self_us ~depth args] folds
    one completed span into the ring and the aggregates; [args] (one
    value per argument name) count toward the top-level totals only at
    [depth] 0. *)
let record t ~name ~cat ~start_us ~dur_us ~self_us ~depth args =
  if t.enabled then begin
    if depth = 0 then begin
      t.top_level_us <- t.top_level_us +. dur_us;
      for i = 0 to Array.length t.top_args - 1 do
        t.top_args.(i) <- t.top_args.(i) + args.(i)
      done
    end;
    let a = agg_of t name in
    a.a_count <- a.a_count + 1;
    a.a_total_us <- a.a_total_us +. dur_us;
    a.a_self_us <- a.a_self_us +. self_us;
    if dur_us > a.a_max_us then a.a_max_us <- dur_us;
    Ring.push t.ring
      {
        ev_name = name;
        ev_cat = cat;
        ev_start_us = start_us;
        ev_dur_us = dur_us;
        ev_depth = depth;
        ev_args = args;
      }
  end

let recorded t = Ring.recorded t.ring
let dropped t = Ring.dropped t.ring

(** [events t] is the ring's contents, oldest first — the last
    [capacity] completed spans. *)
let events t = Ring.to_array t.ring

let top_level_us t = t.top_level_us

let top_level_args t =
  List.sort compare
    (Array.to_list (Array.mapi (fun i k -> (k, t.top_args.(i))) t.arg_names))

let aggregates t =
  List.sort
    (fun (_, a) (_, b) -> compare b.a_total_us a.a_total_us)
    (Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.aggs [])

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export *)

(** [add_chrome_events b ?pid ~first t] appends one Chrome [trace_event]
    object per ring event to [b] (comma-separated; [first] says whether
    the first event emitted should omit its leading comma).  Returns
    the number of events emitted.  Timestamps are simulated
    microseconds, which is exactly Chrome's unit. *)
let add_chrome_events b ?(pid = 0) ~first t =
  let evs = events t in
  Array.iteri
    (fun i ev ->
      if not (first && i = 0) then Buffer.add_string b ",\n";
      Buffer.add_string b "{\"name\":\"";
      Json.escape b ev.ev_name;
      Buffer.add_string b "\",\"cat\":\"";
      Json.escape b (if ev.ev_cat = "" then "engine" else ev.ev_cat);
      Buffer.add_string b
        (Printf.sprintf "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0"
           ev.ev_start_us ev.ev_dur_us pid);
      if Array.length ev.ev_args > 0 then begin
        Buffer.add_string b ",\"args\":{";
        Array.iteri
          (fun j v ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Json.escape b t.arg_names.(j);
            Buffer.add_string b (Printf.sprintf "\":%d" v))
          ev.ev_args;
        Buffer.add_char b '}'
      end;
      Buffer.add_char b '}')
    evs;
  Array.length evs

(** [to_chrome_json t] is a standalone loadable trace (one process). *)
let to_chrome_json t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  ignore (add_chrome_events b ~pid:0 ~first:true t);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Text profile *)

(** [profile ?total_us t] renders the aggregate table, sorted by total
    time.  [total_us] (the run's elapsed simulated time) scales the
    percentage column and the coverage line; when omitted, the top-level
    span total is used (coverage then reads 100%). *)
let profile ?total_us t =
  let total = match total_us with Some x -> x | None -> t.top_level_us in
  let total = if total <= 0.0 then 1.0 else total in
  let rows =
    List.map
      (fun (name, a) ->
        [
          name;
          string_of_int a.a_count;
          Printf.sprintf "%.3f" (a.a_total_us /. 1e3);
          Printf.sprintf "%.3f" (a.a_self_us /. 1e3);
          Printf.sprintf "%.3f" (a.a_max_us /. 1e3);
          Printf.sprintf "%.1f%%" (a.a_total_us /. total *. 100.0);
        ])
      (aggregates t)
  in
  let header = [ "span"; "count"; "total(ms)"; "self(ms)"; "max(ms)"; "%run" ] in
  let all = header :: rows in
  let widths =
    List.init (List.length header) (fun c ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row c)))
          0 all)
  in
  let line row =
    String.concat "  "
      (List.map2
         (fun w s -> s ^ String.make (max 0 (w - String.length s)) ' ')
         widths row)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  let coverage =
    Printf.sprintf
      "top-level spans cover %.3fms of %.3fms simulated time (%.1f%%); %d \
       spans recorded, %d dropped from the ring"
      (t.top_level_us /. 1e3) (total /. 1e3)
      (t.top_level_us /. total *. 100.0)
      (recorded t) (dropped t)
  in
  String.concat "\n" ((line header :: sep :: List.map line rows) @ [ coverage ])
