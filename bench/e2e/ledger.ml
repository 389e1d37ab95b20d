(** The per-layer ledger of a traced run.

    A span hook on every partition's environment collects the engine's
    own spans while one request executes.  When the request settles,
    each partition's spans are nested by interval containment on that
    partition's clock (partitions stay separate: their clocks are
    independent, and pooled spans give negative self times), and each
    span's self time — its duration minus its direct children's — is
    charged to its layer.  The part of a partition's service time that
    no top-level span covers is charged to [router.untraced] (today that
    is the WAL fsync), so per partition

    {v Σ layer self times + untraced = Σ service time v}

    up to float rounding; {!residual} measures the gap. *)

module Env = Lsm_sim.Env

let layers =
  [|
    "dataset.ingest";
    "dataset.flush";
    "dataset.merge";
    "dataset.repair";
    "dataset.validate";
    "dataset.search_secondary";
    "dataset.secondary";
    "dataset.time_range";
    "dataset.point";
    "dataset.heal";
    "lsm_tree.lookup";
    "lsm_tree.lookup_batched";
    "lsm_tree.flush";
    "lsm_tree.merge";
    "lsm_tree.view_build";
    "txn.checkpoint";
    "other";
    "router.untraced";
  |]

let n_layers = Array.length layers
let untraced = n_layers - 1
let other = n_layers - 2

(* Column headings for the text tables. *)
let short =
  Array.map
    (fun l ->
      match String.index_opt l '.' with
      | Some i -> String.sub l (i + 1) (String.length l - i - 1)
      | None -> l)
    layers

let layer_of_span name =
  let l =
    match name with
    | "ingest.upsert" | "ingest.insert" | "ingest.delete" -> "dataset.ingest"
    | "dataset.flush" -> "dataset.flush"
    | "dataset.merge" | "maint.job" -> "dataset.merge"
    | "repair.primary" | "repair.merge" | "repair.standalone" ->
        "dataset.repair"
    | "validate.timestamp" | "validate.direct" -> "dataset.validate"
    | "search.secondary" -> "dataset.search_secondary"
    | "query.secondary" | "query.secondary_keys" -> "dataset.secondary"
    | "query.time_range" | "query.scan" -> "dataset.time_range"
    | "query.point" -> "dataset.point"
    | "resilience.heal" | "resilience.rebuild" -> "dataset.heal"
    | "lsm.lookup" | "lsm.lookup.naive" -> "lsm_tree.lookup"
    | "lsm.lookup.batched" -> "lsm_tree.lookup_batched"
    | "lsm.flush" -> "lsm_tree.flush"
    | "lsm.merge" -> "lsm_tree.merge"
    | "lsm.view.build" -> "lsm_tree.view_build"
    | "txn.checkpoint" -> "txn.checkpoint"
    | _ -> "other"
  in
  let rec find i = if i >= other || layers.(i) = l then i else find (i + 1) in
  find 0

let flush_ix = layer_of_span "dataset.flush"

type span = { ix : int; start : float; stop : float; dur : float }

(* A settled request kept for the tail table. *)
type req = { r_cls : int; r_lat : float; r_queue : float; r_self : float array }

type t = {
  envs : Env.t array;
  bufs : span list array;  (** spans of the in-flight request, per partition *)
  seen : (string, unit) Hashtbl.t;  (** span names the hooks delivered *)
  part_charged : float array;  (** Σ self + untraced, per partition *)
  part_service : float array;  (** Σ service time, per partition *)
  top_count : int array;  (** top-level spans, per layer *)
  top_us : float array;  (** top-level span time, per layer *)
  cls_count : int array;
  cls_self : float array array;  (** [class][layer] totals *)
  mutable stalled : int;  (** requests during which a flush ran *)
  mutable kept : req list;  (** requests with non-zero latency *)
  mutable negative : int;  (** negative self or untraced times seen *)
}

let create ~classes envs =
  let n = Array.length envs in
  let t =
    {
      envs;
      bufs = Array.make n [];
      seen = Hashtbl.create 32;
      part_charged = Array.make n 0.0;
      part_service = Array.make n 0.0;
      top_count = Array.make n_layers 0;
      top_us = Array.make n_layers 0.0;
      cls_count = Array.make classes 0;
      cls_self = Array.init classes (fun _ -> Array.make n_layers 0.0);
      stalled = 0;
      kept = [];
      negative = 0;
    }
  in
  Array.iteri
    (fun i env ->
      Env.set_span_hook env (fun sp ->
          Hashtbl.replace t.seen sp.Env.sp_name ();
          let start = sp.Env.sp_start_us and dur = sp.Env.sp_dur_us in
          let ix = layer_of_span sp.Env.sp_name in
          t.bufs.(i) <- { ix; start; stop = start +. dur; dur } :: t.bufs.(i)))
    envs;
  t

let detach t = Array.iter Env.clear_span_hook t.envs

(* Containment tolerance in microseconds: a child's computed end may
   exceed its parent's by rounding. *)
let eps = 1e-3

(* Charge one partition's spans into [self]; returns the covered time. *)
let nest t spans self =
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.start b.start with
        | 0 -> Float.compare b.dur a.dur
        | c -> c)
      spans
  in
  let covered = ref 0.0 in
  (* Open ancestors, innermost first, each with the time its direct
     children took.  Spans arrive by start time, so [s] nests in the top
     of the stack exactly when it ends no later. *)
  let stack = ref [] in
  let close (p, kids) = self.(p.ix) <- self.(p.ix) +. (p.dur -. kids) in
  List.iter
    (fun s ->
      let rec pop () =
        match !stack with
        | ((p, _) as top) :: rest when s.stop > p.stop +. eps ->
            close top;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      match !stack with
      | (p, kids) :: rest -> stack := (s, 0.0) :: (p, kids +. s.dur) :: rest
      | [] ->
          covered := !covered +. s.dur;
          t.top_count.(s.ix) <- t.top_count.(s.ix) + 1;
          t.top_us.(s.ix) <- t.top_us.(s.ix) +. s.dur;
          stack := [ (s, 0.0) ])
    sorted;
  List.iter close !stack;
  !covered

(** [settle t ~cls ~queue ~lat ~service] charges the spans collected
    since the previous settle to one request of class [cls];
    [service] is its simulated time per partition. *)
let settle t ~cls ~queue ~lat ~(service : float array) =
  let self = Array.make n_layers 0.0 in
  let flushes = t.top_count.(flush_ix) in
  Array.iteri
    (fun i spans ->
      let mine = Array.make n_layers 0.0 in
      let un = service.(i) -. nest t spans mine in
      mine.(untraced) <- un;
      Array.iteri
        (fun l v ->
          if v < -.eps then t.negative <- t.negative + 1;
          self.(l) <- self.(l) +. v;
          t.part_charged.(i) <- t.part_charged.(i) +. v)
        mine;
      t.part_service.(i) <- t.part_service.(i) +. service.(i);
      t.bufs.(i) <- [])
    t.bufs;
  if t.top_count.(flush_ix) > flushes then t.stalled <- t.stalled + 1;
  t.cls_count.(cls) <- t.cls_count.(cls) + 1;
  let row = t.cls_self.(cls) in
  Array.iteri (fun l v -> row.(l) <- row.(l) +. v) self;
  if lat > 0.0 then
    t.kept <-
      { r_cls = cls; r_lat = lat; r_queue = queue; r_self = self } :: t.kept

(** The worst per-partition relative gap between charged time and
    service time. *)
let residual t =
  let worst = ref 0.0 in
  Array.iteri
    (fun i svc ->
      let d = Float.abs (t.part_charged.(i) -. svc) in
      let rel = if svc > 0.0 then d /. svc else d in
      if rel > !worst then worst := rel)
    t.part_service;
  !worst

(** Self time per layer over every class, simulated microseconds. *)
let totals t =
  let tot = Array.make n_layers 0.0 in
  Array.iter
    (fun row -> Array.iteri (fun l v -> tot.(l) <- tot.(l) +. v) row)
    t.cls_self;
  tot

(** For each class, its slowest 1% of requests by latency (at least
    one): how many, and their mean latency, queue wait and layer
    breakdown. *)
let tail t =
  let by_cls = Array.make (Array.length t.cls_count) [] in
  List.iter (fun r -> by_cls.(r.r_cls) <- r :: by_cls.(r.r_cls)) t.kept;
  Array.mapi
    (fun c rs ->
      let k = max 1 ((t.cls_count.(c) + 99) / 100) in
      let slowest = List.sort (fun a b -> Float.compare b.r_lat a.r_lat) rs in
      let top = List.filteri (fun i _ -> i < k) slowest in
      let n = Float.of_int (max 1 (List.length top)) in
      let mean f = List.fold_left (fun acc r -> acc +. f r) 0.0 top /. n in
      ( List.length top,
        mean (fun r -> r.r_lat),
        mean (fun r -> r.r_queue),
        Array.init n_layers (fun l -> mean (fun r -> r.r_self.(l))) ))
    by_cls
