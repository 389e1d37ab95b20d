(** EXPLAIN ANALYZE-style plan recording.

    A recorder turns the engine's instrumented sections into plan trees
    (the same sites as tracer spans — see [Lsm_sim.Env.span], which owns
    the span stack and drives this module): each section becomes a node
    carrying its simulated duration, the I/O counter delta it caused
    (inclusive and self), plus free-form properties ([annotate]) and
    named operation counters ([count] — component probes, Bloom
    hits/negatives/false-positives, cursor restarts, entries validated
    vs. discarded...).

    Per distinct root operation (e.g. [query.point]) the recorder keeps
    the {e first} tree and the execution count, so explaining a
    10K-query experiment builds one tree per operation shape, not 10K:
    a later root of a retained name builds no nodes at all.

    Invariant the test suite leans on: a node's inclusive I/O delta
    equals its self delta plus the sum of its children's inclusive
    deltas — so summing [self_io] over a tree reproduces the root's
    (top-level) delta exactly. *)

type node = {
  name : string;
  mutable props : (string * string) list;  (** insertion order *)
  mutable counts : (string * int) list;  (** named op counters *)
  mutable dur_us : float;  (** inclusive simulated time *)
  mutable self_us : float;
  mutable io : (string * int) list;  (** inclusive I/O delta *)
  mutable self_io : (string * int) list;
  mutable children : node list;
}

type plan = { root : node; executions : int }

type t = {
  active : bool;
  plans : (string, node * int ref) Hashtbl.t;  (** first tree per root name *)
  mutable order : string list;  (** root names, reverse arrival order *)
}

let create () = { active = true; plans = Hashtbl.create 16; order = [] }
let disabled = { active = false; plans = Hashtbl.create 1; order = [] }
let active t = t.active

let fresh name =
  {
    name;
    props = [];
    counts = [];
    dur_us = 0.0;
    self_us = 0.0;
    io = [];
    self_io = [];
    children = [];
  }

let enter_root t name =
  match Hashtbl.find_opt t.plans name with
  | Some (_, execs) ->
      incr execs;
      None
  | None ->
      let n = fresh name in
      Hashtbl.add t.plans name (n, ref 1);
      t.order <- name :: t.order;
      Some n

let enter_child parent name =
  let n = fresh name in
  parent.children <- n :: parent.children;
  n

let leave n ~dur_us ~self_us ~io ~self_io =
  (* Children were consed on; restore execution order. *)
  n.children <- List.rev n.children;
  n.dur_us <- dur_us;
  n.self_us <- self_us;
  n.io <- io;
  n.self_io <- self_io

let annotate n props = n.props <- n.props @ props

let count n key by =
  let rec go = function
    | [] -> [ (key, by) ]
    | (k, v) :: rest when k = key -> (k, v + by) :: rest
    | kv :: rest -> kv :: go rest
  in
  n.counts <- go n.counts

let nonzero = List.filter (fun (_, v) -> v <> 0)

let plans t =
  List.rev_map
    (fun name ->
      let root, execs = Hashtbl.find t.plans name in
      { root; executions = !execs })
    t.order

(* ------------------------------------------------------------------ *)
(* Text rendering *)

let fmt_kvs fmt kvs =
  String.concat " " (List.map (fun (k, v) -> Printf.sprintf fmt k v) kvs)

let render_node buf root =
  let rec go ~root prefix is_last n =
    let branch, child_pad =
      if root then ("", "")
      else if is_last then (prefix ^ "└─ ", prefix ^ "   ")
      else (prefix ^ "├─ ", prefix ^ "│  ")
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s  (dur %.3fus, self %.3fus)" branch n.name n.dur_us
         n.self_us);
    if n.props <> [] then
      Buffer.add_string buf ("  {" ^ fmt_kvs "%s=%s" n.props ^ "}");
    Buffer.add_char buf '\n';
    let detail line =
      Buffer.add_string buf
        (child_pad ^ (if n.children = [] then "     " else "│    ") ^ line ^ "\n")
    in
    (match nonzero n.counts with
    | [] -> ()
    | cs -> detail ("counters: " ^ fmt_kvs "%s=%d" cs));
    (match nonzero n.self_io with
    | [] -> ()
    | io -> detail ("io(self): " ^ fmt_kvs "%s=%d" io));
    let rec children = function
      | [] -> ()
      | [ c ] -> go ~root:false child_pad true c
      | c :: rest ->
          go ~root:false child_pad false c;
          children rest
    in
    children n.children
  in
  go ~root:true "" true root

let to_text t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "plan: %s  (executions: %d, first shown)\n" p.root.name
           p.executions);
      (match nonzero p.root.io with
      | [] -> ()
      | io ->
          Buffer.add_string buf ("io(total): " ^ fmt_kvs "%s=%d" io ^ "\n"));
      render_node buf p.root;
      Buffer.add_char buf '\n')
    (plans t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON rendering *)

let schema = "lsm-repro-explain/1"

let rec node_to_json n =
  let obj_of conv kvs = Json.Obj (List.map (fun (k, v) -> (k, conv v)) kvs) in
  Json.Obj
    [
      ("name", Json.Str n.name);
      ("dur_us", Json.Float n.dur_us);
      ("self_us", Json.Float n.self_us);
      ("props", obj_of (fun v -> Json.Str v) n.props);
      ("counters", obj_of (fun v -> Json.Int v) (nonzero n.counts));
      ("io", obj_of (fun v -> Json.Int v) (nonzero n.io));
      ("io_self", obj_of (fun v -> Json.Int v) (nonzero n.self_io));
      ("children", Json.List (List.map node_to_json n.children));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ( "plans",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("name", Json.Str p.root.name);
                   ("executions", Json.Int p.executions);
                   ("root", node_to_json p.root);
                 ])
             (plans t)) );
    ]
