(** Deterministic fault plans over {!Lsm_sim.Env} fault points.

    The engine announces every crash-relevant transition through
    [Env.fault_point] (page I/O, flush/merge begin and install, WAL
    append/commit boundaries, checkpoint phases).  An {!injector} counts
    those announcements; a {!plan} names a window of them — [fails]
    consecutive occurrences of [point] starting at the [hit]-th — and
    raises {!Lsm_sim.Env.Injected_fault} there: as a {e crash}
    (execution stops; the harness runs recovery), a {e transient I/O
    error} (the engine's retry/backoff absorbs it, or surfaces
    [Resilience.Unrecoverable] when the window outlasts the budget), or
    {e corruption} (the engine flips the page's simulated checksum and
    carries on; detection happens at read time).

    Because workloads are seeded and the simulated environment has no
    hidden nondeterminism, a counting run and an armed run observe the
    identical announcement sequence: every failure reproduces from
    (seed, point, hit, fails) alone. *)

module Point = Lsm_sim.Fault_point

type kind = Lsm_sim.Env.fault_kind = Crash | Io_error | Corrupt

type plan = { kind : kind; point : Point.t; hit : int; fails : int }
(** Fail at announcements [hit .. hit + fails - 1] (1-based) of
    [point].  [fails = 1] is the classic one-shot fault; [fails > 1]
    models an intermittent fault that persists across retries. *)

let plan ?(fails = 1) kind ~point ~hit = { kind; point; hit; fails }

let kind_to_string = Lsm_sim.Env.string_of_fault_kind

(* Every accepted spelling; "io" is canonical, "io-error" an alias. *)
let kind_spellings =
  [
    ("crash", Crash);
    ("io", Io_error);
    ("io-error", Io_error);
    ("corrupt", Corrupt);
  ]

let kind_of_string s = List.assoc_opt s kind_spellings

let describe p =
  Printf.sprintf "%s at %s hit %d%s" (kind_to_string p.kind)
    (Point.name p.point) p.hit
    (if p.fails > 1 then Printf.sprintf " x%d" p.fails else "")

type injector = {
  counts : (Point.t, int) Hashtbl.t;
  plan : plan option;  (** [None] = counting only *)
  mutable armed : bool;
  mutable fired : bool;
}

let injector plan =
  { counts = Hashtbl.create 32; plan; armed = true; fired = false }

let fired i = i.fired

(** [hits i] is every point's announcement total, in
    {!Lsm_sim.Fault_point.all} order (unannounced points count 0). *)
let hits i =
  List.map
    (fun p -> (p, Option.value ~default:0 (Hashtbl.find_opt i.counts p)))
    Point.all

let total i = Hashtbl.fold (fun _ v acc -> acc + v) i.counts 0

let hook i point =
  let n = 1 + try Hashtbl.find i.counts point with Not_found -> 0 in
  Hashtbl.replace i.counts point n;
  match i.plan with
  | Some p
    when i.armed && n >= p.hit
         && n < p.hit + p.fails
         && p.point = point ->
      (* Disarm after the last firing of the window: recovery and
         post-crash checking re-enter the engine, and a plan must fire a
         bounded number of times. *)
      if n = p.hit + p.fails - 1 then i.armed <- false;
      i.fired <- true;
      raise (Lsm_sim.Env.Injected_fault { kind = p.kind; point; hit = n })
  | _ -> ()

(** [arm i env] installs the injector as [env]'s fault hook. *)
let arm i env = Lsm_sim.Env.set_fault_hook env (hook i)
