(** EXPLAIN ANALYZE-style plan recording.

    A recorder turns the engine's instrumented sections into plan trees:
    one node per section, carrying simulated duration, the I/O counter
    delta it caused (inclusive and self), free-form properties, and
    named operation counters (component probes, Bloom outcomes, cursor
    restarts, validation results).  Per distinct root operation the
    first tree is retained together with an execution count; later
    roots of that name build no nodes.

    Invariant: a node's inclusive I/O delta equals its self delta plus
    the sum of its children's inclusive deltas, so [self_io] summed over
    a tree reproduces the root's top-level delta exactly. *)

type node = {
  name : string;
  mutable props : (string * string) list;
  mutable counts : (string * int) list;
  mutable dur_us : float;
  mutable self_us : float;
  mutable io : (string * int) list;
  mutable self_io : (string * int) list;
  mutable children : node list;
}

type plan = { root : node; executions : int }

type t

val create : unit -> t
(** An active recorder, fed by [Lsm_sim.Env.span]. *)

val disabled : t
(** Inert recorder: the environment builds no nodes for it. *)

val active : t -> bool

(** {1 Tree building}

    Called by the span owner ([Lsm_sim.Env.span]) only: it opens a node
    per section and closes it with the duration and I/O delta it
    measured. *)

val enter_root : t -> string -> node option
(** [enter_root t name] opens the root of a top-level section: a fresh
    node retained as [name]'s plan, or [None] (counting one more
    execution) when [name]'s first tree is already retained — its
    subtree is then not built. *)

val enter_child : node -> string -> node
(** [enter_child parent name] opens a node under [parent]. *)

val leave :
  node ->
  dur_us:float ->
  self_us:float ->
  io:(string * int) list ->
  self_io:(string * int) list ->
  unit
(** Close a node with its inclusive and self time and I/O delta. *)

val annotate : node -> (string * string) list -> unit
(** Append properties to a node. *)

val count : node -> string -> int -> unit
(** [count n key by] bumps named counter [key] on [n]. *)

val plans : t -> plan list
(** Retained plans in first-arrival order. *)

val schema : string
(** Schema tag carried by {!to_json} documents ("lsm-repro-explain/1"). *)

val to_text : t -> string
(** Aligned text tree, one block per retained plan. *)

val to_json : t -> Json.t
