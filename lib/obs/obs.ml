(** The observability handle an engine component carries: one metrics
    registry plus one span tracer, with a single [enabled] flag the hot
    paths branch on.  {!disabled} is the default everywhere — engines are
    instrumented unconditionally and pay one branch per instrumentation
    point until someone calls {!create}. *)

type t = {
  enabled : bool;
  metrics : Metrics.t;
  tracer : Tracer.t;
}

let disabled =
  { enabled = false; metrics = Metrics.create (); tracer = Tracer.disabled }

(** [create ()] builds an enabled handle; [trace_capacity] bounds the
    tracer's span ring and [arg_names] names its span arguments. *)
let create ?trace_capacity ~arg_names () =
  {
    enabled = true;
    metrics = Metrics.create ();
    tracer = Tracer.create ?capacity:trace_capacity ~arg_names ();
  }

let enabled t = t.enabled
