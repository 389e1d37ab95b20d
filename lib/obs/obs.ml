(** The observability handle an engine component carries: one metrics
    registry plus one span tracer, with a single [enabled] flag the hot
    paths branch on.  {!disabled} is the default everywhere — engines are
    instrumented unconditionally and pay one branch per instrumentation
    point until someone calls {!create}. *)

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  enabled : bool;
  metrics : Metrics.t;
  tracer : Tracer.t;
  span_hists : (string * Histogram.t) list Names.t;
      (** span name -> (category, its [span.<name>] histogram) *)
}

let disabled =
  {
    enabled = false;
    metrics = Metrics.create ();
    tracer = Tracer.disabled;
    span_hists = Names.create 1;
  }

(** [create ()] builds an enabled handle; [trace_capacity] bounds the
    tracer's span ring and [arg_names] names its span arguments. *)
let create ?trace_capacity ~arg_names () =
  {
    enabled = true;
    metrics = Metrics.create ();
    tracer = Tracer.create ?capacity:trace_capacity ~arg_names ();
    span_hists = Names.create 64;
  }

let enabled t = t.enabled

(** [span_histogram t ~cat name] is the registry's [span.<name>] latency
    histogram, labelled [src=cat] unless [cat] is empty.  Each (category,
    name) is looked up in the registry once; later calls hash the name
    only and allocate nothing. *)
let span_histogram t ~cat name =
  let by_cat =
    match Names.find t.span_hists name with l -> l | exception Not_found -> []
  in
  let rec pick = function
    | (c, h) :: _ when String.equal c cat -> h
    | _ :: tl -> pick tl
    | [] ->
        let labels = if cat = "" then [] else [ ("src", cat) ] in
        let h = Metrics.histogram t.metrics ~labels ("span." ^ name) in
        Names.replace t.span_hists name ((cat, h) :: by_cat);
        h
  in
  pick by_cat
