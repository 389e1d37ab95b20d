(** Machine-readable bench snapshots: schema-versioned JSON documents
    holding named entries with raw samples and p50/p95/p99, plus a
    the baseline comparison behind CI's [sim.*] gate and its advisory
    full compare. *)

val schema : string
(** ["lsm-repro-bench/1"]. *)

type entry = {
  name : string;
  unit_ : string;
  samples : float array;  (** raw per-run values, unsorted *)
}

type doc = {
  kind : string;  (** "micro" | "figures" *)
  scale : string option;
  entries : entry list;
}

val percentile : float array -> float -> float
(** Nearest-rank percentile; nan on an empty array.  An alias of
    {!Lsm_obs.Stats.percentile} (nan samples dropped first), kept so
    bench consumers need not import lsm_obs. *)

val p50 : entry -> float
val p95 : entry -> float
val p99 : entry -> float

val to_json : doc -> Lsm_obs.Json.t
val of_json : Lsm_obs.Json.t -> (doc, string) result
val write : path:string -> doc -> unit
val read : path:string -> (doc, string) result

val of_reports : scale:Scale.t -> Report.t list -> doc
(** Flatten figure tables into entries named
    ["<report_id>/<row_label>/<col_header>"], one per numeric cell. *)

type regression = {
  r_name : string;
  r_old : float;  (** baseline p50 *)
  r_new : float;  (** candidate p50; nan when the candidate lacks the entry *)
  r_ratio : float;  (** new / old *)
}

val compare_docs :
  threshold:float ->
  doc ->
  doc ->
  regression list * int * string list * string list
(** [compare_docs ~threshold old new] flags entries whose candidate p50
    is worse than the baseline's by more than [threshold]: higher for a
    cost, lower for a unit-["x"] speedup.  An entry named [sim.*] is
    simulated cost, deterministic and single-sample, so any change to
    its p50, in either direction, is flagged whatever the threshold.  A
    baseline entry missing from the candidate is a regression too (with
    [r_new] nan).  Returns
    (regressions, compared count, names only in old, names only in
    new). *)

val pp_regression : Format.formatter -> regression -> unit
