(** Model-based degraded-correctness checker for chaos runs.

    The front door under faults may answer partially, shed, or error —
    but it must never lie.  The checker replays the run's client-visible
    contract against the reference model of acknowledged writes
    ({!Lsm_faultsim.Model}, fault-free semantics) and audits three
    invariants:

    - {b answers are exact}: every non-errored answer (point, multi-get
      slot, secondary row set, per-partition scan count) equals the
      model's, with fan-out slots owned by errored partitions excused;
    - {b acked means durable}: after the run (including any mid-run
      crash/recovery), every acknowledged write is readable with its
      acknowledged value, via direct point queries;
    - {b nothing vanishes}: every arrival is accounted as a success, an
      error, or a shed — admission control counts, it never drops.

    The model applies *acknowledged* writes only, which is exactly why
    it stays sound under faults: an errored or shed write changed
    nothing (the driver's write path acks before any fallible eviction
    work), so model and engine agree on the committed state. *)

module Tweet = Lsm_workload.Tweet

module M = Lsm_faultsim.Model.Make (struct
  type t = Tweet.t

  let pk = Tweet.primary_key
end)

type t = {
  partitions : int;
  model : M.t;  (** acknowledged state *)
  mutable arrivals : int;
  mutable successes : int;
  mutable failures : int;
  mutable shed : int;
  mutable checked : int;  (** answers audited against the model *)
  mutable n_violations : int;
  mutable violations : string list;  (** newest first, capped *)
}

let create ~partitions () =
  if partitions < 1 then invalid_arg "Chaos_checker.create: partitions >= 1";
  {
    partitions;
    (* The table size fixes the iteration order, hence the order of the
       durability probes against the live cluster. *)
    model = M.create ~size:4096 ();
    arrivals = 0;
    successes = 0;
    failures = 0;
    shed = 0;
    checked = 0;
    n_violations = 0;
    violations = [];
  }

let route t pk = Lsm_core.Partitioned.owner ~partitions:t.partitions pk

(** [preload t r] seeds the model with a record ingested before traffic
    started (the driver's warm-up preload) — not an arrival. *)
let preload t r = M.upsert t.model r

let max_kept = 64

let violate t fmt =
  Printf.ksprintf
    (fun s ->
      t.n_violations <- t.n_violations + 1;
      if t.n_violations <= max_kept then t.violations <- s :: t.violations)
    fmt

let pp_opt = function
  | None -> "none"
  | Some r -> Fmt.str "%a" Tweet.pp r

let by_id =
  List.sort (fun a b -> Int.compare (Tweet.primary_key a) (Tweet.primary_key b))

(** [observe t obs] consumes one arrival's client-visible outcome, in
    arrival order. *)
let observe t (obs : Driver.chaos_obs) =
  t.arrivals <- t.arrivals + 1;
  match obs with
  | Driver.O_ack req -> (
      t.successes <- t.successes + 1;
      match req with
      | Driver.Rt.Insert r | Driver.Rt.Upsert r -> M.upsert t.model r
      | Driver.Rt.Delete pk -> M.delete t.model pk
      | _ -> violate t "protocol: ack of a non-write request")
  | Driver.O_reject_dup -> t.successes <- t.successes + 1
  | Driver.O_point (pk, v) ->
      t.successes <- t.successes + 1;
      t.checked <- t.checked + 1;
      let expect = M.point t.model pk in
      if v <> expect then
        violate t "point %d: got %s, expected %s" pk (pp_opt v) (pp_opt expect)
  | Driver.O_multi { got; err_parts } ->
      t.successes <- t.successes + 1;
      List.iter
        (fun (pk, v) ->
          t.checked <- t.checked + 1;
          if List.mem (route t pk) err_parts then
            violate t "multi slot %d answered by errored partition p%d" pk
              (route t pk);
          let expect = M.point t.model pk in
          if v <> expect then
            violate t "multi slot %d: got %s, expected %s" pk (pp_opt v)
              (pp_opt expect))
        got
  | Driver.O_secondary { lo; hi; rows; err_parts } ->
      t.successes <- t.successes + 1;
      t.checked <- t.checked + 1;
      (* Degraded answers are a value-exact subset keyed by partition:
         the answered rows must equal the model's rows owned by
         non-errored partitions. *)
      let expect =
        M.fold t.model
          (fun r acc ->
            if
              Tweet.user_id r >= lo
              && Tweet.user_id r <= hi
              && not (List.mem (route t (Tweet.primary_key r)) err_parts)
            then r :: acc
            else acc)
          []
      in
      if by_id rows <> by_id expect then
        violate t
          "secondary [%d,%d]: %d rows, expected %d (excusing %d errored \
           partitions)"
          lo hi (List.length rows) (List.length expect)
          (List.length err_parts)
  | Driver.O_scan { tlo; thi; counts; err_parts } ->
      t.successes <- t.successes + 1;
      t.checked <- t.checked + 1;
      List.iter
        (fun (i, c) ->
          if List.mem i err_parts then
            violate t "scan slot p%d both answered and errored" i;
          let expect =
            M.fold t.model
              (fun r acc ->
                if
                  Tweet.created_at r >= tlo
                  && Tweet.created_at r <= thi
                  && route t (Tweet.primary_key r) = i
                then acc + 1
                else acc)
              0
          in
          if c <> expect then
            violate t "time scan [%d,%d] p%d: %d rows, expected %d" tlo thi i c
              expect)
        counts
  | Driver.O_error _ -> t.failures <- t.failures + 1
  | Driver.O_shed -> t.shed <- t.shed + 1

type verdict = {
  v_arrivals : int;
  v_successes : int;
  v_failures : int;
  v_shed : int;
  v_checked : int;  (** answers audited against the model *)
  v_probed : int;  (** acked keys re-read for the durability audit *)
  v_violations_total : int;
  v_violations : string list;  (** oldest first, first {!max_kept} kept *)
}

let ok v = v.v_violations_total = 0

(** [verify t ~probe] finishes the audit with the durability pass:
    every key the model holds must come back from [probe] (direct
    point queries against the post-run cluster) with its acknowledged
    value. *)
let verify t ~probe =
  let probed = ref 0 in
  M.fold t.model
    (fun r () ->
      let pk = Tweet.primary_key r in
      incr probed;
      match probe pk with
      | Some r' when r' = r -> ()
      | v ->
          violate t "durability: acked key %d reads %s after recovery, not %s"
            pk (pp_opt v)
            (pp_opt (Some r)))
    ();
  {
    v_arrivals = t.arrivals;
    v_successes = t.successes;
    v_failures = t.failures;
    v_shed = t.shed;
    v_checked = t.checked;
    v_probed = !probed;
    v_violations_total = t.n_violations;
    v_violations = List.rev t.violations;
  }

let pp_verdict fmt v =
  Fmt.pf fmt
    "chaos checker: %s (%d arrivals = %d ok + %d errors + %d shed; %d \
     answers audited, %d keys probed durable)"
    (if ok v then "PASS" else Printf.sprintf "FAIL (%d violations)" v.v_violations_total)
    v.v_arrivals v.v_successes v.v_failures v.v_shed v.v_checked v.v_probed;
  List.iter (fun s -> Fmt.pf fmt "@.  violation: %s" s) v.v_violations
