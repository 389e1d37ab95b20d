(** Machine-readable bench snapshots (schema ["lsm-repro-bench/1"]).

    One document holds one suite run — the bechamel microbenchmarks or
    the paper-figure tables — as a flat list of named entries.  Each
    entry keeps its raw samples alongside the derived p50/p95/p99 so a
    later reader can re-derive anything; [compare] diffs two documents
    and flags regressions, which the CI script runs in advisory mode
    against the committed baseline. *)

module J = Lsm_obs.Json

let schema = "lsm-repro-bench/1"

type entry = {
  name : string;
  unit_ : string;  (** e.g. "ns/run", "records/s" — whatever the suite measures *)
  samples : float array;  (** raw per-run values, unsorted *)
}

type doc = {
  kind : string;  (** "micro" | "figures" *)
  scale : string option;  (** figures only: the Scale.t name *)
  entries : entry list;
}

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* The one nan-safe nearest-rank percentile, shared with the serving
   driver — see [Lsm_obs.Stats] for the nan semantics. *)
let percentile = Lsm_obs.Stats.percentile

let p50 e = percentile e.samples 50.0
let p95 e = percentile e.samples 95.0
let p99 e = percentile e.samples 99.0

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization *)

let entry_json e =
  J.Obj
    [
      ("name", J.Str e.name);
      ("unit", J.Str e.unit_);
      ("p50", J.Float (p50 e));
      ("p95", J.Float (p95 e));
      ("p99", J.Float (p99 e));
      ("samples", J.List (Array.to_list (Array.map (fun s -> J.Float s) e.samples)));
    ]

let to_json d =
  J.Obj
    (("schema", J.Str schema)
    :: ("kind", J.Str d.kind)
    :: (match d.scale with
       | Some s -> [ ("scale", J.Str s) ]
       | None -> [])
    @ [ ("entries", J.List (List.map entry_json d.entries)) ])

let write ~path d = J.write ~path (to_json d)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let req what = function Some v -> Ok v | None -> Error ("bench doc: missing " ^ what)

let entry_of_json j =
  let* name = req "entry name" Option.(bind (J.member "name" j) J.to_string_opt) in
  let* unit_ = req "entry unit" Option.(bind (J.member "unit" j) J.to_string_opt) in
  let* samples =
    req "entry samples" Option.(bind (J.member "samples" j) J.to_list)
  in
  let* samples =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* v = req "numeric sample" (J.to_float s) in
        Ok (v :: acc))
      (Ok []) samples
  in
  Ok { name; unit_; samples = Array.of_list (List.rev samples) }

let of_json j =
  let* sch = req "schema" Option.(bind (J.member "schema" j) J.to_string_opt) in
  if sch <> schema then Error (Printf.sprintf "bench doc: schema %S, want %S" sch schema)
  else
    let* kind = req "kind" Option.(bind (J.member "kind" j) J.to_string_opt) in
    let scale = Option.bind (J.member "scale" j) J.to_string_opt in
    let* entries = req "entries" Option.(bind (J.member "entries" j) J.to_list) in
    let* entries =
      List.fold_left
        (fun acc e ->
          let* acc = acc in
          let* e = entry_of_json e in
          Ok (e :: acc))
        (Ok []) entries
    in
    Ok { kind; scale; entries = List.rev entries }

let read ~path =
  let* j = J.read ~path in
  of_json j

(* ------------------------------------------------------------------ *)
(* Suite adapters *)

(** [of_reports ~scale reports] flattens figure tables into entries named
    ["<report_id>/<row_label>/<col_header>"], one per numeric cell.  One
    table run yields one sample per entry. *)
let of_reports ~scale reports =
  (* Pad/truncate ragged rows so map2 below always lines up. *)
  let fit n xs =
    let rec go i = function
      | _ when i = n -> []
      | [] -> "" :: go (i + 1) []
      | x :: tl -> x :: go (i + 1) tl
    in
    go 0 xs
  in
  let entries =
    List.concat_map
      (fun (r : Report.t) ->
        let cols = match r.Report.header with [] -> [] | _ :: tl -> tl in
        List.concat_map
          (fun row ->
            match row with
            | [] -> []
            | label :: cells ->
                List.concat
                  (List.map2
                     (fun col cell ->
                       match float_of_string_opt cell with
                       | Some v ->
                           [
                             {
                               name =
                                 Printf.sprintf "%s/%s/%s" r.Report.id label col;
                               unit_ = col;
                               samples = [| v |];
                             };
                           ]
                       | None -> [])
                     cols
                     (fit (List.length cols) cells)))
          r.Report.rows)
      reports
  in
  { kind = "figures"; scale = Some scale.Scale.name; entries }

(* ------------------------------------------------------------------ *)
(* Comparison *)

type regression = {
  r_name : string;
  r_old : float;  (** baseline p50 *)
  r_new : float;  (** candidate p50; nan when the candidate lacks the entry *)
  r_ratio : float;  (** new / old *)
}

(** Speedups (unit ["x"]) improve upward; every other unit we snapshot
    is a cost. *)
let higher_is_better e = String.equal e.unit_ "x"

(** [compare_docs ~threshold old_d new_d] matches entries by name and
    flags every one whose candidate p50 is worse than the baseline p50
    by more than [threshold], in the entry's direction, plus every
    baseline entry the candidate lacks.  Returns
    [(regressions, compared, only_old, only_new)]. *)
let compare_docs ~threshold old_d new_d =
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl e.name e) old_d.entries;
  let compared = ref 0 and regs = ref [] and only_new = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl e.name with
      | None -> only_new := e.name :: !only_new
      | Some o ->
          Hashtbl.remove tbl e.name;
          incr compared;
          let ov = p50 o and nv = p50 e in
          (* Orient the pair so [worse] grows on a regression.  A zero
             [base] (e.g. the sorted view's zero scan comparisons) can't
             regress by ratio, so any move off zero is flagged outright. *)
          let base, worse = if higher_is_better o then (nv, ov) else (ov, nv) in
          if
            Float.is_finite ov && Float.is_finite nv
            && ((base > 0.0 && worse > base *. (1.0 +. threshold))
               || (base = 0.0 && worse > 0.0))
          then
            regs :=
              { r_name = e.name; r_old = ov; r_new = nv; r_ratio = nv /. ov }
              :: !regs)
    new_d.entries;
  let only_old =
    List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])
  in
  let missing =
    List.map
      (fun name ->
        let ov = p50 (Hashtbl.find tbl name) in
        { r_name = name; r_old = ov; r_new = Float.nan; r_ratio = Float.nan })
      only_old
  in
  (List.rev_append !regs missing, !compared, only_old, List.rev !only_new)

let pp_regression fmt r =
  if Float.is_nan r.r_new then
    Format.fprintf fmt "%-44s %12.1f -> missing from candidate" r.r_name
      r.r_old
  else
    Format.fprintf fmt "%-44s %12.1f -> %12.1f  (%+.1f%%)" r.r_name r.r_old
      r.r_new ((r.r_ratio -. 1.0) *. 100.0)
