(** The `lsm_repro inspect` implementation: build the Fig. 12 preparation
    workload (insert-only tweets) at a given scale, then report the
    amplification triangle — write amplification from the engine's
    flush/merge accounting ({!Lsm_obs.Ampstats}), read amplification from
    a sampled probe of point and secondary lookups, space amplification
    from component snapshots against the live record volume — plus a
    per-component state table for every index of the dataset. *)

module J = Lsm_obs.Json
module Env = Lsm_sim.Env
module Io = Lsm_sim.Io_stats
module D = Setup.D
module Tweet = Lsm_workload.Tweet

type result = { reports : Report.t list; json : J.t }

let schema = "lsm-repro-inspect/1"

(* One row per disk component: its tree's name, its slot (0 = newest)
   and the tree's summary of it. *)
type comp_info = { tree : string; slot : int; c : Lsm_tree.component_summary }

let comp_columns =
  [ "tree"; "slot"; "id"; "rows"; "bytes"; "bloom"; "bitmap"; "repairedTS" ]

let comp_row { tree; slot; c } =
  [
    tree;
    string_of_int slot;
    Printf.sprintf "(%d,%d)" (fst c.cs_id) (snd c.cs_id);
    string_of_int c.cs_rows;
    string_of_int c.cs_bytes;
    (if c.cs_bloom then "y" else "-");
    (if c.cs_bitmap then "y" else "-");
    string_of_int c.cs_repaired_ts;
  ]

let comp_json { tree; slot; c } =
  J.Obj
    [
      ("tree", J.Str tree);
      ("slot", J.Int slot);
      ("min_ts", J.Int (fst c.cs_id));
      ("max_ts", J.Int (snd c.cs_id));
      ("rows", J.Int c.cs_rows);
      ("bytes", J.Int c.cs_bytes);
      ("bloom", J.Bool c.cs_bloom);
      ("bitmap", J.Bool c.cs_bitmap);
      ("repaired_ts", J.Int c.cs_repaired_ts);
    ]

let dataset_components d =
  List.concat_map
    (fun (tr : Lsm_tree.tree) ->
      List.mapi (fun slot c -> { tree = tr.name; slot; c }) (tr.summaries ()))
    (Array.to_list (D.trees d))

let f3 = Printf.sprintf "%.3f"

(** [run ?queries scale] builds the workload and measures; [queries]
    bounds the point-lookup probe sample. *)
let run ?(queries = 200) (scale : Scale.t) =
  let env = Setup.hdd_env scale in
  let d, _stream = Setup.insert_dataset env scale ~n:scale.Scale.records in
  (* --- write amplification: everything the engine flushed and merged *)
  let amp = Env.amp env in
  let wa = Lsm_obs.Ampstats.write_amplification amp in
  (* --- space amplification: bytes on disk vs live record payload.  The
     full scan doubles as the pk sample source for the read probe. *)
  let live_bytes = ref 0 in
  let pks = ref [] in
  let live = D.full_scan d ~f:(fun r ->
      live_bytes := !live_bytes + Tweet.Record.byte_size r;
      pks := Tweet.primary_key r :: !pks)
  in
  let disk_bytes = D.total_disk_bytes d in
  let sa =
    if !live_bytes = 0 then Float.nan
    else Float.of_int disk_bytes /. Float.of_int !live_bytes
  in
  (* --- read amplification: sampled point lookups (pages touched and
     Bloom outcomes per single-record read) *)
  let pks = Array.of_list !pks in
  let nq = min queries (Array.length pks) in
  let stride = if nq = 0 then 1 else max 1 (Array.length pks / nq) in
  let before = Io.copy (Env.stats env) in
  for i = 0 to nq - 1 do
    ignore (D.point_query d pks.(i * stride mod Array.length pks))
  done;
  let pq = Io.diff (Env.stats env) before in
  let per q = if nq = 0 then Float.nan else Float.of_int q /. Float.of_int nq in
  let ra = per (pq.Io.pages_read + pq.Io.cache_hits) in
  (* --- one 1%-selectivity secondary query, as a second read probe *)
  let before = Io.copy (Env.stats env) in
  let sec_hits =
    List.length
      (D.query_secondary d ~sec:"user_id" ~lo:0
         ~hi:(Tweet.user_id_domain / 100)
         ~mode:`Timestamp ())
  in
  let sq = Io.diff (Env.stats env) before in
  (* --- sorted views: the full scan and secondary probe above ran
     through them, so the counters describe this workload's read path *)
  let vs = Env.view_stats env in
  let view_note =
    Printf.sprintf
      "sorted views: %d built (%d rows, %d pages); %d scans touched %d \
       segments, skipped %d rows; %d invalidations, %d heap fallbacks"
      vs.Env.builds vs.Env.build_rows vs.Env.build_pages vs.Env.view_scans
      vs.Env.segments vs.Env.rows_skipped vs.Env.invalidations
      vs.Env.fallbacks
  in
  (* --- gauges: the in-memory footprint directly from the env's probes,
     plus any serve.*/mem.* registry gauges when observability is on
     (a previous serving run in this process publishes there).  The
     disabled obs handle is a shared value — never read its registry. *)
  let gauges =
    let base =
      ("mem.resident_bytes", Float.of_int (Env.mem_bytes env))
      ::
      (match Env.mem_budget env with
      | Some b -> [ ("mem.budget_bytes", Float.of_int b) ]
      | None -> [])
    in
    let extra = ref [] in
    if Lsm_obs.Obs.enabled (Env.obs env) then begin
      Env.publish_io_metrics env;
      Lsm_obs.Metrics.iter (Env.metrics env) (fun name labels m ->
          match m with
          | `Gauge g
            when labels = []
                 && (String.starts_with ~prefix:"serve." name
                    || String.starts_with ~prefix:"mem." name
                    || String.starts_with ~prefix:"resilience." name)
                 && not (List.mem_assoc name base) ->
              extra := (name, Lsm_obs.Metrics.gauge_value g) :: !extra
          | _ -> ())
    end;
    base @ List.rev !extra
  in
  let comps = dataset_components d in
  let amp_rows =
    [
      [ "write"; f3 wa;
        Printf.sprintf "%d flushes (%dB) + %d merges (%dB rewritten)"
          amp.Lsm_obs.Ampstats.flushes amp.Lsm_obs.Ampstats.flush_bytes
          amp.Lsm_obs.Ampstats.merges amp.Lsm_obs.Ampstats.merge_written_bytes ];
      [ "read"; f3 ra;
        Printf.sprintf
          "%d point lookups: %.2f pages + %.2f bloom probes (%.0f%% negative, \
           %d fp) each"
          nq
          (per (pq.Io.pages_read + pq.Io.cache_hits))
          (per pq.Io.bloom_probes)
          (if pq.Io.bloom_probes = 0 then 0.0
           else
             100.0 *. Float.of_int pq.Io.bloom_negatives
             /. Float.of_int pq.Io.bloom_probes)
          pq.Io.bloom_fps ];
      [ "space"; f3 sa;
        Printf.sprintf "%dB on disk / %dB live in %d records (all indexes)"
          disk_bytes !live_bytes live ];
    ]
  in
  let reports =
    [
      Report.make ~id:"inspect-amp"
        ~title:
          (Printf.sprintf
             "Amplification (fig-12 insert workload, %s = %d records)"
             scale.Scale.name scale.Scale.records)
        ~header:[ "amplification"; "factor"; "accounting" ]
        amp_rows
        ~notes:
          [
            Printf.sprintf
              "secondary 1%% query (ts-validated): %d records, %d pages read, \
               %d bloom probes"
              sec_hits sq.Io.pages_read sq.Io.bloom_probes;
            view_note;
            Printf.sprintf "gauges: %s"
              (String.concat ", "
                 (List.map
                    (fun (k, v) -> Printf.sprintf "%s=%.0f" k v)
                    gauges));
          ];
      Report.make ~id:"inspect-components" ~title:"Component state"
        ~header:comp_columns
        (List.map comp_row comps);
    ]
  in
  let json =
    J.Obj
      [
        ("schema", J.Str schema);
        ("scale", J.Str scale.Scale.name);
        ("records", J.Int scale.Scale.records);
        ( "merge_policy",
          J.Str (Lsm_tree.Merge_policy.describe (D.config d).D.merge_policy) );
        ( "write",
          J.Obj
            (("amplification", J.Float wa)
            :: List.map
                 (fun (k, v) -> (k, J.Int v))
                 (Lsm_obs.Ampstats.fields amp)) );
        ( "read",
          J.Obj
            [
              ("amplification", J.Float ra);
              ("point_lookups", J.Int nq);
              ("io", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) (Io.fields pq)));
              ( "secondary_query",
                J.Obj
                  (("records", J.Int sec_hits)
                  :: List.map (fun (k, v) -> (k, J.Int v)) (Io.fields sq)) );
            ] );
        ( "space",
          J.Obj
            [
              ("amplification", J.Float sa);
              ("disk_bytes", J.Int disk_bytes);
              ("live_bytes", J.Int !live_bytes);
              ("live_records", J.Int live);
            ] );
        ( "views",
          J.Obj
            [
              ("builds", J.Int vs.Env.builds);
              ("build_rows", J.Int vs.Env.build_rows);
              ("build_pages", J.Int vs.Env.build_pages);
              ("scans", J.Int vs.Env.view_scans);
              ("segments", J.Int vs.Env.segments);
              ("rows_skipped", J.Int vs.Env.rows_skipped);
              ("rows_emitted", J.Int vs.Env.rows_emitted);
              ("invalidations", J.Int vs.Env.invalidations);
              ("fallbacks", J.Int vs.Env.fallbacks);
            ] );
        ( "gauges",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) gauges) );
        ("components", J.List (List.map comp_json comps));
      ]
  in
  { reports; json }
