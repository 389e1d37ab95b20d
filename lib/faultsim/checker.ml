(** The crash-consistency checker: after a scenario completes — or
    crashes and recovers — every invariant the paper's recovery protocol
    promises (Sec. 5.2) must hold against the committed-state model.

    - durability: every committed write is visible; every uncommitted or
      aborted write is invisible (point queries over every key ever
      mentioned, scan and range counts);
    - index agreement: secondary queries in every supported validation
      mode return exactly the model's answer;
    - pair alignment (Mutable-bitmap): the primary index and the primary
      key index hold the same components with the same rows, and share
      the same validity-bitmap objects bit for bit;
    - eventual healing: after an explicit heal sweep, no component
      remains quarantined, no corrupt page survives on a live file, and
      the dataset still agrees with the model (degraded-state
      correctness is verified by the query checks that run first);
    - repair sanity: repairedTS never regresses across a standalone
      repair pass;
    - log sanity: the WAL passes [Wal.check], and a drive that completed
      (its last step a full flush) retains no record;
    - accounting sanity: I/O and resilience counters non-negative,
      write amplification finite.

    Checks return a list of human-readable failure strings; empty means
    the state is accepted. *)

module S = Scenario
module D = Scenario.D
module M = Scenario.M
module Tweet = Lsm_workload.Tweet
module Strategy = Lsm_core.Strategy
module Bitset = Lsm_util.Bitset

let failf acc fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt

let pks rs = List.sort compare (List.map Tweet.primary_key rs)

(* ------------------------------------------------------------------ *)
(* Durability: point lookups, scans, range counts *)

let check_points acc (st : S.t) =
  List.iter
    (fun pk ->
      let got = D.point_query st.S.d pk in
      let want = M.point st.S.model pk in
      if got <> want then
        let show = function
          | None -> "absent"
          | Some r ->
              Printf.sprintf "{user=%d at=%d len=%d}" r.Tweet.user_id
                r.Tweet.created_at r.Tweet.msg_len
        in
        failf acc "point %d: dataset %s, model %s" pk (show got) (show want))
    (M.touched st.S.model)

let check_counts acc (st : S.t) =
  let want = M.count st.S.model in
  let scanned = D.full_scan st.S.d ~f:(fun _ -> ()) in
  if scanned <> want then
    failf acc "full_scan: %d rows, model %d" scanned want;
  let thi = max 1 st.S.at in
  let timed = D.query_time_range st.S.d ~tlo:0 ~thi ~f:(fun _ -> ()) in
  if timed <> want then
    failf acc "time_range [0,%d]: %d rows, model %d" thi timed want;
  (* A strict sub-range exercises component pruning. *)
  let tlo = thi / 4 and tmid = thi / 2 in
  let sub = D.query_time_range st.S.d ~tlo ~thi:tmid ~f:(fun _ -> ()) in
  let want_sub = M.count_by st.S.model Tweet.created_at ~lo:tlo ~hi:tmid in
  if sub <> want_sub then
    failf acc "time_range [%d,%d]: %d rows, model %d" tlo tmid sub want_sub

(* ------------------------------------------------------------------ *)
(* Secondary-index agreement *)

let check_secondary acc (st : S.t) =
  let lo = 0 and hi = st.S.cfg.S.user_domain - 1 in
  let want =
    pks (M.range_by st.S.model Tweet.user_id ~lo ~hi)
  in
  List.iter
    (fun mode ->
      let got = pks (D.query_secondary st.S.d ~sec:"user_id" ~lo ~hi ~mode ()) in
      if got <> want then
        failf acc "secondary [%d,%d] mode %s: %d pks, model %d"
          lo hi
          (match mode with
          | `Direct -> "direct"
          | `Timestamp -> "timestamp"
          | `Assume_valid -> "assume_valid")
          (List.length got) (List.length want))
    [ `Direct; `Timestamp ];
  let got_keys =
    List.sort compare
      (D.query_secondary_keys st.S.d ~sec:"user_id" ~lo ~hi ~mode:`Timestamp ())
  in
  let want_keys = M.keys_by st.S.model Tweet.user_id ~lo ~hi in
  if got_keys <> want_keys then
    failf acc "secondary keys [%d,%d]: %d pairs, model %d" lo hi
      (List.length got_keys) (List.length want_keys)

(* ------------------------------------------------------------------ *)
(* Primary-pair alignment (Mutable-bitmap) *)

let bitset_equal a b =
  Bitset.length a = Bitset.length b
  &&
  let ok = ref true in
  for i = 0 to Bitset.length a - 1 do
    if Bitset.get a i <> Bitset.get b i then ok := false
  done;
  !ok

let check_pair_alignment acc (st : S.t) =
  if Strategy.uses_primary_bitmap (D.strategy st.S.d) then
    match D.pk_index st.S.d with
    | None -> failf acc "mutable-bitmap dataset has no primary key index"
    | Some pkt ->
        let pcs = D.Prim.components (D.primary st.S.d) in
        let kcs = D.Pk.components pkt in
        if Array.length pcs <> Array.length kcs then
          failf acc "pair misaligned: %d primary vs %d pk components"
            (Array.length pcs) (Array.length kcs)
        else
          Array.iteri
            (fun i pc ->
              let kc = kcs.(i) in
              let pid = D.Prim.component_id pc
              and kid = D.Pk.component_id kc in
              if pid <> kid then
                failf acc "pair comp %d: primary id (%d,%d) vs pk (%d,%d)" i
                  (fst pid) (snd pid) (fst kid) (snd kid);
              let prows = D.Prim.component_rows pc
              and krows = D.Pk.component_rows kc in
              if prows <> krows then
                failf acc "pair comp %d: %d primary rows vs %d pk rows" i
                  prows krows;
              if
                not
                  (List.equal Lsm_tree.flush_origin_equal pc.D.Prim.prov
                     kc.D.Pk.prov)
              then failf acc "pair comp %d: flush provenance differs" i;
              match (pc.D.Prim.bitmap, kc.D.Pk.bitmap) with
              | None, None -> ()
              | Some pb, Some kb ->
                  if pb != kb then
                    failf acc "pair comp %d: bitmaps are distinct objects" i;
                  if not (bitset_equal pb kb) then
                    failf acc "pair comp %d: bitmap contents differ" i
              | Some _, None | None, Some _ ->
                  failf acc "pair comp %d: bitmap present on one side only" i)
            pcs

(* ------------------------------------------------------------------ *)
(* RepairedTS monotonicity *)

let sec_repaired_ts (st : S.t) =
  Array.to_list (D.secondaries st.S.d)
  |> List.concat_map (fun (s : D.sec_index) ->
         Array.to_list (D.Sec.components s.D.tree)
         |> List.map (fun c -> (s.D.sec_name, c.D.Sec.seq, c.D.Sec.repaired_ts)))

let check_repair_monotone acc (st : S.t) =
  let before = sec_repaired_ts st in
  List.iter
    (fun (n, seq, ts) ->
      if ts < 0 then failf acc "%s comp %d: repairedTS %d < 0" n seq ts)
    before;
  D.standalone_repair st.S.d;
  let after = sec_repaired_ts st in
  List.iter
    (fun (n, seq, ts) ->
      match List.find_opt (fun (n', s', _) -> n' = n && s' = seq) after with
      | Some (_, _, ts') when ts' < ts ->
          failf acc "%s comp %d: repairedTS regressed %d -> %d" n seq ts ts'
      | _ -> ())
    before

(* ------------------------------------------------------------------ *)
(* Eventual healing: post-fault state must be not only correct but
   fully healable — after the supervisor settles (an explicit heal
   sweep), no component may remain quarantined, no corrupt page may
   survive on a live file, and the dataset must still agree with the
   model.  Runs AFTER the query checks above, which verified that
   *degraded* reads were already correct. *)

let check_healed acc (st : S.t) =
  let had_work =
    Lsm_sim.Env.corrupt_page_count st.S.env > 0
    || D.quarantined_count st.S.d > 0
  in
  D.heal st.S.d;
  let q = D.quarantined_count st.S.d in
  if q <> 0 then failf acc "heal left %d components quarantined" q;
  let c = Lsm_sim.Env.corrupt_page_count st.S.env in
  if c <> 0 then failf acc "heal left %d corrupt pages on live files" c;
  if had_work then begin
    (* The rebuild/scrub physically rewrote components: recount. *)
    let want = M.count st.S.model in
    let scanned = D.full_scan st.S.d ~f:(fun _ -> ()) in
    if scanned <> want then
      failf acc "post-heal full_scan: %d rows, model %d" scanned want
  end

(* ------------------------------------------------------------------ *)
(* The log: structure after recovery, and truncation after the final
   flush of a completed drive *)

let check_wal acc (st : S.t) =
  let wal = S.T.wal st.S.t in
  (match Lsm_txn.Wal.check wal with Ok () -> () | Error e -> failf acc "%s" e);
  match st.S.outcome with
  | S.Completed ->
      let n = Lsm_txn.Wal.retained wal in
      if n <> 0 then failf acc "wal: %d records retained after the final flush" n
  | S.Crashed _ -> ()

(* ------------------------------------------------------------------ *)
(* Accounting sanity *)

let check_accounting acc (st : S.t) =
  let amp = Lsm_sim.Env.amp st.S.env in
  let wa = Lsm_obs.Ampstats.write_amplification amp in
  (* Before the first flush the ratio is nan by definition; once any
     bytes were flushed it must be a finite factor >= 1. *)
  if
    amp.Lsm_obs.Ampstats.flush_bytes > 0
    && (Float.is_nan wa || wa = Float.infinity || wa < 1.0)
  then failf acc "write amplification not finite/sane: %f" wa;
  List.iter
    (fun (name, v) ->
      if v < 0 then failf acc "amp counter %s negative: %d" name v)
    (Lsm_obs.Ampstats.fields amp);
  List.iter
    (fun (name, v) ->
      if v < 0 then failf acc "io counter %s negative: %d" name v)
    (Lsm_sim.Io_stats.fields (Lsm_sim.Env.stats st.S.env));
  let r = Lsm_sim.Env.resil st.S.env in
  List.iter
    (fun (name, v) ->
      if v < 0 then failf acc "resilience counter %s negative: %d" name v)
    [
      ("retries", r.Lsm_sim.Env.retries);
      ("exhausted", r.Lsm_sim.Env.exhausted);
      ("checksum_failures", r.Lsm_sim.Env.checksum_failures);
      ("degraded_probes", r.Lsm_sim.Env.degraded_probes);
      ("quarantines", r.Lsm_sim.Env.quarantines);
      ("rebuilds", r.Lsm_sim.Env.rebuilds);
      ("reschedules", r.Lsm_sim.Env.reschedules);
    ]

(* ------------------------------------------------------------------ *)

(** [check st] runs every invariant; returns failure strings (empty =
    accepted).  Queries re-enter the engine, so callers must have cleared
    any armed fault hook first ({!Scenario.run} does). *)
let check (st : S.t) =
  let acc = ref [] in
  check_wal acc st;
  check_points acc st;
  check_counts acc st;
  check_secondary acc st;
  check_healed acc st;
  check_pair_alignment acc st;
  check_repair_monotone acc st;
  check_accounting acc st;
  List.rev !acc
