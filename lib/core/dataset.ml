(** The LSM storage architecture of Sec. 3 (Fig. 1): per dataset, a primary
    index, an optional primary key index, and a set of secondary indexes —
    all LSM-trees sharing one memory budget, flushed together, with
    Bloom filters on primary/primary-key components and an optional range
    filter on the primary index.

    Ingestion ([insert] / [delete] / [upsert]) follows the configured
    {!Strategy.t}; queries live in the [Query] section below; background
    index repair in the [Repair] section. *)

module Entry = Lsm_tree.Entry
module Fault_point = Lsm_sim.Fault_point

(** Counters for the maintenance scheduler (Sec. 2.3): how
    many rounds ran, how many merge jobs they dispatched, the widest
    observed overlap, the serial sum of job busy times versus the modeled
    W-worker makespan actually charged to the clock, and how often two
    runnable jobs claimed the same tree (must stay zero — jobs are
    constructed over disjoint trees). *)
type maint_stats = {
  mutable maint_rounds : int;
  mutable maint_jobs : int;
  mutable maint_max_overlap : int;
  mutable maint_shared_claims : int;
  mutable maint_serial_us : float;
  mutable maint_makespan_us : float;
}

module Make (R : Record.S) = struct
  module Rv = struct
    type t = R.t

    let byte_size = R.byte_size
    let pp = R.pp
  end

  module Prim = Lsm_tree.Make (Lsm_util.Keys.Int_key) (Rv)
  module Pk = Lsm_tree.Make (Lsm_util.Keys.Int_key) (Lsm_util.Keys.Unit_value)
  module Sec = Lsm_tree.Make (Lsm_util.Keys.Int_pair_key) (Lsm_util.Keys.Unit_value)

  type sec_index = {
    sec_name : string;
    extract_all : R.t -> int list;  (** all secondary keys of a record *)
    tree : Sec.t;
    del_tree : Pk.t option;
        (** deleted-key structure (Deleted_key_btree strategy only) *)
  }

  type config = {
    strategy : Strategy.t;
    mem_budget : int;  (** shared across all the dataset's memory components *)
    merge_policy : Lsm_tree.Merge_policy.t;
    use_pk_index : bool;  (** Fig. 13 evaluates inserts without one *)
    bloom : Lsm_tree.Config.bloom option;
        (** Bloom settings for primary / primary-key / deleted-key
            components (secondary indexes are range-scanned, no filter) *)
    maint_workers : int;
        (** modeled maintenance workers; > 1 overlaps independent merges *)
    mem_shards : int;
        (** memory shards per tree (Sec. 2.3 flush granularity): > 1
            lets the budget evict one shard at a time while its siblings
            keep absorbing writes; 1 = classic whole-memtable flushes *)
  }

  let default_config =
    {
      strategy = Strategy.eager;
      mem_budget = 4 * 1024 * 1024;
      merge_policy = Lsm_tree.Merge_policy.tiering ~size_ratio:1.2 ();
      use_pk_index = true;
      bloom = Some Lsm_tree.Config.default_bloom;
      maint_workers = 1;
      mem_shards = 1;
    }

  type stats = {
    mutable n_inserts : int;
    mutable n_upserts : int;
    mutable n_deletes : int;
    mutable n_duplicates : int;  (** inserts rejected by the uniqueness check *)
    mutable n_flushes : int;
    mutable n_merges : int;
    mutable n_repairs : int;  (** component repair operations *)
    mutable flush_us : float;  (** simulated time inside flushes *)
    mutable merge_us : float;
        (** simulated time inside the merge scheduler (includes any merge
            repairs, which {!repair_us} also counts separately) *)
    mutable repair_us : float;  (** simulated time inside repair operations *)
  }

  type t = {
    env : Lsm_sim.Env.t;
    cfg : config;
    filter_key : (R.t -> int) option;
    primary : Prim.t;
    pk_index : Pk.t option;
    secondaries : sec_index array;
    mutable clock : int;  (** logical ingestion timestamp (Sec. 4.1) *)
    stats : stats;
    maint : maint_stats;
    mutable auto_maintenance : bool;
        (** flush/merge when the budget fills; disable to drive manually *)
  }

  let total_mem_bytes t =
    Prim.mem_bytes t.primary
    + (match t.pk_index with Some pk -> Pk.mem_bytes pk | None -> 0)
    + Array.fold_left
        (fun acc s ->
          acc + Sec.mem_bytes s.tree
          + (match s.del_tree with Some d -> Pk.mem_bytes d | None -> 0))
        0 t.secondaries

  let create ?filter_key ?(secondaries = []) env cfg =
    let bitmap = Strategy.uses_primary_bitmap cfg.strategy in
    let shards = max 1 cfg.mem_shards in
    let primary =
      Prim.create ?filter_of:filter_key env
        (Lsm_tree.Config.make ~bloom:cfg.bloom ~validity_bitmap:bitmap ~shards
           "primary")
    in
    let pk_index =
      if cfg.use_pk_index then
        Some
          (Pk.create env
             (Lsm_tree.Config.make ~bloom:cfg.bloom ~validity_bitmap:bitmap
                ~shards "pk-index"))
      else None
    in
    let mk_sec (s : R.t Record.secondary) =
      {
        sec_name = s.Record.sec_name;
        extract_all = s.Record.extract_all;
        tree =
          Sec.create env
            (Lsm_tree.Config.make ~bloom:None ~validity_bitmap:false ~shards
               ("sec:" ^ s.Record.sec_name));
        del_tree =
          (match cfg.strategy with
          | Strategy.Deleted_key_btree ->
              Some
                (Pk.create env
                   (Lsm_tree.Config.make ~bloom:cfg.bloom ~validity_bitmap:false
                      ~shards
                      ("del:" ^ s.Record.sec_name)))
          | _ -> None);
      }
    in
    let t =
      {
        env;
        cfg;
        filter_key;
        primary;
        pk_index;
        secondaries = Array.of_list (List.map mk_sec secondaries);
        clock = 0;
        stats =
          {
            n_inserts = 0;
            n_upserts = 0;
            n_deletes = 0;
            n_duplicates = 0;
            n_flushes = 0;
            n_merges = 0;
            n_repairs = 0;
            flush_us = 0.0;
            merge_us = 0.0;
            repair_us = 0.0;
          };
        maint =
          {
            maint_rounds = 0;
            maint_jobs = 0;
            maint_max_overlap = 0;
            maint_shared_claims = 0;
            maint_serial_us = 0.0;
            maint_makespan_us = 0.0;
          };
        auto_maintenance = true;
      }
    in
    (* Make the environment aware of this dataset's in-memory footprint,
       so a cross-partition coordinator can budget memory globally
       (Sec. 2.3) without reaching into engine internals. *)
    Lsm_sim.Env.register_mem_probe env (fun () -> total_mem_bytes t);
    t

  let env t = t.env
  let stats t = t.stats
  let strategy t = t.cfg.strategy
  let config t = t.cfg
  let maint_stats t = t.maint
  let maint_workers t = max 1 t.cfg.maint_workers
  let secondary t name =
    match Array.find_opt (fun s -> s.sec_name = name) t.secondaries with
    | Some s -> s
    | None -> invalid_arg ("Dataset: no secondary index named " ^ name)

  let next_ts t =
    t.clock <- t.clock + 1;
    t.clock

  let now_ts t = t.clock

  (** [next_timestamp t] hands out a fresh ingestion timestamp — for
      machinery (like the concurrent-merge writers of Sec. 5.3) that
      bypasses the regular ingestion entry points. *)
  let next_timestamp = next_ts

  (* ------------------------------------------------------------------ *)
  (* Shared flush and merge scheduling *)

  (* Unify the newest primary / primary-key components' bitmaps so that a
     bit set through either index is seen by both (their entries align
     positionally: same keys, same order; Sec. 5.1). *)
  let unify_newest_bitmaps t =
    match t.pk_index with
    | Some pk when Strategy.uses_primary_bitmap t.cfg.strategy ->
        let pcs = Prim.components t.primary and kcs = Pk.components pk in
        if Array.length pcs > 0 && Array.length kcs > 0 then
          kcs.(0).Pk.bitmap <- pcs.(0).Prim.bitmap
    | _ -> ()

  (* Flush every tree's memory — or, with [~shard:s], memory shard [s] of
     every tree (the Sec. 2.3 flush-granularity refinement): one full
     shard reaches disk while its siblings keep absorbing writes.  The
     primary pair is Int-keyed identically on both sides, so its two
     shard-[s] cuts hold the same keys in the same order and the newest
     bitmaps still unify; secondary / deleted-key trees route by their own
     keys, so their shard [s] is a different key slice — fine, since no
     correctness property ever related *which* entries flush together
     across tree families (the tombstone barrier covers the one
     exception; see [update_tombstone_barrier]). *)
  let flush_trees ?shard t =
    Lsm_sim.Env.span t.env ~cat:"dataset" "dataset.flush" @@ fun () ->
    let t0 = Lsm_sim.Env.now_us t.env in
    let flushed, begin_point, pair_point =
      match shard with
      | None ->
          ( Prim.mem_count t.primary > 0,
            Fault_point.Dataset_flush_begin,
            Fault_point.Dataset_flush_pair )
      | Some s ->
          ( Prim.mem_shard_bytes t.primary s > 0,
            Dataset_flush_shard_begin,
            Dataset_flush_shard_pair )
    in
    if flushed then Lsm_sim.Env.fault_point t.env begin_point;
    Prim.flush ?shard t.primary;
    (* The most delicate crash window: the primary's flush is durable but
       the primary-key index's is not yet (recovery rolls the primary back
       to the aligned cut; see Txn_dataset.recover). *)
    if flushed then Lsm_sim.Env.fault_point t.env pair_point;
    (match t.pk_index with Some pk -> Pk.flush ?shard pk | None -> ());
    Array.iter
      (fun s ->
        Sec.flush ?shard s.tree;
        match s.del_tree with Some d -> Pk.flush ?shard d | None -> ())
      t.secondaries;
    (* Unconditional (idempotent, cheap): a supervised retry after a
       partial flush — primary flushed, pk-index flush died — re-enters
       with an empty primary memory, and the newest pair must still end
       up sharing one bitmap object. *)
    unify_newest_bitmaps t;
    if flushed then begin
      t.stats.n_flushes <- t.stats.n_flushes + 1;
      Log.debug (fun m ->
          m "flush #%d%s: %d primary components, %d disk bytes"
            t.stats.n_flushes
            (match shard with
            | None -> ""
            | Some s -> Printf.sprintf " (shard %d)" s)
            (Prim.component_count t.primary)
            (Prim.disk_size_bytes t.primary))
    end;
    t.stats.flush_us <- t.stats.flush_us +. (Lsm_sim.Env.now_us t.env -. t0)

  (* Forward declaration: repair of a secondary component (defined below,
     needs validation machinery). *)
  let repair_hook :
      (t -> sec_index -> Sec.disk_component -> piggyback:bool -> unit) ref =
    ref (fun _ _ _ ~piggyback:_ -> ())

  (* Merge the components of [tree] whose IDs fall inside [lo, hi]
     (a contiguous run, by the disjointness of component IDs). *)
  let merge_id_range (type dc) ~(components : unit -> dc array)
      ~(id : dc -> int * int) ~(merge : first:int -> last:int -> dc) ~lo ~hi =
    let comps = components () in
    let first = ref (-1) and last = ref (-1) in
    Array.iteri
      (fun i c ->
        let cmin, cmax = id c in
        if cmin >= lo && cmax <= hi then begin
          if !first < 0 then first := i;
          last := i
        end)
      comps;
    if !first >= 0 && !last > !first then Some (merge ~first:!first ~last:!last)
    else None

  (* Merge the lockstep counterpart of a merged component: find the
     contiguous run of [components] whose concatenated flush provenance
     equals [prov].  Per-shard flushes produce components whose ID ranges
     overlap across shards, so ts-range nesting no longer identifies a
     merge's inputs (a range can nest a sibling shard's component that
     was never an input); flush provenance does — the primary pair
     flushes the same shard cuts in lockstep, so the counterpart side
     always holds a run with exactly the same origin sequence.  Returns
     [None] when the counterpart is a single already-aligned component
     (nothing to merge) or when no run matches (counterpart not flushed
     yet — recovery redoes it). *)
  let merge_prov_range (type dc) ~(components : unit -> dc array)
      ~(prov_of : dc -> Lsm_tree.flush_origin list)
      ~(merge : first:int -> last:int -> dc) ~prov =
    match prov with
    | [] -> None
    | _ ->
        let comps = components () in
        let n = Array.length comps in
        (* [eat p rem] strips [p] off the front of [rem]. *)
        let rec eat p rem =
          match (p, rem) with
          | [], rest -> Some rest
          | ph :: pt, rh :: rt when Lsm_tree.flush_origin_equal ph rh ->
              eat pt rt
          | _ -> None
        in
        (* [run_at j rem] = Some last if comps.(j..last) concatenate to
           exactly [rem]. *)
        let rec run_at j rem =
          match rem with
          | [] -> Some (j - 1)
          | _ when j >= n -> None
          | _ -> (
              match prov_of comps.(j) with
              | [] -> None
              | p -> (
                  match eat p rem with
                  | Some rest -> run_at (j + 1) rest
                  | None -> None))
        in
        let found = ref None in
        let i = ref 0 in
        while Option.is_none !found && !i < n do
          (match run_at !i prov with
          | Some last -> found := Some (!i, last)
          | None -> ());
          incr i
        done;
        (match !found with
        | Some (first, last) when last > first -> Some (merge ~first ~last)
        | _ -> None)

  (* Secondary entries validate lazily against the primary key index, so a
     pk-index bottom merge must not drop a delete tombstone until every
     secondary component's repairedTS has passed it — otherwise an obsolete
     secondary entry for the deleted key would validate as live.  Memory
     components need no barrier: they always flush together with the
     tombstones that concern them. *)
  let update_tombstone_barrier t =
    match t.pk_index with
    | None -> ()
    | Some pkt -> (
        match t.cfg.strategy with
        | Strategy.Validation _ | Strategy.Mutable_bitmap _ ->
            let barrier = ref max_int in
            Array.iter
              (fun s ->
                Array.iter
                  (fun c -> barrier := min !barrier c.Sec.repaired_ts)
                  (Sec.components s.tree);
                (* Per-shard flushes can persist a pk-index tombstone
                   while the secondary entries it concerns still sit in a
                   differently-routed secondary memory shard (the trees
                   shard-route by different keys); keep tombstones until
                   those entries have flushed too.  No-op when the
                   secondary memory is empty — in particular, always a
                   no-op for unsharded whole-memory flushes. *)
                if t.cfg.mem_shards > 1 then begin
                  let mlo, _ = Sec.mem_id s.tree in
                  if mlo <> max_int then barrier := min !barrier (mlo - 1)
                end)
              t.secondaries;
            Pk.set_tombstone_drop_ts pkt !barrier;
            (* Under Mutable-bitmap, primary and pk-index components share
               validity bitmaps and must keep identical row sequences, so
               the primary observes the same barrier. *)
            if Strategy.uses_primary_bitmap t.cfg.strategy then
              Prim.set_tombstone_drop_ts t.primary !barrier
        | Strategy.Eager | Strategy.Deleted_key_btree ->
            (* Eager secondaries are always valid; the deleted-key strategy
               validates against its own per-index structures (whose merges
               only ever keep the newest deletion record per key). *)
            ())

  (* The correlated primary pair's lockstep follow (Sec. 5.1): merge the
     pk-index run whose flush provenance matches primary component [pc],
     then re-share [pc]'s bitmap so a bit set through either index is seen
     by both. *)
  let follow_primary t pk pc =
    match
      merge_prov_range
        ~components:(fun () -> Pk.components pk)
        ~prov_of:(fun c -> c.Pk.prov)
        ~merge:(fun ~first ~last -> Pk.merge pk ~first ~last)
        ~prov:pc.Prim.prov
    with
    | Some kc ->
        if Strategy.uses_primary_bitmap t.cfg.strategy then
          kc.Pk.bitmap <- pc.Prim.bitmap
    | None -> ()

  (* The pk index when it follows the primary in lockstep. *)
  let pk_follower t =
    match t.pk_index with
    | Some pk when Strategy.correlates_primary_pair t.cfg.strategy -> Some pk
    | _ -> None

  (* Catch-up realignment: a supervised retry (or recovery) may re-enter
     after a primary merge completed but its lockstep pk-index merge died.
     Complete any pending catch-up first; the old pk components' bitmaps
     are still the ones the primary merge dropped rows against, so the
     catch-up merge reproduces the same survivor sequence. *)
  let realign_pk_to_primary t =
    Option.iter
      (fun pk -> Array.iter (follow_primary t pk) (Prim.components t.primary))
      (pk_follower t)

  let repair_after_merge t s sc =
    match t.cfg.strategy with
    | Strategy.Validation { repair_on_merge = true; _ }
    | Strategy.Mutable_bitmap { secondary_repair = true }
    | Strategy.Deleted_key_btree ->
        !repair_hook t s sc ~piggyback:true
    | _ -> ()

  (* ------------------------------------------------------------------ *)
  (* The maintenance scheduler (Sec. 2.3).  Each round picks one runnable
     merge job per tree family — primary (with its lockstep pk index under
     Mutable-bitmap), then the pk index (driving every secondary under
     Bloom-opt validation, Sec. 4.4), then each secondary and deleted-key
     tree; picks on distinct trees are independent — and runs them on
     [maint_workers] modeled workers.  A job starts when it is admitted
     (its input seeks, and any correlated pre-steps, run then), its step
     phases interleave deterministically on the simulated clock
     (round-robin quanta, the [concurrent_merge] interleaver pattern), and
     installs run strictly in pick order, so every structural mutation,
     repair, and file-id allocation happens in the same order at any W and
     the resulting trees are byte-for-byte identical.  With one worker,
     jobs simply run one after another.  Each job's busy time is measured
     from clock deltas; at round end the jobs are list-scheduled onto W
     modeled workers and the clock is rewound from the serial sum to the
     modeled makespan, so wall-clock consumers observe pipeline cost. *)

  type job_phases = {
    step : rows:int -> bool;  (** [false] once inputs are exhausted *)
    finish : unit -> unit;  (** install + correlated post-steps *)
  }

  type maint_job = {
    job_label : string;
    job_trees : string list;
        (** tree names the job mutates; the scheduler never runs two jobs
            claiming a tree in the same round *)
    job_start : unit -> job_phases;  (** runs at admission *)
  }

  (* A merge job over one tree: [start] opens the merge at admission,
     [finish] installs it. *)
  let merge_job ~label ~trees ~start ~step ~finish =
    {
      job_label = label;
      job_trees = trees;
      job_start =
        (fun () ->
          let mj = start () in
          {
            step = (fun ~rows -> step mj ~rows);
            finish = (fun () -> finish mj);
          });
    }

  (* One scheduler round's runnable jobs, in install order. *)
  let pick_round_jobs t policy bump =
    let jobs = ref [] in
    let claimed : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let add_job job =
      if List.exists (Hashtbl.mem claimed) job.job_trees then
        t.maint.maint_shared_claims <- t.maint.maint_shared_claims + 1
      else begin
        List.iter (fun n -> Hashtbl.replace claimed n ()) job.job_trees;
        jobs := job :: !jobs
      end
    in
    (* An uncorrelated pk-typed tree: the pk index, or a deleted-key tree. *)
    let solo_pk_job ~label tree (first, last) =
      merge_job ~label ~trees:[ label ]
        ~start:(fun () -> Pk.merge_start tree ~first ~last)
        ~step:(Pk.merge_step tree)
        ~finish:(fun mj ->
          ignore (Pk.merge_finish tree mj);
          bump ())
    in
    (* Primary index; under Mutable-bitmap the pk index follows in
       lockstep inside the finish phase (Sec. 5.1), so the job claims
       both trees. *)
    (match Prim.pick_merge t.primary policy with
    | Some (first, last) ->
        let follower = pk_follower t in
        let label, trees =
          if Option.is_some follower then
            ("primary+pk", [ "primary"; "pk-index" ])
          else ("primary", [ "primary" ])
        in
        add_job
          (merge_job ~label ~trees
             ~start:(fun () -> Prim.merge_start t.primary ~first ~last)
             ~step:(Prim.merge_step t.primary)
             ~finish:(fun mj ->
               let pc = Prim.merge_finish t.primary mj in
               bump ();
               Option.iter
                 (fun pk ->
                   (* Crash here leaves the merged primary without its
                      lockstep pk-index merge; recovery redoes the pk
                      side. *)
                   Lsm_sim.Env.fault_point t.env Dataset_merge_pair;
                   follow_primary t pk pc)
                 follower))
    | None -> ());
    (* Primary key index (when not slaved to the primary above). *)
    (match t.pk_index with
    | Some pk when Option.is_none (pk_follower t) -> (
        match Pk.pick_merge pk policy with
        | Some (first, last) when Strategy.correlates_secondaries t.cfg.strategy
          ->
            (* Bloom-opt validation: this pk merge drives every secondary
               (Sec. 4.4), so the job claims them all.  *Repair first,
               merge after*: the merge repair must validate against the
               pre-merge pk components — once they merge, the combined
               Bloom filter answers positive for every key of the merged
               range and the strictly-newer pruning is lost (Sec. 4.4's
               motivating example, Fig. 1) — so the secondaries repair and
               merge at admission, before the pk merge opens. *)
            let comps = Pk.components pk in
            let lo = fst (Pk.component_id comps.(last)) in
            let hi = snd (Pk.component_id comps.(first)) in
            let trees =
              "pk-index"
              :: Array.to_list
                   (Array.map (fun s -> "sec:" ^ s.sec_name) t.secondaries)
            in
            add_job
              (merge_job ~label:"pk+secondaries" ~trees
                 ~start:(fun () ->
                   bump ();
                   Array.iter
                     (fun s ->
                       match
                         merge_id_range
                           ~components:(fun () -> Sec.components s.tree)
                           ~id:Sec.component_id
                           ~merge:(fun ~first ~last ->
                             Sec.merge s.tree ~first ~last)
                           ~lo ~hi
                       with
                       | Some sc -> !repair_hook t s sc ~piggyback:true
                       | None -> ())
                     t.secondaries;
                   Pk.merge_start pk ~first ~last)
                 ~step:(Pk.merge_step pk)
                 ~finish:(fun mj -> ignore (Pk.merge_finish pk mj)))
        | Some range -> add_job (solo_pk_job ~label:"pk-index" pk range)
        | None -> ())
    | _ -> ());
    (* Secondaries and deleted-key trees (when not correlated above). *)
    if not (Strategy.correlates_secondaries t.cfg.strategy) then
      Array.iter
        (fun s ->
          (match Sec.pick_merge s.tree policy with
          | Some (first, last) ->
              let label = "sec:" ^ s.sec_name in
              add_job
                (merge_job ~label ~trees:[ label ]
                   ~start:(fun () -> Sec.merge_start s.tree ~first ~last)
                   ~step:(Sec.merge_step s.tree)
                   ~finish:(fun mj ->
                     let sc = Sec.merge_finish s.tree mj in
                     bump ();
                     repair_after_merge t s sc))
          | None -> ());
          match s.del_tree with
          | Some d ->
              Option.iter
                (fun range ->
                  add_job (solo_pk_job ~label:("del:" ^ s.sec_name) d range))
                (Pk.pick_merge d policy)
          | None -> ())
        t.secondaries;
    List.rev !jobs

  (* Interleave one round's jobs: admit (and start) up to W in pick order,
     step each active job a quantum per tick, finish strictly in pick
     order as leaders complete.  Returns (serial busy sum, modeled
     makespan); charges the clock with the serial sum during execution,
     then rewinds to the makespan and emits one modeled [maint.job] span
     per job. *)
  let step_quantum = 32

  let execute_round t jobs =
    let n = Array.length jobs in
    let w = max 1 (min (maint_workers t) n) in
    let busy = Array.make n 0.0 in
    let timed i f =
      let s0 = Lsm_sim.Env.now_us t.env in
      let r = f () in
      busy.(i) <- busy.(i) +. (Lsm_sim.Env.now_us t.env -. s0);
      r
    in
    let steps_done = Array.make n false in
    let next = ref 0 in
    let active = ref [] in
    let finished = ref 0 in
    let round_base = Lsm_sim.Env.now_us t.env in
    while !finished < n do
      while !next < n && List.length !active < w do
        let i = !next in
        Lsm_sim.Env.fault_point t.env Maint_job_start;
        active := !active @ [ (i, timed i jobs.(i).job_start) ];
        incr next;
        let overlap = List.length !active in
        if overlap > t.maint.maint_max_overlap then
          t.maint.maint_max_overlap <- overlap
      done;
      List.iter
        (fun (i, ph) ->
          if not steps_done.(i) then
            if not (timed i (fun () -> ph.step ~rows:step_quantum)) then
              steps_done.(i) <- true)
        !active;
      (* Finish the leader(s): installs stay in pick order. *)
      let rec drain () =
        match !active with
        | (i, ph) :: rest when steps_done.(i) ->
            timed i ph.finish;
            Lsm_sim.Env.fault_point t.env Maint_job_install;
            active := rest;
            incr finished;
            drain ()
        | _ -> ()
      in
      drain ()
    done;
    (* Model W workers: list-schedule busy times in admission order. *)
    let free = Array.make w 0.0 in
    let starts = Array.make n 0.0 in
    Array.iteri
      (fun i b ->
        let k = ref 0 in
        Array.iteri (fun j f -> if f < free.(!k) then k := j) free;
        starts.(i) <- free.(!k);
        free.(!k) <- free.(!k) +. b)
      busy;
    let serial = Array.fold_left ( +. ) 0.0 busy in
    let makespan = Array.fold_left Float.max 0.0 free in
    Lsm_sim.Env.rewind t.env (serial -. makespan);
    Array.iteri
      (fun i b ->
        Lsm_sim.Env.emit_span t.env ~cat:jobs.(i).job_label "maint.job"
          ~start_us:(round_base +. starts.(i)) ~dur_us:b)
      busy;
    (serial, makespan)

  let publish_maint_gauges t =
    let o = Lsm_sim.Env.obs t.env in
    if o.Lsm_obs.Obs.enabled then begin
      let m = Lsm_sim.Env.metrics t.env in
      let set name v = Lsm_obs.Metrics.set (Lsm_obs.Metrics.gauge m name) v in
      set "maint.workers" (float_of_int (maint_workers t));
      set "maint.rounds" (float_of_int t.maint.maint_rounds);
      set "maint.jobs" (float_of_int t.maint.maint_jobs);
      set "maint.max_overlap" (float_of_int t.maint.maint_max_overlap);
      set "maint.shared_claims" (float_of_int t.maint.maint_shared_claims);
      set "maint.serial_us" t.maint.maint_serial_us;
      set "maint.makespan_us" t.maint.maint_makespan_us
    end

  (** Run the merge scheduler to a fixpoint.  Depending on the strategy,
      the primary pair (and possibly the secondaries) merge under a
      correlated policy — same component ID ranges everywhere — while the
      rest merge independently (Sec. 4.4, Sec. 5.1).  [?flush_shard] rides
      the first round as one more job. *)
  let run_merges ?flush_shard t =
    Lsm_sim.Env.span t.env ~cat:"dataset" "dataset.merge" @@ fun () ->
    let t0 = Lsm_sim.Env.now_us t.env in
    let policy = t.cfg.merge_policy in
    realign_pk_to_primary t;
    let pending_flush = ref flush_shard in
    let progress = ref true in
    while !progress do
      progress := false;
      update_tombstone_barrier t;
      let bump () =
        progress := true;
        t.stats.n_merges <- t.stats.n_merges + 1
      in
      let jobs = pick_round_jobs t policy bump in
      (* A per-shard flush rides the first round as one more job, so the
         flush overlaps whatever merges are already runnable (Sec. 2.3:
         flushes and merges pipeline on the modeled workers).  It claims
         no trees — merge installs tolerate the concurrent prepend by
         locating their inputs physically. *)
      let jobs =
        match !pending_flush with
        | Some s ->
            pending_flush := None;
            let finish () =
              flush_trees ~shard:s t;
              progress := true
            in
            jobs
            @ [
                {
                  job_label = "flush";
                  job_trees = [];
                  job_start =
                    (fun () -> { step = (fun ~rows:_ -> false); finish });
                };
              ]
        | None -> jobs
      in
      match jobs with
      | [] -> ()
      | jobs ->
          t.maint.maint_rounds <- t.maint.maint_rounds + 1;
          t.maint.maint_jobs <- t.maint.maint_jobs + List.length jobs;
          let serial, makespan = execute_round t (Array.of_list jobs) in
          t.maint.maint_serial_us <- t.maint.maint_serial_us +. serial;
          t.maint.maint_makespan_us <- t.maint.maint_makespan_us +. makespan
    done;
    publish_maint_gauges t;
    t.stats.merge_us <- t.stats.merge_us +. (Lsm_sim.Env.now_us t.env -. t0)

  (* ------------------------------------------------------------------ *)
  (* Maintenance supervisor (resilience) *)

  let resil t = Lsm_sim.Env.resil t.env

  (* A maintenance pass (flush, merge sweep, heal) whose I/O retries were
     exhausted is rescheduled after a backoff instead of failing the
     engine: the partial component was already discarded (Dbt.build
     deletes its file when the append dies), the inputs are intact, and a
     transient fault that has cleared lets the rerun complete.  Bounded
     by the same policy as the I/O sites; a fault that persists through
     every reschedule propagates as Unrecoverable (fail-stop). *)
  let supervised t f =
    let p = Lsm_sim.Env.retry_policy t.env in
    let rec go attempt =
      try f ()
      with Lsm_sim.Resilience.Unrecoverable _
      when attempt < p.Lsm_sim.Resilience.max_retries
      ->
        let r = resil t in
        r.Lsm_sim.Env.reschedules <- r.Lsm_sim.Env.reschedules + 1;
        Lsm_sim.Env.advance t.env (Lsm_sim.Resilience.backoff p ~attempt);
        go (attempt + 1)
    in
    go 0

  (* Self-healing needs the repair machinery defined further down. *)
  let heal_hook : (t -> unit) ref = ref (fun _ -> ())

  let heal_if_corrupt t =
    if Lsm_sim.Env.corrupt_page_count t.env > 0 then
      supervised t (fun () -> !heal_hook t)

  (** [flush_now t] forces a flush of all memory components and runs the
      merge scheduler, both under the maintenance supervisor; if any
      corruption has been detected, a healing sweep follows. *)
  let flush_now t =
    supervised t (fun () -> flush_trees t);
    supervised t (fun () -> run_merges t);
    heal_if_corrupt t

  (** [flush_memory t] flushes without merging (experiments that need a
      specific component layout drive merges themselves). *)
  let flush_memory t = flush_trees t

  (** [flush_shard_now t s] flushes memory shard [s] of every tree and
      runs the merge scheduler, both supervised. *)
  let flush_shard_now t s =
    (* The one rule that depends on the worker count.  With one worker
       nothing can overlap the flush, and as a round-1 job it would only
       run after that round's merges, which were picked without the new
       component; so it runs before the first pick.  With more workers it
       rides round 1 as a job and overlaps the runnable merges. *)
    if maint_workers t <= 1 then begin
      supervised t (fun () -> flush_trees ~shard:s t);
      supervised t (fun () -> run_merges t)
    end
    else supervised t (fun () -> run_merges ~flush_shard:s t);
    heal_if_corrupt t

  let mem_shards t = max 1 t.cfg.mem_shards

  (** Aggregate bytes of memory shard [s] across every tree of the
      dataset — the budget's eviction unit when sharded. *)
  let mem_shard_bytes t s =
    Prim.mem_shard_bytes t.primary s
    + (match t.pk_index with Some pk -> Pk.mem_shard_bytes pk s | None -> 0)
    + Array.fold_left
        (fun acc sx ->
          acc + Sec.mem_shard_bytes sx.tree s
          + (match sx.del_tree with
            | Some d -> Pk.mem_shard_bytes d s
            | None -> 0))
        0 t.secondaries

  (** [(shard, bytes)] of the fullest memory shard. *)
  let largest_mem_shard t =
    let best = ref 0 and best_bytes = ref (-1) in
    for s = 0 to mem_shards t - 1 do
      let b = mem_shard_bytes t s in
      if b > !best_bytes then begin
        best := s;
        best_bytes := b
      end
    done;
    (!best, !best_bytes)

  let maybe_flush t =
    if t.auto_maintenance && total_mem_bytes t >= t.cfg.mem_budget then
      if mem_shards t <= 1 then flush_now t
      else begin
        (* Evict fullest shards until back under budget: each eviction
           writes one full shard while the others keep absorbing writes,
           instead of dumping the whole memory (Budget.enforce's
           overshoot problem, at dataset scope). *)
        let guard = ref (2 * mem_shards t) in
        while total_mem_bytes t >= t.cfg.mem_budget && !guard > 0 do
          decr guard;
          let s, b = largest_mem_shard t in
          if b <= 0 then guard := 0 else flush_shard_now t s
        done
      end

  (* ------------------------------------------------------------------ *)
  (* Ingestion (Secs. 3.1, 4.2, 5.2) *)

  (* Anti-matter the old record's secondary entries, skipping indexes whose
     key did not change (the Eager upsert optimization of Sec. 3.1; also
     used by the memory-component optimization of Sec. 4.2). *)
  let cleanup_secondaries t ~old_r ~new_r ~ts =
    Array.iter
      (fun s ->
        let new_keys =
          match new_r with None -> [] | Some r -> s.extract_all r
        in
        (* Anti-matter only the keys the record no longer has: keys that
           persist are superseded by the new same-composite-key entry. *)
        List.iter
          (fun sko ->
            if not (List.mem sko new_keys) then
              Sec.write s.tree ~key:(sko, R.primary_key old_r) ~ts Entry.Del)
          (s.extract_all old_r))
      t.secondaries

  let write_new_record t r ~ts =
    let pk = R.primary_key r in
    Prim.write t.primary ~key:pk ~ts (Entry.Put r);
    (match t.pk_index with
    | Some pkt -> Pk.write pkt ~key:pk ~ts (Entry.Put ())
    | None -> ());
    Array.iter
      (fun s ->
        List.iter
          (fun sk -> Sec.write s.tree ~key:(sk, pk) ~ts (Entry.Put ()))
          (s.extract_all r))
      t.secondaries

  let write_delete t pk ~ts =
    Prim.write t.primary ~key:pk ~ts Entry.Del;
    match t.pk_index with
    | Some pkt -> Pk.write pkt ~key:pk ~ts Entry.Del
    | None -> ()

  (* The memory-component optimization (Sec. 4.2): deleting/upserting must
     search the primary memory component anyway to place the new entry; if
     the old record happens to live there, clean up secondaries for free. *)
  let mem_cleanup_opportunity t pk ~new_r ~ts =
    match Prim.mem_find t.primary pk with
    | Some { Prim.value = Entry.Put old_r; _ } ->
        cleanup_secondaries t ~old_r ~new_r ~ts
    | _ -> ()

  (* Mutable-bitmap strategy: mark the old version of [pk] (if on disk)
     deleted by flipping its validity bit, located via the primary key
     index (Sec. 5.2).  Returns the flipped bit as (component seq,
     position): the WAL's update bit. *)
  let mark_old_deleted t pk =
    match t.pk_index with
    | None -> invalid_arg "Mutable-bitmap strategy requires the primary key index"
    | Some pkt -> (
        match Pk.mem_find pkt pk with
        | Some _ ->
            (* Newest version is in memory: the same-key write replaces it;
               no bitmap involved. *)
            None
        | None -> (
            match Pk.disk_find pkt pk with
            | Some (c, pos, row)
              when Entry.is_put row.Pk.value && Pk.component_row_valid c pos ->
                (* The shared bitmap makes the primary component see it. *)
                Pk.invalidate c pos;
                Some (c.Pk.seq, pos)
            | _ -> None))

  (** [key_exists t pk] is the insert-time uniqueness check, against the
      primary key index when available (the optimization Fig. 13
      measures), else the primary index. *)
  let key_exists t pk =
    match t.pk_index with
    | Some pkt -> (
        match Pk.lookup_one pkt pk with
        | Some row -> Entry.is_put row.Pk.value
        | None -> false)
    | None -> (
        match Prim.lookup_one t.primary pk with
        | Some row -> Entry.is_put row.Prim.value
        | None -> false)

  (** [insert t r] ingests a new record; duplicates (by primary key) are
      rejected.  All strategies insert identically (Sec. 4.2). *)
  let insert t r =
    Lsm_sim.Env.span t.env ~cat:"dataset" "ingest.insert" @@ fun () ->
    let pk = R.primary_key r in
    if key_exists t pk then begin
      t.stats.n_duplicates <- t.stats.n_duplicates + 1;
      maybe_flush t;
      `Duplicate
    end
    else begin
      let ts = next_ts t in
      write_new_record t r ~ts;
      t.stats.n_inserts <- t.stats.n_inserts + 1;
      maybe_flush t;
      `Inserted
    end

  (** [upsert t r] inserts [r], superseding any existing record with the
      same primary key.  This is where the strategies differ (Fig. 14). *)
  let upsert t r =
    Lsm_sim.Env.span t.env ~cat:"dataset" "ingest.upsert" @@ fun () ->
    let pk = R.primary_key r in
    let ts = next_ts t in
    (match t.cfg.strategy with
    | Strategy.Eager -> (
        (* Point lookup for the old record; anti-matter its secondary
           entries; widen memory filters to cover its filter key. *)
        match Prim.lookup_one t.primary pk with
        | Some { Prim.value = Entry.Put old_r; _ } ->
            cleanup_secondaries t ~old_r ~new_r:(Some r) ~ts;
            Option.iter
              (fun fk -> Prim.widen_filter t.primary pk (fk old_r))
              t.filter_key
        | _ -> ())
    | Strategy.Validation _ -> mem_cleanup_opportunity t pk ~new_r:(Some r) ~ts
    | Strategy.Deleted_key_btree ->
        mem_cleanup_opportunity t pk ~new_r:(Some r) ~ts;
        (* Record "pk superseded as of ts" in every secondary's deleted-key
           structure. *)
        Array.iter
          (fun s ->
            match s.del_tree with
            | Some d -> Pk.write d ~key:pk ~ts (Entry.Put ())
            | None -> ())
          t.secondaries
    | Strategy.Mutable_bitmap _ ->
        ignore (mark_old_deleted t pk);
        mem_cleanup_opportunity t pk ~new_r:(Some r) ~ts);
    write_new_record t r ~ts;
    t.stats.n_upserts <- t.stats.n_upserts + 1;
    maybe_flush t

  (** [delete t ~pk] removes the record with key [pk] (a no-op for the
      Eager strategy if it does not exist; blind for the others). *)
  let delete t ~pk =
    Lsm_sim.Env.span t.env ~cat:"dataset" "ingest.delete" @@ fun () ->
    let ts = next_ts t in
    (match t.cfg.strategy with
    | Strategy.Eager -> (
        match Prim.lookup_one t.primary pk with
        | Some { Prim.value = Entry.Put old_r; _ } ->
            cleanup_secondaries t ~old_r ~new_r:None ~ts;
            Option.iter
              (fun fk -> Prim.widen_filter t.primary pk (fk old_r))
              t.filter_key;
            write_delete t pk ~ts;
            t.stats.n_deletes <- t.stats.n_deletes + 1
        | _ -> () (* nonexistent key: ignored *))
    | Strategy.Validation _ | Strategy.Deleted_key_btree ->
        mem_cleanup_opportunity t pk ~new_r:None ~ts;
        (match t.cfg.strategy with
        | Strategy.Deleted_key_btree ->
            Array.iter
              (fun s ->
                match s.del_tree with
                | Some d -> Pk.write d ~key:pk ~ts (Entry.Put ())
                | None -> ())
              t.secondaries
        | _ -> ());
        write_delete t pk ~ts;
        t.stats.n_deletes <- t.stats.n_deletes + 1
    | Strategy.Mutable_bitmap _ ->
        ignore (mark_old_deleted t pk);
        mem_cleanup_opportunity t pk ~new_r:None ~ts;
        (* The anti-matter key is still added: bitmaps are an auxiliary
           structure that must not change LSM semantics (Sec. 5.2). *)
        write_delete t pk ~ts;
        t.stats.n_deletes <- t.stats.n_deletes + 1);
    maybe_flush t

  (* ------------------------------------------------------------------ *)
  (* Validation machinery (Secs. 4.3, 4.4) *)

  (* Is a (pk, ts) pair still current according to validation index [vt]
     (the primary key index, or a deleted-key tree)?  Components with
     maxTS <= threshold are pruned; [threshold] is at least the entry's own
     timestamp and its source component's repairedTS. *)
  let entry_is_valid (vt : Pk.t) ?cursors ~pk ~ts ~threshold () =
    match Pk.mem_find vt pk with
    | Some row -> row.Pk.ts <= ts
    | None ->
        let comps = Pk.components vt in
        let rec go i =
          if i >= Array.length comps then true
          else begin
            let c = comps.(i) in
            if c.Pk.cmax_ts <= threshold then true
            else if Pk.probe_bloom vt c pk then begin
              let hit =
                match cursors with
                | Some cs -> Pk.Dbt.Cursor.find (Pk.env vt) cs.(i) pk
                | None -> Pk.Dbt.find (Pk.env vt) c.Pk.tree pk
              in
              match hit with
              | Some (_, row) -> row.Pk.ts <= ts
              | None ->
                  Pk.note_bloom_fp vt c;
                  go (i + 1)
            end
            else go (i + 1)
          end
        in
        go 0

  (* The validation index for a secondary: its own deleted-key tree under
     the Deleted-key strategy, else the dataset's primary key index. *)
  let validation_index t sec =
    match sec.del_tree with
    | Some d -> Some d
    | None -> t.pk_index

  (* ------------------------------------------------------------------ *)
  (* Index repair (Sec. 4.4) *)

  (* One (pk, ts, position) item streamed to the repair sorter (Fig. 7).
     [?bloom_opt] overrides the strategy's setting (ablation benches
     compare repair with and without it on identical datasets). *)
  let repair_component ?bloom_opt t sec (comp : Sec.disk_component) ~piggyback =
    match validation_index t sec with
    | None -> ()
    | Some vt ->
        Lsm_sim.Env.span t.env ~cat:sec.sec_name
          (if piggyback then "repair.merge" else "repair.standalone")
        @@ fun () ->
        let t0 = Lsm_sim.Env.now_us t.env in
        let bloom_opt =
          match bloom_opt with
          | Some b -> b
          | None -> (
              match t.cfg.strategy with
              | Strategy.Validation { bloom_opt; _ } -> bloom_opt
              | _ -> false)
        in
        let threshold = comp.Sec.repaired_ts in
        if not piggyback then Sec.charge_component_scan sec.tree comp;
        let rows = Sec.rows_of comp in
        (* Gather still-valid entries as (pk, ts, position). *)
        let items = ref [] in
        let n_items = ref 0 in
        Array.iteri
          (fun pos (r : Sec.row) ->
            if Sec.component_row_valid comp pos then begin
              let _, pk = r.Sec.key in
              items := (pk, r.Sec.ts, pos) :: !items;
              incr n_items
            end)
          rows;
        let items = Array.of_list !items in
        Lsm_sim.Env.explain_count t.env "repair_items" !n_items;
        let invalidate pos =
          Lsm_sim.Env.explain_count t.env "entries_invalidated" 1;
          Sec.invalidate comp pos
        in
        (* Bloom-filter optimization: a key whose probes on all unpruned
           primary-key components are negative (and which misses the pk
           memory component) cannot have been superseded — exclude it from
           sorting and validation entirely (Sec. 4.4). *)
        (* Under the Bloom-opt strategy's regime — correlated merges with
           repair at every merge, plus the memory-cleanup optimization of
           Sec. 4.2 — a component whose ID range *contains* an entry's
           timestamp cannot hold its superseding entry (same-era staleness
           never reaches disk; cross-era staleness was repaired when the
           eras merged).  So only components *strictly newer* than the
           entry need probing, which is the paper's "the unpruned primary
           key index components are always strictly newer than the keys in
           the repairing component".  Outside that regime (the ablation
           override), the conservative overlap rule applies.  Sharded
           memory breaks the regime's era-disjointness premise — a
           cross-shard merge can combine eras — so strict pruning also
           requires unsharded memory. *)
        let strict_regime =
          match t.cfg.strategy with
          | Strategy.Validation { bloom_opt = true; _ } -> t.cfg.mem_shards <= 1
          | _ -> false
        in
        let could_supersede c ts =
          if strict_regime then c.Pk.cmin_ts > max threshold ts
          else c.Pk.cmax_ts > max threshold ts
        in
        (* Sort grant (Fig. 7 line 9): key volumes beyond a quarter of the
           dataset memory budget spill through scratch storage — I/O that
           the Bloom-filter optimization avoids by excluding never-updated
           keys from the sort (Sec. 6.5). *)
        let spill_grant =
          Lsm_sim.Spill_sort.grant ~memory_bytes:(t.cfg.mem_budget / 4)
            ~row_bytes:24
        in
        let relevant_comps =
          List.filter
            (fun c -> c.Pk.cmax_ts > threshold)
            (Array.to_list (Pk.components vt))
        in
        (if bloom_opt then begin
           (* Streaming skip pass: an item whose probes on every component
              that could supersede it are negative (and which misses the
              pk memory component) is valid and never sorted or validated.
              Survivors remember their first positive component so the
              validation pass does not re-probe it. *)
           let comps = Pk.components vt in
           let cands = ref [] in
           Array.iter
             (fun (pk, ts, pos) ->
               match Pk.mem_find vt pk with
               | Some row ->
                   if row.Pk.ts > ts then cands := (pk, ts, pos, -1) :: !cands
               | None ->
                   let fp = ref (-2) in
                   Array.iteri
                     (fun i c ->
                       if !fp = -2 && could_supersede c ts && Pk.probe_bloom vt c pk
                       then fp := i)
                     comps;
                   if !fp >= 0 then cands := (pk, ts, pos, !fp) :: !cands)
             items;
           let cands = Array.of_list !cands in
           Lsm_sim.Env.explain_count t.env "repair_candidates"
             (Array.length cands);
           Lsm_sim.Spill_sort.sort t.env spill_grant
             ~cmp:(fun (a, _, _, _) (b, _, _, _) -> compare (a : int) b)
             cands;
           let cursors =
             Array.map (fun c -> Pk.Dbt.Cursor.create c.Pk.tree) comps
           in
           Array.iter
             (fun (pk, ts, pos, fp) ->
               let stale =
                 if fp < 0 then true (* memory entry, strictly newer *)
                 else begin
                   (* Search newest-first from the memoized component; the
                      first hit is the newest entry and decides. *)
                   let rec go i =
                     if i >= Array.length comps then false
                     else begin
                       let c = comps.(i) in
                       if not (could_supersede c ts) then false
                       else if
                         (i = fp || Pk.probe_bloom vt c pk)
                       then
                         match Pk.Dbt.Cursor.find (Pk.env vt) cursors.(i) pk with
                         | Some (_, row) -> row.Pk.ts > ts
                         | None -> go (i + 1)
                       else go (i + 1)
                     end
                   in
                   go fp
                 end
               in
               if stale then invalidate pos)
             cands
         end
         else begin
           (* Baseline Fig. 7: sort everything, then validate.  If more
              keys than recently-ingested primary-key entries, merge-scan
              the primary key index instead of point lookups (the
              optimization below Fig. 7). *)
           Lsm_sim.Spill_sort.sort t.env spill_grant
             ~cmp:(fun (a, _, _) (b, _, _) -> compare (a : int) b)
             items;
           let recent_rows =
             Pk.mem_count vt
             + List.fold_left (fun a c -> a + Pk.component_rows c) 0 relevant_comps
           in
           if Array.length items > recent_rows then begin
             (* Merge-scan join: both sides sorted by pk. *)
             let newest : (int, int) Hashtbl.t = Hashtbl.create 1024 in
             Pk.scan vt
               { Pk.full_scan_spec with only = Some relevant_comps; emit_del = true }
               ~f:(fun row ~src_repaired:_ ->
                 match Hashtbl.find_opt newest row.Pk.key with
                 | Some ts0 when ts0 >= row.Pk.ts -> ()
                 | _ -> Hashtbl.replace newest row.Pk.key row.Pk.ts);
             Array.iter
               (fun (pk, ts, pos) ->
                 match Hashtbl.find_opt newest pk with
                 | Some ts' when ts' > ts -> invalidate pos
                 | _ -> ())
               items
           end
           else begin
             let cursors =
               Array.map (fun c -> Pk.Dbt.Cursor.create c.Pk.tree)
                 (Pk.components vt)
             in
             (* The pruning bound is the component-level repairedTS,
                exactly as Sec. 4.4 describes — not each entry's own
                timestamp (a refinement that would erase the effect the
                Bloom-filter optimization exists to provide). *)
             Array.iter
               (fun (pk, ts, pos) ->
                 if not (entry_is_valid vt ~cursors ~pk ~ts ~threshold ()) then
                   invalidate pos)
               items
           end
         end);
        (* Advance the repaired timestamp to the newest *disk* component
           boundary consulted — never into the memory component's range.
           Memory entries were validated against, but crediting them would
           place repairedTS mid-era: when that memory later flushes, its
           component's ID range straddles the threshold, and the strict
           "strictly newer" pruning (cmin > repairedTS) would skip the very
           component holding superseding entries.  Keeping repairedTS on
           era boundaries keeps component ranges cleanly on one side or the
           other.  (Found by the mid-stream interleaving property.) *)
        let new_repaired =
          List.fold_left
            (fun acc c -> max acc c.Pk.cmax_ts)
            threshold relevant_comps
        in
        Sec.set_repaired_ts comp new_repaired;
        Log.debug (fun m ->
            m "repaired %s component (%d, %d): repairedTS %d -> %d%s"
              sec.sec_name (fst (Sec.component_id comp))
              (snd (Sec.component_id comp))
              threshold new_repaired
              (if bloom_opt then " [bf]" else ""));
        t.stats.n_repairs <- t.stats.n_repairs + 1;
        t.stats.repair_us <- t.stats.repair_us +. (Lsm_sim.Env.now_us t.env -. t0)

  let () =
    repair_hook := fun t s c ~piggyback -> repair_component t s c ~piggyback

  (** [standalone_repair t] repairs every disk component of every
      secondary index in place (new bitmaps only, no merging). *)
  let standalone_repair ?bloom_opt t =
    Array.iter
      (fun s ->
        Array.iter
          (fun comp -> repair_component ?bloom_opt t s comp ~piggyback:false)
          (Sec.components s.tree))
      t.secondaries

  (* ------------------------------------------------------------------ *)
  (* Self-healing (resilience): quarantine scan + rebuild/scrub.  The
     detection side lives in lib/sim (per-page checksums) and lib/lsm_tree
     (degraded reads); this is the repair side the maintenance supervisor
     drives. *)

  let quarantined_count t =
    let count comps quarantined =
      Array.fold_left (fun a c -> if quarantined c then a + 1 else a) 0 comps
    in
    count (Prim.components t.primary) Prim.quarantined
    + (match t.pk_index with
      | Some pk -> count (Pk.components pk) Pk.quarantined
      | None -> 0)
    + Array.fold_left
        (fun acc s ->
          acc
          + count (Sec.components s.tree) Sec.quarantined
          + match s.del_tree with
            | Some d -> count (Pk.components d) Pk.quarantined
            | None -> 0)
        0 t.secondaries

  (* Quarantine every component whose backing file holds a page that
     failed its checksum. *)
  let quarantine_corrupt t =
    let env = t.env in
    let scan comps ~file ~quarantined ~quarantine =
      Array.iter
        (fun c ->
          if (not (quarantined c)) && Lsm_sim.Env.file_corrupt env ~file:(file c)
          then quarantine c)
        comps
    in
    scan (Prim.components t.primary) ~file:Prim.component_file
      ~quarantined:Prim.quarantined ~quarantine:(Prim.quarantine t.primary);
    (match t.pk_index with
    | Some pk ->
        scan (Pk.components pk) ~file:Pk.component_file
          ~quarantined:Pk.quarantined ~quarantine:(Pk.quarantine pk)
    | None -> ());
    Array.iter
      (fun s ->
        scan (Sec.components s.tree) ~file:Sec.component_file
          ~quarantined:Sec.quarantined ~quarantine:(Sec.quarantine s.tree);
        match s.del_tree with
        | Some d ->
            scan (Pk.components d) ~file:Pk.component_file
              ~quarantined:Pk.quarantined ~quarantine:(Pk.quarantine d)
        | None -> ())
      t.secondaries

  (* Rebuild one quarantined secondary component from the primary key
     index, reusing the Sec. 4 standalone-repair path: re-validate its
     entries against the pk index (fresh bitmap, advanced repairedTS),
     then rewrite the survivors into a brand-new component with clean
     pages and, where configured, a fresh Bloom filter.  The component
     keeps its ID range and repairedTS, so disjointness and the
     tombstone barrier are untouched; the old file's corruption leaves
     the system when [replace_range] deletes it. *)
  let rebuild_secondary t s ~at (comp : Sec.disk_component) =
    Lsm_sim.Env.span t.env ~cat:s.sec_name "resilience.rebuild" @@ fun () ->
    repair_component t s comp ~piggyback:false;
    let rows = Sec.rows_of comp in
    let live = ref [] in
    Array.iteri
      (fun pos r -> if Sec.component_row_valid comp pos then live := r :: !live)
      rows;
    let live = Array.of_list (List.rev !live) in
    Lsm_sim.Env.charge_entry_visits t.env (Array.length live);
    let c' =
      Sec.build_component s.tree live ~prov:comp.Sec.prov
        ~cmin_ts:comp.Sec.cmin_ts ~cmax_ts:comp.Sec.cmax_ts
        ~range_filter:comp.Sec.range_filter ~repaired_ts:comp.Sec.repaired_ts
    in
    Sec.replace_range s.tree ~first:at ~last:at c';
    let r = resil t in
    r.Lsm_sim.Env.rebuilds <- r.Lsm_sim.Env.rebuilds + 1

  (* A quarantined primary-family component is scrubbed: a
     single-component merge rewrites it onto clean pages (and, like any
     merge, physically applies its bitmap).  Under Mutable-bitmap the
     primary and pk-index components share validity bitmaps and must keep
     identical row sequences, so the pair scrubs in lockstep and the
     fresh bitmap is re-shared, mirroring run_merges. *)
  let scrub_primary_pair t =
    let correlated = Strategy.correlates_primary_pair t.cfg.strategy in
    let rec pass () =
      let pcs = Prim.components t.primary in
      let kcs =
        match t.pk_index with Some pk -> Pk.components pk | None -> [||]
      in
      let doomed = ref (-1) in
      Array.iteri
        (fun i c -> if !doomed < 0 && Prim.quarantined c then doomed := i)
        pcs;
      if correlated && !doomed < 0 then
        Array.iteri
          (fun i c -> if !doomed < 0 && Pk.quarantined c then doomed := i)
          kcs;
      if !doomed >= 0 then begin
        let i = !doomed in
        update_tombstone_barrier t;
        let pc = Prim.merge t.primary ~first:i ~last:i in
        (match t.pk_index with
        | Some pk when correlated && i < Array.length kcs ->
            let kc = Pk.merge pk ~first:i ~last:i in
            if Strategy.uses_primary_bitmap t.cfg.strategy then
              kc.Pk.bitmap <- pc.Prim.bitmap
        | _ -> ());
        let r = resil t in
        r.Lsm_sim.Env.rebuilds <- r.Lsm_sim.Env.rebuilds + 1;
        pass ()
      end
    in
    pass ()

  (* Scrub quarantined components of an uncorrelated pk-typed tree (the
     validation-strategy pk index, deleted-key trees). *)
  let scrub_solo_pk t tree =
    let rec pass () =
      let comps = Pk.components tree in
      let doomed = ref (-1) in
      Array.iteri
        (fun i c -> if !doomed < 0 && Pk.quarantined c then doomed := i)
        comps;
      if !doomed >= 0 then begin
        update_tombstone_barrier t;
        ignore (Pk.merge tree ~first:!doomed ~last:!doomed);
        let r = resil t in
        r.Lsm_sim.Env.rebuilds <- r.Lsm_sim.Env.rebuilds + 1;
        pass ()
      end
    in
    pass ()

  (** [heal t] is the self-healing sweep: quarantine every component
      whose backing file holds a checksum-failed page, scrub quarantined
      primary / primary-key / deleted-key components through
      single-component merges (lockstep for the shared-bitmap pair), and
      rebuild quarantined secondary components from the primary key index
      — Sec. 4's standalone repair reused as the corruption-recovery
      path.  Rebuilding clears the quarantine (the replacement component
      is born clean) and deletes the corrupt file.  Idempotent; a no-op
      when nothing is quarantined and no corruption is recorded. *)
  let heal t =
    quarantine_corrupt t;
    if quarantined_count t > 0 then begin
      Lsm_sim.Env.span t.env ~cat:"dataset" "resilience.heal" @@ fun () ->
      (* Primary family first, so secondary rebuilds validate against a
         clean (fully trusted) primary key index. *)
      scrub_primary_pair t;
      (match t.pk_index with
      | Some pk when not (Strategy.correlates_primary_pair t.cfg.strategy) ->
          scrub_solo_pk t pk
      | _ -> ());
      Array.iter
        (fun s ->
          (match s.del_tree with Some d -> scrub_solo_pk t d | None -> ());
          let rec pass () =
            let comps = Sec.components s.tree in
            let doomed = ref (-1) in
            Array.iteri
              (fun i c -> if !doomed < 0 && Sec.quarantined c then doomed := i)
              comps;
            if !doomed >= 0 then begin
              rebuild_secondary t s ~at:!doomed comps.(!doomed);
              pass ()
            end
          in
          pass ())
        t.secondaries
    end

  let () = heal_hook := heal

  (** [primary_repair t ~with_merge] is the DELI baseline (Tang et al.):
      repair secondary indexes by scanning the *primary index* components,
      detecting superseded record versions, and inserting anti-matter for
      them — full records are read, which is exactly the cost our
      secondary repair avoids.  [with_merge] additionally merges the
      primary components (DELI's merge-repair flavour). *)
  let primary_repair t ~with_merge =
    Lsm_sim.Env.span t.env ~cat:"dataset" "repair.primary" @@ fun () ->
    let comps = Prim.components t.primary in
    if Array.length comps > 0 then begin
      (* K-way scan over all disk components, newest-first priority. *)
      let scans =
        Array.map (fun c -> Prim.Dbt.Scan.seek t.env c.Prim.tree None) comps
      in
      let cmp (k1, p1, _) (k2, p2, _) =
        Lsm_sim.Env.charge_comparisons t.env 1;
        let c = compare (k1 : int) k2 in
        if c <> 0 then c else compare (p1 : int) p2
      in
      let heap = Lsm_util.Heap.create cmp in
      let push p =
        match Prim.Dbt.Scan.next t.env scans.(p) with
        | Some (_, row) -> Lsm_util.Heap.push heap (row.Prim.key, p, row)
        | None -> ()
      in
      Array.iteri (fun p _ -> push p) comps;
      (* Group same-pk versions; the newest of a group is current unless
         the memory component holds an even newer one. *)
      let process_group pk (versions : Prim.row list) =
        let newest_mem = Prim.mem_find t.primary pk in
        let current =
          match (newest_mem, versions) with
          | Some m, _ -> m
          | None, v :: _ -> v
          | None, [] -> assert false
        in
        let obsolete =
          match newest_mem with Some _ -> versions | None -> List.tl versions
        in
        List.iter
          (fun (v : Prim.row) ->
            match v.Prim.value with
            | Entry.Put old_r ->
                Array.iter
                  (fun s ->
                    let cur_keys =
                      match current.Prim.value with
                      | Entry.Put cur_r -> s.extract_all cur_r
                      | Entry.Del -> []
                    in
                    List.iter
                      (fun sko ->
                        if not (List.mem sko cur_keys) then
                          Sec.write s.tree ~key:(sko, pk) ~ts:(next_ts t)
                            Entry.Del)
                      (s.extract_all old_r))
                  t.secondaries
            | Entry.Del -> ())
          obsolete
      in
      let cur_pk = ref min_int in
      let group = ref [] in
      let flush_group () =
        if !group <> [] then process_group !cur_pk (List.rev !group)
      in
      while not (Lsm_util.Heap.is_empty heap) do
        let pk, p, row = Lsm_util.Heap.pop heap in
        push p;
        if pk <> !cur_pk then begin
          flush_group ();
          cur_pk := pk;
          group := [ row ]
        end
        else group := row :: !group
      done;
      flush_group ();
      if with_merge && Array.length comps >= 2 then begin
        ignore (Prim.merge t.primary ~first:0 ~last:(Array.length comps - 1));
        t.stats.n_merges <- t.stats.n_merges + 1
      end;
      t.stats.n_repairs <- t.stats.n_repairs + 1
    end

  (* ------------------------------------------------------------------ *)
  (* Query processing (Secs. 3.2, 4.3, 6.2, 6.4) *)

  (** One secondary-index search result before validation. *)
  type sec_entry = {
    e_sk : int;
    e_pk : int;
    e_ts : int;
    e_src_repaired : int;  (** repairedTS of the source component *)
  }

  (** How a secondary-index query deals with possibly-obsolete entries:
      [`Assume_valid] (Eager datasets), [`Direct] validation (fetch then
      re-check, Fig. 5a), or [`Timestamp] validation via the primary key
      index (Fig. 5b). *)
  type validation_mode = [ `Assume_valid | `Direct | `Timestamp ]

  (** [search_secondary t sec ~lo ~hi] runs the index search itself,
      returning matching entries (reconciled, bitmap-respected). *)
  let search_secondary t sec ~lo ~hi =
    Lsm_sim.Env.span t.env ~cat:sec.sec_name "search.secondary" @@ fun () ->
    let out = ref [] in
    let n = ref 0 in
    Sec.scan sec.tree
      {
        Sec.full_scan_spec with
        lo = Some (lo, min_int);
        hi = Some (hi, max_int);
      }
      ~f:(fun row ~src_repaired ->
        let sk, pk = row.Sec.key in
        incr n;
        out := { e_sk = sk; e_pk = pk; e_ts = row.Sec.ts; e_src_repaired = src_repaired } :: !out);
    Lsm_sim.Env.explain_count t.env "entries_matched" !n;
    List.rev !out

  let sort_entries_by_pk t entries =
    let arr = Array.of_list entries in
    let cmps = ref 0 in
    Lsm_util.Sorter.sort ~cmp:(fun a b -> compare a.e_pk b.e_pk) ~cost:cmps arr;
    Lsm_sim.Env.charge_comparisons t.env !cmps;
    arr

  (* Timestamp validation (Fig. 5b): filter out entries superseded in the
     primary key index (or deleted-key tree). *)
  let timestamp_validate t sec entries_sorted =
    match validation_index t sec with
    | None -> Array.to_list entries_sorted
    | Some vt ->
        Lsm_sim.Env.span t.env ~cat:sec.sec_name "validate.timestamp"
        @@ fun () ->
        let cursors =
          Array.map (fun c -> Pk.Dbt.Cursor.create c.Pk.tree) (Pk.components vt)
        in
        let valid =
          List.filter
            (fun e ->
              entry_is_valid vt ~cursors ~pk:e.e_pk ~ts:e.e_ts
                ~threshold:(max e.e_src_repaired e.e_ts) ())
            (Array.to_list entries_sorted)
        in
        Lsm_sim.Env.explain_count t.env "entries_validated" (List.length valid);
        Lsm_sim.Env.explain_count t.env "entries_discarded"
          (Array.length entries_sorted - List.length valid);
        valid

  (* Fetch records for (already sorted) query keys via batched point
     lookups; emission order is fetch order. *)
  let fetch_records t ?(lookup = Prim.default_lookup_opts) qkeys =
    let out = ref [] in
    Prim.lookup_batch t.primary lookup qkeys ~emit:(fun _ row ->
        match row with
        | Some { Prim.value = Entry.Put r; _ } -> out := r :: !out
        | _ -> ());
    List.rev !out

  (** [query_secondary t ~sec ~lo ~hi ~mode ?lookup ()] returns the records
      whose secondary key (index [sec]) lies in [lo, hi] — the
      non-index-only query of Fig. 16. *)
  let query_secondary t ~sec ~lo ~hi ~(mode : validation_mode)
      ?(lookup = Prim.default_lookup_opts) () =
    Lsm_sim.Env.span t.env ~cat:sec "query.secondary" @@ fun () ->
    Lsm_sim.Env.explain_annotate t.env
      [
        ("sec", sec);
        ( "mode",
          match mode with
          | `Assume_valid -> "assume_valid"
          | `Direct -> "direct"
          | `Timestamp -> "timestamp" );
      ];
    let s = secondary t sec in
    let entries = search_secondary t s ~lo ~hi in
    match mode with
    | `Assume_valid ->
        let sorted = sort_entries_by_pk t entries in
        let qkeys =
          Array.map
            (fun e ->
              { Prim.qkey = e.e_pk; hint_ts = (if lookup.Prim.use_hints then e.e_ts else 0) })
            sorted
        in
        fetch_records t ~lookup qkeys
    | `Direct ->
        (* Sort-distinct, fetch, re-check the predicate (Fig. 5a). *)
        Lsm_sim.Env.span t.env ~cat:sec "validate.direct" @@ fun () ->
        let sorted = sort_entries_by_pk t entries in
        let pks =
          Lsm_util.Sorter.dedup_sorted
            ~eq:(fun a b -> a.e_pk = b.e_pk)
            sorted
        in
        let qkeys =
          Array.map
            (fun e ->
              { Prim.qkey = e.e_pk; hint_ts = 0 })
            pks
        in
        let records = fetch_records t ~lookup qkeys in
        let live =
          List.filter
            (fun r ->
              List.exists (fun sk -> sk >= lo && sk <= hi) (s.extract_all r))
            records
        in
        Lsm_sim.Env.explain_count t.env "entries_validated" (List.length live);
        Lsm_sim.Env.explain_count t.env "entries_discarded"
          (List.length records - List.length live);
        live
    | `Timestamp ->
        let sorted = sort_entries_by_pk t entries in
        let valid = timestamp_validate t s sorted in
        let qkeys =
          Array.map
            (fun e ->
              { Prim.qkey = e.e_pk; hint_ts = (if lookup.Prim.use_hints then e.e_ts else 0) })
            (Array.of_list valid)
        in
        fetch_records t ~lookup qkeys

  (** [query_secondary_keys t ~sec ~lo ~hi ~mode ()] is the index-only
      variant (Fig. 17): returns (secondary key, primary key) pairs without
      touching the primary index records.  [`Direct] is not offered — it
      must fetch records, which defeats index-only processing (Sec. 4.3). *)
  let query_secondary_keys t ~sec ~lo ~hi
      ~(mode : [ `Assume_valid | `Timestamp ]) () =
    Lsm_sim.Env.span t.env ~cat:sec "query.secondary_keys" @@ fun () ->
    let s = secondary t sec in
    let entries = search_secondary t s ~lo ~hi in
    match mode with
    | `Assume_valid -> List.map (fun e -> (e.e_sk, e.e_pk)) entries
    | `Timestamp ->
        let sorted = sort_entries_by_pk t entries in
        let valid = timestamp_validate t s sorted in
        List.map (fun e -> (e.e_sk, e.e_pk)) valid

  (** [full_scan t ~f] streams every live record (reconciled); returns the
      record count.  The fallback plan secondary indexes compete against
      (Fig. 12b). *)
  let full_scan t ~f =
    Lsm_sim.Env.span t.env ~cat:"dataset" "query.scan" @@ fun () ->
    let n = ref 0 in
    Prim.scan t.primary Prim.full_scan_spec ~f:(fun row ~src_repaired:_ ->
        match row.Prim.value with
        | Entry.Put r ->
            incr n;
            f r
        | Entry.Del -> ());
    Lsm_sim.Env.explain_count t.env "rows_emitted" !n;
    !n

  (** [query_time_range t ~tlo ~thi ~f] scans the primary index with
      component-level range-filter pruning (Sec. 6.4.2), applying [f] to
      records whose filter key lies in [tlo, thi]; returns the match count.
      Pruning power depends on the strategy:
      - Eager: prune any component whose (old-value-widened) filter is
        disjoint from the query;
      - Validation: all components newer than the oldest overlapping one
        must also be read;
      - Mutable-bitmap: prune freely and skip reconciliation — bitmaps
        already removed superseded versions. *)
  let query_time_range t ~tlo ~thi ~f =
    Lsm_sim.Env.span t.env ~cat:"dataset" "query.time_range" @@ fun () ->
    let fk =
      match t.filter_key with
      | Some fk -> fk
      | None -> invalid_arg "query_time_range: dataset has no filter key"
    in
    let comps = Array.to_list (Prim.components t.primary) in
    let overlaps c =
      match c.Prim.range_filter with
      | None -> true
      | Some (a, b) -> not (b < tlo || a > thi)
    in
    (* The memory filter bounds cover every Put value (plus, under Eager,
       the old values of deleted/updated records, via widening); an empty
       or disjoint memory component is prunable. *)
    let mem_overlaps =
      match Prim.mem_filter t.primary with
      | None -> false
      | Some (a, b) -> not (b < tlo || a > thi)
    in
    let n = ref 0 in
    let visit r =
      let v = fk r in
      if v >= tlo && v <= thi then begin
        incr n;
        f r
      end
    in
    let note_pruning only =
      Lsm_sim.Env.explain_count t.env "components_scanned" (List.length only);
      Lsm_sim.Env.explain_count t.env "components_pruned"
        (List.length comps - List.length only)
    in
    (match t.cfg.strategy with
    | Strategy.Mutable_bitmap _ ->
        let only = List.filter overlaps comps in
        note_pruning only;
        Prim.scan t.primary
          {
            Prim.full_scan_spec with
            reconcile = false;
            include_mem = mem_overlaps;
            only = Some only;
          }
          ~f:(fun row ~src_repaired:_ ->
            match row.Prim.value with Entry.Put r -> visit r | Entry.Del -> ())
    | Strategy.Eager ->
        let only = List.filter overlaps comps in
        note_pruning only;
        Prim.scan t.primary
          { Prim.full_scan_spec with include_mem = mem_overlaps; only = Some only }
          ~f:(fun row ~src_repaired:_ ->
            match row.Prim.value with Entry.Put r -> visit r | Entry.Del -> ())
    | Strategy.Validation _ | Strategy.Deleted_key_btree ->
        (* Find the oldest overlapping component; everything newer must be
           read too, to not miss overriding updates (Sec. 4.2). *)
        let arr = Array.of_list comps in
        let oldest = ref (-1) in
        Array.iteri (fun i c -> if overlaps c then oldest := i) arr;
        let only =
          if !oldest < 0 then []
          else Array.to_list (Array.sub arr 0 (!oldest + 1))
        in
        let include_mem = mem_overlaps || !oldest >= 0 in
        note_pruning only;
        Prim.scan t.primary
          { Prim.full_scan_spec with include_mem; only = Some only }
          ~f:(fun row ~src_repaired:_ ->
            match row.Prim.value with Entry.Put r -> visit r | Entry.Del -> ()));
    !n

  (** [point_query t pk] is a primary-key point query. *)
  let point_query t pk =
    Lsm_sim.Env.span t.env ~cat:"dataset" "query.point" @@ fun () ->
    match Prim.lookup_one t.primary pk with
    | Some { Prim.value = Entry.Put r; _ } -> Some r
    | _ -> None

  (* ------------------------------------------------------------------ *)
  (* Introspection for tests and benches *)

  let primary t = t.primary
  let pk_index t = t.pk_index
  let secondaries t = t.secondaries

  (** [set_sorted_views t on] toggles REMIX-style sorted-view scans on
      every index of the dataset (primary, primary-key, secondary and
      deleted-key trees).  On by default; the heap merge is the fallback
      and the differential-test oracle. *)
  let set_sorted_views t on =
    Prim.set_sorted_views t.primary on;
    (match t.pk_index with Some pk -> Pk.set_sorted_views pk on | None -> ());
    Array.iter
      (fun s ->
        Sec.set_sorted_views s.tree on;
        match s.del_tree with
        | Some d -> Pk.set_sorted_views d on
        | None -> ())
      t.secondaries
  let filter_key_fn t = t.filter_key

  let set_auto_maintenance t v = t.auto_maintenance <- v

  let total_disk_bytes t =
    Prim.disk_size_bytes t.primary
    + (match t.pk_index with Some pk -> Pk.disk_size_bytes pk | None -> 0)
    + Array.fold_left
        (fun acc s ->
          acc + Sec.disk_size_bytes s.tree
          + (match s.del_tree with Some d -> Pk.disk_size_bytes d | None -> 0))
        0 t.secondaries
end
