(** A seeded transactional workload over a real dataset, driven twice:
    once to count fault-point announcements, then once per plan with a
    fault armed.  The drive phase is bit-identical between runs — every
    random choice comes from one {!Lsm_util.Rng} stream and no decision
    depends on hash-table iteration order — so a (seed, point, hit)
    triple names the same machine state every time.

    The scenario keeps a {!Model} of committed state alongside the real
    dataset.  A transaction's operations reach the model only at commit;
    when a crash interrupts an in-flight transaction, the durable WAL is
    the authority: if its commit record survived, the model applies the
    pending operations, otherwise it discards them.  After recovery the
    checker compares dataset and model. *)

module Tweet = Lsm_workload.Tweet
module Rng = Lsm_util.Rng
module Env = Lsm_sim.Env
module Strategy = Lsm_core.Strategy
module Wal = Lsm_txn.Wal
module D = Lsm_core.Dataset.Make (Tweet.Record)
module T = Lsm_core.Txn_dataset.Make (Tweet.Record) (D)

module M = Model.Make (struct
  type t = Tweet.t

  let pk = Tweet.primary_key
end)

type config = {
  seed : int;
  txns : int;  (** committed-or-aborted transactions to attempt *)
  ops_per_txn : int;  (** max operations per transaction *)
  key_domain : int;  (** primary keys drawn from [1, key_domain] *)
  user_domain : int;  (** user_ids drawn from [0, user_domain) *)
  delete_pct : int;  (** % of operations that are blind deletes *)
  abort_pct : int;  (** % of transactions rolled back *)
  flush_every : int;  (** flush (and merge) after every n txns; 0 = never *)
  ckpt_every : int;  (** checkpoint after every n txns; 0 = never *)
  query_every : int;  (** run queries after every n txns; 0 = never *)
  validation : bool;  (** Validation strategy instead of Mutable-bitmap *)
  group_commit : int;
      (** WAL group-commit batch; <= 1 = serial (one fsync per commit) *)
  maint_workers : int;
      (** modeled maintenance workers; > 1 overlaps independent merges *)
  mem_shards : int;
      (** memory shards per tree; > 1 flushes one shard at a time during
          the drive phase, exercising the per-shard flush crash points *)
}

let default_config =
  {
    seed = 1;
    txns = 40;
    ops_per_txn = 8;
    key_domain = 120;
    user_domain = 40;
    delete_pct = 25;
    abort_pct = 15;
    flush_every = 5;
    ckpt_every = 11;
    query_every = 7;
    validation = false;
    group_commit = 1;
    maint_workers = 1;
    mem_shards = 1;
  }

type outcome = Completed | Crashed of { point : string; hit : int }

type pending = Op_up of Tweet.t | Op_del of int

type t = {
  cfg : config;
  env : Env.t;
  d : D.t;
  t : T.t;
  model : M.t;
  rng : Rng.t;
  mutable at : int;  (** monotone created_at counter *)
  mutable inflight : (int * pending list ref) option;
      (** WAL txn id + its not-yet-committed operations, newest first *)
  unsettled : (int * pending list) Queue.t;
      (** committed transactions (oldest first) whose commit records are
          not yet durable — under group commit, a commit returns with the
          record still in the open group; the model must not see its
          operations until the group's fsync makes it durable *)
  mutable outcome : outcome;
}

let create cfg =
  (* Tiny pages and a tiny cache: queries miss, flushes and merges write
     many pages — a dense announcement sequence for the enumerator. *)
  let device =
    Lsm_sim.Device.custom ~name:"faultsim" ~page_size:1024 ~seek_us:50.0
      ~read_us_per_page:10.0 ~write_us_per_page:10.0
  in
  let env = Env.create ~cache_bytes:(16 * 1024) device in
  let strategy =
    if cfg.validation then Strategy.validation else Strategy.mutable_bitmap
  in
  let d =
    D.create ~filter_key:Tweet.created_at
      ~secondaries:[ Lsm_core.Record.secondary "user_id" Tweet.user_id ]
      env
      {
        D.default_config with
        strategy;
        mem_budget = 8 * 1024;
        maint_workers = cfg.maint_workers;
        mem_shards = max 1 cfg.mem_shards;
      }
  in
  let t = T.create d in
  if cfg.group_commit > 1 then T.set_group_commit t ~batch:cfg.group_commit;
  {
    cfg;
    env;
    d;
    t;
    model = M.create ();
    rng = Rng.create cfg.seed;
    at = 0;
    inflight = None;
    unsettled = Queue.create ();
    outcome = Completed;
  }

let fresh_tweet st ~pk =
  st.at <- st.at + 1;
  {
    Tweet.id = pk;
    user_id = Rng.int st.rng st.cfg.user_domain;
    location = Rng.int st.rng Tweet.location_domain;
    created_at = st.at;
    msg_len = 80 + Rng.int st.rng 60;
  }

(* ------------------------------------------------------------------ *)
(* Settlement *)

let apply_pending st ops =
  List.iter
    (function
      | Op_up r -> M.upsert st.model r
      | Op_del pk -> M.delete st.model pk)
    ops

(** Move the current transaction's operations onto the settlement queue
    (called once its commit returned). *)
let enqueue_inflight st =
  (match st.inflight with
  | None -> ()
  | Some (txn_id, pending) ->
      Queue.push (txn_id, List.rev !pending) st.unsettled);
  st.inflight <- None

(** Apply every settled transaction whose commit record is durable.
    Groups seal in FIFO commit order, so durable transactions always form
    a prefix of the queue: a peek test suffices. *)
let drain_settled st =
  let wal = T.wal st.t in
  let rec go () =
    match Queue.peek_opt st.unsettled with
    | Some (txn_id, ops) when Wal.txn_durable wal ~txn:txn_id ->
        ignore (Queue.pop st.unsettled);
        apply_pending st ops;
        go ()
    | _ -> ()
  in
  go ()

(** Settle everything outstanding against the durable WAL at a crash:
    each committed-but-unsettled transaction (and the interrupted one, if
    any) either has a durable commit record — the model applies its
    operations, recovery will redo them — or it does not (still Active,
    aborted, or stranded in a torn group): the model discards them, and
    recovery must not resurrect them. *)
let settle_crash st =
  enqueue_inflight st;
  let wal = T.wal st.t in
  while not (Queue.is_empty st.unsettled) do
    let txn_id, ops = Queue.pop st.unsettled in
    if Wal.txn_durable wal ~txn:txn_id then apply_pending st ops
  done

(* ------------------------------------------------------------------ *)
(* Queries (transient-I/O-error tolerant) *)

(** Run a side-effect-free query, retrying on transient injected I/O
    failures.  The engine already absorbs up to its retry budget of
    consecutive faults per I/O site (with backoff on the simulated
    clock); what reaches here is either a legacy [Io_error] raised at a
    non-I/O point or an [Unrecoverable] from an intermittent window that
    outlasted one site's budget.  Both are retried under the same engine
    policy — bounded, so a fault the engine can never clear still fails
    the run.  Crashes propagate to the driver. *)
let attempt st f =
  let budget =
    (Env.retry_policy st.env).Lsm_sim.Resilience.max_retries
  in
  let rec go n =
    try ignore (f ())
    with
    | Env.Injected_fault { kind = Env.Io_error; _ }
    | Lsm_sim.Resilience.Unrecoverable _
    when n < budget
    ->
      go (n + 1)
  in
  go 0

let run_queries st =
  (* Draw every random parameter before calling [attempt]: a retry must
     not consume additional randomness. *)
  let pk = 1 + Rng.int st.rng st.cfg.key_domain in
  let ulo = Rng.int st.rng st.cfg.user_domain in
  let uhi = min (st.cfg.user_domain - 1) (ulo + 1 + Rng.int st.rng 5) in
  let tlo = Rng.int st.rng (max 1 st.at) in
  let thi = min st.at (tlo + 1 + Rng.int st.rng (max 1 (st.at / 2))) in
  attempt st (fun () -> D.point_query st.d pk);
  let mode = if st.cfg.validation then `Direct else `Timestamp in
  attempt st (fun () ->
      D.query_secondary st.d ~sec:"user_id" ~lo:ulo ~hi:uhi ~mode ());
  attempt st (fun () -> D.query_time_range st.d ~tlo ~thi ~f:(fun _ -> ()))

(* ------------------------------------------------------------------ *)
(* The drive phase *)

let drive st =
  let cfg = st.cfg in
  for i = 1 to cfg.txns do
    if cfg.flush_every > 0 && i mod cfg.flush_every = 0 then begin
      (* The flush forces a WAL sync, sealing any open commit group.
         Sharded scenarios rotate one shard per period — deterministic in
         the txn counter, so every shard's crash points get announced —
         while the final drain below still flushes whole. *)
      if cfg.mem_shards > 1 then
        T.flush_shard st.t ((i / cfg.flush_every) mod cfg.mem_shards)
      else T.flush st.t;
      drain_settled st
    end;
    if cfg.ckpt_every > 0 && i mod cfg.ckpt_every = 0 then T.checkpoint st.t;
    if cfg.query_every > 0 && i mod cfg.query_every = 0 then run_queries st;
    let txn = T.begin_txn st.t in
    let pending = ref [] in
    st.inflight <- Some (T.txn_id txn, pending);
    let nops = 1 + Rng.int st.rng cfg.ops_per_txn in
    for _ = 1 to nops do
      if Rng.int st.rng 100 < cfg.delete_pct then begin
        (* Blind delete of a random key in the domain: no lookup, so the
           decision never depends on current (crash-varying) contents. *)
        let pk = 1 + Rng.int st.rng cfg.key_domain in
        T.delete st.t txn ~pk;
        pending := Op_del pk :: !pending
      end
      else begin
        let pk = 1 + Rng.int st.rng cfg.key_domain in
        let r = fresh_tweet st ~pk in
        T.upsert st.t txn r;
        pending := Op_up r :: !pending
      end
    done;
    if Rng.int st.rng 100 < cfg.abort_pct then begin
      T.abort st.t txn;
      st.inflight <- None
    end
    else begin
      T.commit st.t txn;
      (* Serial: the commit record is durable immediately.  Group
         commit: it may still sit in the open group — the model accepts
         the writes only once the group's fsync lands. *)
      enqueue_inflight st;
      drain_settled st
    end
  done;
  T.flush st.t;
  drain_settled st

(* ------------------------------------------------------------------ *)
(* Running a scenario *)

(** [run ?plan cfg] builds a scenario, arms [plan] (or a pure counter),
    and drives the workload.  An injected crash — or an injected I/O
    error escaping a write or maintenance path, which real engines treat
    as fail-stop too — settles the in-flight transaction against the
    durable WAL, simulates the crash, and runs recovery.  The fault hook
    is cleared before returning, so post-run checking and the counting
    run's totals cover exactly the drive phase. *)
let run ?plan cfg =
  let st = create cfg in
  let inj = Fault.injector plan in
  Fault.arm inj st.env;
  (try
     drive st;
     st.outcome <- Completed
   with
  | Env.Injected_fault { point; hit; _ }
  | Lsm_sim.Resilience.Unrecoverable { point; hit; _ } ->
     (* A raw injected fault at a non-I/O point, or a transient fault
        that exhausted the engine's retry budget *and* the supervisor's
        reschedules: real engines treat both as fail-stop. *)
     settle_crash st;
     T.crash st.t;
     T.recover st.t;
     st.outcome <- Crashed { point; hit });
  Env.clear_fault_hook st.env;
  (inj, st)

(** [smoke st] proves the recovered system still works: a few committed
    transactions, a flush (with merges), and a checkpoint.  Runs with the
    fault hook cleared; the model tracks the new writes so a re-check
    still holds. *)
let smoke st =
  for _ = 1 to 3 do
    let txn = T.begin_txn st.t in
    let pending = ref [] in
    st.inflight <- Some (T.txn_id txn, pending);
    for _ = 1 to 4 do
      let pk = 1 + Rng.int st.rng st.cfg.key_domain in
      let r = fresh_tweet st ~pk in
      T.upsert st.t txn r;
      pending := Op_up r :: !pending
    done;
    T.commit st.t txn;
    enqueue_inflight st;
    drain_settled st
  done;
  T.flush st.t;
  T.checkpoint st.t;
  drain_settled st
