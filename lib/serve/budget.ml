(** The global flush coordinator (paper Sec. 2.3): all partitions share
    one memory budget for their LSM memory components.

    Out of the box every partition's dataset budgets independently
    ([Dataset.maybe_flush] against its own [mem_budget]), which is N
    budgets, not one.  The coordinator instead watches the *aggregate*
    footprint and, whenever it reaches the shared budget, evicts across
    partitions until the aggregate is back under budget.  Callers disable
    per-partition auto-maintenance and call {!enforce} after every write.

    The eviction unit is the finest the partitions offer: a whole
    partition's memtables when unsharded ([shards = 1]: the largest
    memtable across partitions goes, the policy AsterixDB uses for its
    shared memory-component pool), one memory shard when sharded.  A
    budget trip typically overshoots by one write's worth of bytes, so
    dumping a whole partition's memtables evicts far more memory than the
    deficit requires; instead the coordinator evicts greedily, largest
    shard first across partitions, until the aggregate is back under
    budget.  One shard usually covers the deficit, so each eviction
    stalls O(memtable/shards) bytes instead of a whole partition, while
    still releasing enough headroom that evictions never degenerate into
    one per write (which is what picking the minimum covering shard would
    do — the deficit is one write's worth, so the smallest shard always
    "suffices" and the budget thrashes tiny flushes). *)

type part = {
  mem_bytes : unit -> int;  (** partition's current memory-component bytes *)
  flush : unit -> unit;  (** flush the partition's memory components *)
  shards : int;  (** memory shards the partition can evict singly *)
  shard_bytes : int -> int;  (** current bytes of one memory shard *)
  flush_shard : int -> unit;  (** flush one memory shard *)
}

(** [part ~mem_bytes ~flush ()] builds a partition handle.  With
    [shards = 1] (the default) the single shard is the whole partition,
    so the shard hooks are ignored in favour of [mem_bytes] and
    [flush]. *)
let part ?(shards = 1) ?shard_bytes ?flush_shard ~mem_bytes ~flush () =
  let sharded = shards > 1 in
  {
    mem_bytes;
    flush;
    shards = max 1 shards;
    shard_bytes =
      (match shard_bytes with
      | Some f when sharded -> f
      | _ -> fun _ -> mem_bytes ());
    flush_shard =
      (match flush_shard with Some f when sharded -> f | _ -> fun _ -> flush ());
  }

type t = {
  budget_bytes : int;
  parts : part array;
  mutable evictions : int;
  evictions_by : int array;  (** per-partition eviction counts *)
  mutable peak_bytes : int;  (** max aggregate observed after enforcement *)
  mutable peak_pre_bytes : int;
      (** max aggregate observed when enforcement began: how far a single
          write overshoots before its same-instant eviction *)
}

let create ~budget_bytes parts =
  if budget_bytes < 1 then invalid_arg "Budget.create: budget_bytes >= 1";
  if Array.length parts = 0 then invalid_arg "Budget.create: no partitions";
  {
    budget_bytes;
    parts;
    evictions = 0;
    evictions_by = Array.make (Array.length parts) 0;
    peak_bytes = 0;
    peak_pre_bytes = 0;
  }

let budget_bytes t = t.budget_bytes
let evictions t = t.evictions

(** [evictions_of t i] is how many coordinator evictions partition [i]
    absorbed — chaos attribution uses it to see eviction pressure shift
    off a degraded partition. *)
let evictions_of t i = t.evictions_by.(i)
let peak_bytes t = t.peak_bytes
let peak_pre_bytes t = t.peak_pre_bytes

(** [total t] is the aggregate memory-component footprint in bytes. *)
let total t =
  Array.fold_left (fun acc p -> acc + p.mem_bytes ()) 0 t.parts

let record_eviction t i =
  t.evictions <- t.evictions + 1;
  t.evictions_by.(i) <- t.evictions_by.(i) + 1

(* Flush the largest shard across partitions (ties break low partition,
   then low shard) and recurse until under budget, or until nothing is
   left to evict: the budget is then smaller than the engine's
   irreducible footprint.  Unsharded, every shard is a whole partition,
   so this flushes the largest memtable.  [bytes] is the aggregate
   footprint, which only a flush changes, so it is summed again only
   after one; returns the aggregate it leaves. *)
let rec drain t bytes =
  if bytes < t.budget_bytes then bytes
  else begin
    let best = ref None in
    Array.iteri
      (fun i p ->
        for s = 0 to p.shards - 1 do
          let b = p.shard_bytes s in
          if b > 0 then
            match !best with
            | Some (bb, _, _) when bb >= b -> ()
            | _ -> best := Some (b, i, s)
        done)
      t.parts;
    match !best with
    | Some (_, i, s) ->
        t.parts.(i).flush_shard s;
        record_eviction t i;
        drain t (total t)
    | None -> bytes
  end

(** [enforce t] restores the invariant [total t < budget_bytes] by
    evicting across partitions, repeatedly if one eviction is not
    enough.  Flushing happens "within" the triggering write's instant:
    its simulated cost lands on the flushed partition's clock, exactly
    like a synchronous flush in the single-dataset path.  A write that
    evicts nothing sums the partitions' footprints once. *)
let enforce t =
  let pre = total t in
  if pre > t.peak_pre_bytes then t.peak_pre_bytes <- pre;
  let post = drain t pre in
  if post > t.peak_bytes then t.peak_bytes <- post
