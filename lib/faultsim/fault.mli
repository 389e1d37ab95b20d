(** Deterministic fault plans over {!Lsm_sim.Env} fault points: an
    injector counts every announced failure site; a plan names [fails]
    consecutive occurrences of one site starting at the [hit]-th and
    raises {!Lsm_sim.Env.Injected_fault} there.  Seeded workloads make
    the announcement sequence reproducible, so every failure replays
    from (seed, point, hit, fails) alone. *)

type kind = Lsm_sim.Env.fault_kind = Crash | Io_error | Corrupt

type plan = {
  kind : kind;
  point : Lsm_sim.Fault_point.t;
  hit : int;
  fails : int;
}
(** Fail at announcements [hit .. hit + fails - 1] (1-based) of
    [point].  [Crash] aborts execution (the harness then runs recovery);
    [Io_error] is transient — the engine retries under its backoff
    policy, surfacing [Resilience.Unrecoverable] only when [fails]
    outlasts the budget; [Corrupt] silently flips the page's simulated
    checksum instead of raising. *)

val plan : ?fails:int -> kind -> point:Lsm_sim.Fault_point.t -> hit:int -> plan
(** [fails] defaults to 1 (a one-shot fault). *)

val kind_to_string : kind -> string
(** Canonical spellings ["crash"], ["io"], ["corrupt"]. *)

val kind_spellings : (string * kind) list
(** Every accepted spelling: the canonical ones plus the alias
    ["io-error"].  The CLI's [--kind] parser is built from this table. *)

val kind_of_string : string -> kind option
(** Looks the spelling up in {!kind_spellings}. *)

val describe : plan -> string

type injector

val injector : plan option -> injector
(** [None] = counting only (the enumeration run). *)

val arm : injector -> Lsm_sim.Env.t -> unit
(** Install as the environment's fault hook. *)

val fired : injector -> bool
(** Did the plan's fault actually trigger? *)

val hits : injector -> (Lsm_sim.Fault_point.t * int) list
(** Every point's announcement total, in {!Lsm_sim.Fault_point.all}
    order; points never announced count 0. *)

val total : injector -> int
