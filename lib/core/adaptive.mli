(** Adaptive strategy selection — the paper's future-work auto-tuning
    (Sec. 7), for the Eager / Validation pair: a sliding-window controller
    switches to Validation when write-dominated and to Eager when
    query-dominated.  It only decides: a switch calls
    {!Dataset.Make.set_eager_writes}, which runs a full standalone repair
    before every switch into Eager mode so the eager invariant (indexes
    always current) holds.  Whatever the mode history, queries answer
    exactly like the reference model. *)

module Make (R : Record.S) (D : module type of Dataset.Make (R)) : sig
  type mode = Eager_mode | Validation_mode

  type config = {
    window : int;  (** operations per decision window *)
    write_heavy : float;
        (** switch to Validation when updates-per-query exceeds this *)
    query_heavy : float;
        (** switch to Eager when updates-per-query drops below this *)
  }

  val default_config : config

  type t

  val create : ?config:config -> D.t -> t
  (** The dataset must use the Validation strategy (the safe resting
      state; the controller toggles the behavioural mode). *)

  val dataset : t -> D.t
  val mode : t -> mode
  val switches : t -> int

  val insert : t -> R.t -> [ `Inserted | `Duplicate ]
  val upsert : t -> R.t -> unit
  val delete : t -> pk:int -> unit

  val query_secondary : t -> sec:string -> lo:int -> hi:int -> unit -> R.t list
  (** Uses the cheap plan the current mode allows: no validation under the
      eager invariant, Timestamp validation otherwise. *)

  val point_query : t -> int -> R.t option
end
