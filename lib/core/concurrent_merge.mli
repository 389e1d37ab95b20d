(** Concurrency control between mutable bitmaps and flush/merge
    (Sec. 5.3): the {b Lock} and {b Side-file} protocols of Figs. 10-11
    against an unprotected {b Baseline}, driven as a k-way merge over the
    shared cursor with writer transactions interleaved between merged
    rows (Fig. 23's experiment), installed like a scheduled merge. *)

module Make (R : Record.S) (D : module type of Dataset.Make (R)) : sig
  type method_ = Baseline | Lock | Side_file

  val method_name : method_ -> string

  (** CPU costs of the protocol operations (microseconds). *)
  type costs = {
    lock_us : float;
    bit_check_us : float;
    side_append_us : float;
    snapshot_us_per_kb : float;
    dataset_latch_us : float;
  }

  val default_costs : costs

  type result = {
    merge_time_us : float;
    rows_merged : int;
    writer_ops : int;
    lock_acquisitions : int;
    side_file_entries : int;
  }

  type writer_op = Upsert of R.t | Delete of int

  val run :
    D.t ->
    method_:method_ ->
    ?costs:costs ->
    next_write:(unit -> writer_op) ->
    writer_ops_per_row:float ->
    unit ->
    result
  (** Merge all of the dataset's primary (and primary-key) components with
      concurrent writers.  Requires the Mutable-bitmap strategy and at
      least two components.  Under [Lock] and [Side_file] no concurrent
      update is lost; [Baseline] exists as the timing floor. *)
end
