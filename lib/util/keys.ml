(** Ready-made index values (a value type with its serialized size).
    Index keys are plain ints: see [Lsm_tree]. *)

(** Unit values, for key-only indexes (the primary key index and secondary
    indexes store no value beyond the key and timestamp). *)
module Unit_value = struct
  type t = unit

  let byte_size () = 0
end

(** Integer values, occasionally useful in tests and examples. *)
module Int_value = struct
  type t = int

  let byte_size _ = 8
end
