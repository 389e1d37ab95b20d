(** Ready-made index values (a value type with its serialized size).
    Index keys are plain ints: see [Lsm_tree]. *)

(** Unit values, for key-only indexes. *)
module Unit_value : sig type t = unit val byte_size : t -> int end

module Int_value : sig type t = int val byte_size : t -> int end
