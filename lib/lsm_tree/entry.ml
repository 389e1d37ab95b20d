(** LSM entries.

    LSM-trees never update in place: a modification inserts a new entry
    that overrides older entries with the same key.  [Put v] carries a
    value; [Del] is an "anti-matter" entry (Sec. 2.1) recording that the
    key was deleted. *)

type 'v t = Put of 'v | Del

let is_put = function Put _ -> true | Del -> false
let is_del = function Del -> true | Put _ -> false

let value = function Put v -> Some v | Del -> None

(** [byte_size size_of e]: anti-matter entries store only the key, which
    the containing row accounts for separately. *)
let byte_size size_of = function Put v -> size_of v | Del -> 0
