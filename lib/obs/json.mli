(** Minimal JSON values: emit, parse, poke.

    The observability layer ships several machine-readable documents
    (explain plans, amplification reports, bench snapshots). This module
    is their common representation — small enough to hand-verify, with a
    real parser so the test suite can round-trip everything we emit. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val escape : Buffer.t -> string -> unit
(** Append a string's JSON-escaped contents (no surrounding quotes). *)

val to_string : ?indent:int -> t -> string
(** Render [t]. [indent] > 0 pretty-prints with that many spaces per
    nesting level; the default (0) is compact. Floats print as valid
    JSON numbers; NaN/infinity degrade to [null]. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON document (trailing whitespace allowed,
    trailing garbage is an error). *)

val member : string -> t -> t option
(** [member k (Obj _)] is the value bound to [k], if any. [None] on
    non-objects. *)

val to_int : t -> int option
val to_float : t -> float option
(** [to_float] accepts both [Float] and [Int]. *)

val to_string_opt : t -> string option
val to_list : t -> t list option

val write : path:string -> t -> unit
(** Write pretty-printed with a trailing newline. *)

val read : path:string -> (t, string) result
