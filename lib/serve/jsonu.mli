(** Minimal JSON document type, parser, and printer — no external
    dependency.  The serve protocol speaks it, and [tools/trace_check]
    validates exported traces with it.

    The printer is deterministic: fields render in the order given, with
    no whitespace, so protocol responses are stable byte-for-byte (the
    warm-vs-cold byte-identity gate depends on this). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s]: the single JSON value in [s] (trailing whitespace
    allowed).  Numbers without fraction/exponent parse as [Int]; a
    number that overflows to a non-finite float is an error, as is a
    [\u] escape that is not exactly four hex digits, and so is array or
    object nesting deeper than 64 levels. *)
val parse : string -> (t, string) result

(** Compact rendering (no spaces, object fields in given order). *)
val to_string : t -> string

(** {1 Accessors} (all total; [None] on shape mismatch) *)

(** Object field lookup. *)
val member : string -> t -> t option

val to_str : t -> string option

val to_int : t -> int option

val to_bool : t -> bool option

(** [Float] or [Int] (JSON "1" is a valid float). *)
val to_float : t -> float option

val to_list : t -> t list option

(** {1 Builders} *)

val string_list : string list -> t
