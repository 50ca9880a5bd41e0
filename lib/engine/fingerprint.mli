(** Deterministic program fingerprints over canonical printed text, never
    statement ids, so they survive the global sid renumbering an
    unrelated edit causes.  The serve daemon's response-cache key. *)

open Minilang

(** Digest of the canonical printed program. *)
val program : Ast.program -> string
