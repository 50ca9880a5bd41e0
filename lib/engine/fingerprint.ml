(** Deterministic program fingerprints.

    The digest is over *canonical printed text* ({!Minilang.Pretty}),
    never over statement ids: sids are assigned by global parse order, so
    an edit in one feature module renumbers every other module — printed
    text is the identity that survives unrelated churn (the same property
    [lib/diffing] relies on).  The serve daemon keys its response cache
    on it. *)

open Minilang

(** Whole-program fingerprint: digest of the canonical printed program. *)
let program (p : Ast.program) : string =
  Digest.to_hex (Digest.string (Pretty.program_to_string p))
