(** Versioned, digest-checked cache snapshots on disk.

    File layout: one ASCII header line
    ["LISA-SNAP <format-version> <kind> <md5-hex> <payload-bytes>\n"]
    followed by the marshalled payload.  The loader is corruption
    tolerant by construction: a missing file, truncated payload, bad
    magic, stale format version, wrong kind, or digest mismatch all
    yield [Error reason] — the daemon logs the reason and starts cold;
    nothing ever raises out of {!load}.

    Payloads must be process-neutral, acyclic data (strings, ints,
    records of them) — never hash-consed values, whose ids are
    process-local.  The payload is marshalled without sharing, so equal
    payloads write byte-equal files.  Writes go through a temp file +
    rename, so a crash mid-save leaves the previous snapshot intact. *)

(** Bumped on any payload-format change; older files load as cold. *)
val format_version : int

(** [save ~path ~kind payload]: [Error msg] on I/O failure. *)
val save : path:string -> kind:string -> 'a -> (unit, string) result

(** [load ~path ~kind]: the payload, or the cold-start reason
    ("missing", "truncated payload", "version mismatch", ...). *)
val load : path:string -> kind:string -> ('a, string) result
