(** Checksummed JSONL run-ledger files.

    A ledger is an ordinary text file of one JSON object per line,
    where each line wraps an opaque JSON payload together with its
    FNV-1a 64-bit checksum:

    {v {"p":<payload>,"c":"<16 hex digits>"} v}

    The checksum covers exactly the payload substring, so every line is
    both strict JSON (tools can [jq '.p'] a ledger directly) and
    independently verifiable — the same line discipline [Core.Store]
    uses for its segments, minus the truncation-on-corruption
    recovery: a ledger is written whole at the end of a run, never
    appended to across crashes, so any bad line is a hard error rather
    than a torn tail.

    The first line of a file is a header payload (schema tag and
    run-level fields); the rest are records.  Writers are responsible
    for emitting records in a deterministic order — this module adds
    nothing placement-dependent, so a byte-identical payload sequence
    yields a byte-identical file. *)

val fnv1a64 : string -> int64
(** FNV-1a 64-bit hash of a string: the one copy in the tree.  It
    also computes [Core.Provenance.point_hash], [Core.Store]'s line
    checksums and [Wr_util.Fault]'s per-point stream seeds. *)

val hex64 : int64 -> string
(** 16 lowercase hex digits, zero-padded. *)

val line : string -> string
(** [line payload] is the checksummed ledger line for one payload,
    including the trailing newline.  The payload must be a valid JSON
    value; this module does not check. *)

val write : path:string -> header:string -> records:string list -> unit
(** Write a whole ledger file: the header payload line followed by one
    line per record payload, in the given order. *)

val load : string -> (string * string list, string) result
(** Read a ledger file back, verifying every line's shape and
    checksum.  Returns [(header_payload, record_payloads)] or a
    message naming the first offending line.  Unlike store recovery,
    corruption anywhere is an error: ledgers are immutable run
    artifacts, so a bad byte means the artifact is untrustworthy. *)
