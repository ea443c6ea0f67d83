(** Persistent content-addressed result store: the crash-safe cache
    behind resumed and warm-started studies and the query service.

    Entries are keyed by {!Provenance.point_hash} — the FNV-1a content
    hash of a point's full input — with the scheduler backend mixed in
    for non-default backends ({!Evaluate.attach_store}).  Any process
    pointed at the same directory ([--store], or the daemon's store)
    answers a point it has seen before without re-running the
    scheduler, whether the earlier writer was a batch sweep, a CLI
    run, or a process that was [kill -9]ed mid-stream — so re-running
    an interrupted sweep on its store is how it resumes.

    {2 On-disk format}

    A store is a directory of append-only segments
    ([seg-NNNNNN.wrs]) plus a single-writer pid lockfile ([LOCK], see
    {!Wr_util.Lockfile}).  Each segment begins with the version header
    [wrstore/1] followed by one self-checking text line per entry
    (payload plus its FNV-1a checksum); segments rotate after
    [segment_records] entries so damage is compartmentalized.

    {2 Recovery}

    {!open_dir} trusts nothing: a segment with a missing or stale
    version header is quarantined whole (renamed to
    [*.quarantined]); a checksum failure in the {e newest} segment is
    a torn tail and is truncated away; a checksum failure inside a
    sealed segment parks the damaged original and keeps its intact
    prefix.  Recovery never deletes bytes that might be evidence and
    never aborts the open — the surviving entries are served and the
    rest simply re-evaluate.  Duplicate hashes resolve first-segment
    wins, mirroring the in-memory caches' first-store-wins.

    {2 Determinism}

    Append order depends on pool completion order, so raw segment
    bytes differ between runs; {!compact} rewrites the store as a
    single segment sorted by hash and deduplicated, after which two
    stores holding the same entries are byte-identical regardless of
    the [--jobs] (or traffic interleaving) that produced them.

    {2 Collisions}

    Two distinct points with equal 64-bit hashes would alias: one
    would be answered with the other's result.  With FNV-1a 64 over
    the canonical point rendering the chance is negligible at any
    realistic store size (about 6e-11 for the ~45k points of a
    full-suite fig3 sweep, by the birthday bound). *)

type entry = {
  hash : int64;
      (** The store key: {!Provenance.point_hash} of the point's full
          input under the heuristic backend, with the backend name mixed
          in under any other ({!Evaluate.attach_store}) *)
  ii : int;
  cycles_bits : int64;  (** [Int64.bits_of_float] of the weighted cycles *)
  required_regs : int;
  spill_stores : int;
  spill_loads : int;
  spill_rounds : int;
  pipelined : bool;
  mii : int;
  trip_count : int;
}

type recovery = {
  segments : int;  (** live segments after recovery *)
  entries : int;  (** distinct entries loaded *)
  quarantined_segments : int;  (** segments parked (whole or rewritten to their prefix) *)
  truncated_bytes : int;  (** torn tail dropped from the newest segment *)
}

type t

exception Locked of string
(** Raised by {!open_dir} when another live process holds the store's
    lockfile; the message names the directory and the owning pid. *)

val version_tag : string
(** ["wrstore/1"], the segment header. *)

val open_dir : ?segment_records:int -> string -> t * recovery
(** Open (creating if absent) the store directory, take its lockfile,
    recover every segment as described above, and position the newest
    for appending.  [segment_records] (default 4096) bounds entries per
    segment.  Raises {!Locked} on a live second writer; stale locks
    from dead processes are broken silently. *)

val find : t -> int64 -> entry option
(** Constant-time lookup by content hash.  Thread-safe. *)

val add : t -> entry -> unit
(** Append one entry; a hash already present is ignored (first wins).
    Buffered, and fsynced every 64 entries or on {!flush}/{!close}.
    Thread-safe; raises [Invalid_argument] if the store is closed. *)

val length : t -> int
(** Distinct entries currently held (loaded + appended). *)

val appended : t -> int
(** Entries appended by this handle since {!open_dir} — the
    new-results counter the drivers report. *)

val flush : t -> unit
(** Write out and fsync buffered entries. *)

val compact : t -> unit
(** Rewrite the store as one segment, sorted by hash and deduplicated
    (see Determinism above).  Crash-safe: the replacement is fully
    written and renamed into place before old segments are removed. *)

val close : t -> unit
(** Flush, close, and release the lockfile.  Idempotent. *)

val dir : t -> string
