(** Decision provenance: one structured record per evaluated point.

    Every point the evaluation engine settles — a (suite, loop index,
    config, registers, cycle model) coordinate — can emit one record
    saying {e what} was decided (II vs MII, cycles, spill traffic,
    pipelined or fallback) and {e how} (which backend, how the exact
    lane fared, whether the oracles checked it, whether it was
    quarantined and under what exception).  Records carry the content
    hash of the point's full input — the identity the persistent
    result store ({!Store}) keys on — and are written as a checksummed
    {!Wr_obs.Ledger} file.

    {2 Determinism}

    The ledger is byte-identical for any [--jobs]: records are
    buffered in memory as points complete (any order) and written
    sorted by (suite, index, config, registers, cycle model) when the
    run ends.  Wall time is the one field that breaks byte-identity,
    so it is off by default (opt in with [--ledger-wall]; the field is
    absent otherwise).  The [exact] backend's statuses are as
    deterministic as the heuristic's: its search is bounded by node
    counts, never by the clock.  A point's record describes its
    one-partition config ({!Evaluate.loop_cached}), so which partition
    count reached a memo entry first never shows.  A run resumed from
    a store emits records only for the points it actually evaluated —
    store hits are cache entries, not decisions of this run. *)

type exact = {
  solves : int;
  proved : int;
  unproved : int;
  fallback : int;
  nodes : int;
  iis_refuted : int;
}

type t = {
  hash : int64;  (** {!point_hash} of the full point input *)
  suite : string;
  index : int;
  loop : string;
  config : string;  (** [Config.label] *)
  registers : int;
  cycle_model : int;  (** cycle-model cycles *)
  ii : int;
  mii : int;
  cycles : float;
  pipelined : bool;
  spill_rounds : int;
  spill_stores : int;
  spill_loads : int;
  backend : string;  (** [Backend.to_string] of the active backend *)
  sched_runs : int;  (** scheduler requests the point made *)
  evictions : int;  (** scheduler evictions summed over those runs *)
  exact : exact;
  oracle : string;  (** ["verified"] or ["unverified"] *)
  quarantined : bool;
  tag : string;  (** printed exception when quarantined, else [""] *)
  wall_us : int option;  (** only under {!set_wall}; breaks byte-identity *)
}

val point_hash :
  suite_id:string ->
  index:int ->
  config:Wr_machine.Config.t ->
  registers:int ->
  cycle_model:Wr_machine.Cycle_model.t ->
  Wr_ir.Loop.t ->
  int64
(** FNV-1a 64 over a canonical rendering of the whole point input: a
    header ([wrpoint/1], suite id, loop index, config label, register
    count, cycle-model cycles) followed by the loop body
    ({!loop_body}: name, trip count, weight bits, every operation,
    every dependence edge).  Equal hashes imply the evaluation engine
    was handed the same problem, so cross-run joins survive
    reordering, suite growth, and renumbering of unrelated loops.  The
    converse does not hold: the label's register count need not be
    the effective [registers] (Fig. 7 passes [~registers:1_000_000]),
    and a partition count changes the label but not the problem.
    Equal to [point_hash_of_body ... (loop_body loop)]. *)

val loop_body : Wr_ir.Loop.t -> string
(** The body part of the rendering {!point_hash} hashes: one
    [loop=] line, then one line per operation and per edge.  It does
    not depend on the point, so a caller hashing many points of one
    loop renders it once. *)

val point_hash_of_body :
  suite_id:string ->
  index:int ->
  config:Wr_machine.Config.t ->
  registers:int ->
  cycle_model:Wr_machine.Cycle_model.t ->
  string ->
  int64
(** {!point_hash} given the loop's {!loop_body}: hashes the short
    header and continues the fold over the body
    ({!Wr_obs.Ledger.fnv1a64_fold}), so the hashed bytes, and every
    key, are exactly {!point_hash}'s. *)

(** {2 Capture} *)

val set_capture : bool -> unit
(** Master switch; off by default (the disabled mode costs the
    evaluation path one atomic load per point). *)

val capture_enabled : unit -> bool

val set_wall : bool -> unit
(** Include per-record wall time.  Off until set ([--ledger-wall] in
    the drivers); gives up byte-identity when on. *)

val wall_enabled : unit -> bool

val record : t -> unit
(** Buffer one record (thread-safe).  The caller is responsible for
    at-most-once per point per run — in the evaluation engine that is
    the cache's first-store-wins discipline. *)

val records : unit -> t list
(** Buffered records in ledger order (the deterministic sort). *)

val reset : unit -> unit

(** {2 Ledger files} *)

val schema : string
(** ["wr-ledger/1"], the header tag. *)

val write : string -> unit
(** Write the buffered records as a ledger file at the given path. *)

val load : string -> (t list, string) result
(** Read a ledger back, verifying every line checksum and the header
    tag; any corruption is an error. *)
