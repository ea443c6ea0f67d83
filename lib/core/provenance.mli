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
    run ends.  Two fields can break byte-identity and are therefore
    off by default: wall time (opt in with [WR_LEDGER_WALL=1] or
    [--ledger-wall]; the field is absent otherwise) and the
    non-default [exact] backend, whose budget expiry depends on the
    wall clock (its statuses are documented as best-effort).  A run
    resumed from a store emits records only for the points it actually
    evaluated — store hits are cache entries, not decisions of this
    run. *)

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
(** FNV-1a 64 over a canonical rendering of the whole point input:
    suite id, loop index, config label, register count, cycle-model
    cycles, and the loop body itself (name, trip count, weight bits,
    every operation, every dependence edge).  Two points hash equal
    iff the evaluation engine would be handed the same problem, so
    cross-run joins survive reordering, suite growth, and renumbering
    of unrelated loops. *)

(** {2 Capture} *)

val set_capture : bool -> unit
(** Master switch; off by default (the disabled mode costs the
    evaluation path one atomic load per point). *)

val capture_enabled : unit -> bool

val set_wall : bool -> unit
(** Include per-record wall time.  Initialized from [WR_LEDGER_WALL];
    documents away byte-identity when on. *)

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
