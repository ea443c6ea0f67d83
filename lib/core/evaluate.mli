(** Full-pipeline evaluation of loops on configurations: widen,
    modulo-schedule, allocate registers, spill/slow down and reschedule
    — the machinery behind the finite-register-file experiments
    (Figure 3 and Section 5).

    A loop whose register pressure cannot be contained even by spilling
    and by slowing the pipeline down is compiled {e without} software
    pipelining (iterations run back-to-back, no overlap, negligible
    register demand) — what a real compiler falls back to.  A
    configuration where such fallbacks carry more than a small share of
    the execution weight is reported as not schedulable, matching the
    paper's missing 8w1 32-register bar.

    Aggregates over a suite are memoized on
    [(suite, buses, width, registers, cycle model)] because the
    technology studies revisit the same operating points many times
    (partition variants share everything but the clock).

    {2 Concurrency}

    [suite_on] evaluates loops in parallel on a {!Wr_util.Pool} (the
    process-wide default unless [?pool] is given) and is itself safe to
    call from pool tasks, so study drivers may fan out over
    configurations while each configuration fans out over loops.  The
    memo table is guarded by a mutex: lookups and stores are short
    critical sections, the evaluation runs outside the lock, and two
    domains racing on one key merely duplicate a deterministic
    computation.  Results are bit-identical for any pool size because
    the per-loop results are reduced sequentially in input order. *)

type loop_result = {
  ii : int;  (** initiation interval, or the sequential span when not pipelined *)
  cycles : float;  (** weighted execution cycles *)
  required_regs : int;
  spill_stores : int;
  spill_loads : int;
  spill_rounds : int;  (** spill/reschedule iterations the driver took *)
  pipelined : bool;
  mii : int;  (** MII of the widened body (from the pre-spill graph) *)
  trip_count : int;  (** trip count of the widened loop *)
  degraded : bool;
      (** the unpipelined fallback {!loop_cached} substitutes for an
          evaluation that raised (see Supervision); {!loop_on} never
          returns one *)
}

val loop_on :
  ?policy:Wr_regalloc.Driver.policy ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t ->
  loop_result
(** Uncached full-pipeline evaluation of one loop; increments
    {!evaluations}.  [policy] (default [Combined]) picks the
    register-pressure levers the driver may pull; a loop it cannot
    pipeline is charged the unpipelined fallback.  A raised exception
    propagates: only {!loop_cached} quarantines. *)

(** How {!loop_cached} answered: from the loop memo, from the attached
    persistent store, or by running the pipeline. *)
type source = Memo | Store | Fresh

type answer = { result : loop_result; source : source }
(** [result.degraded] says whether the result is degraded, whichever
    call filled the memo entry. *)

type memo_key
(** The loop memo's key: [(suite_id, index, buses, width, registers,
    cycle model)].  Points with equal keys get the same {!loop_cached}
    answer, so the service coalesces duplicate requests on it. *)

val memo_key :
  suite_id:string ->
  index:int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  memo_key

val loop_cached :
  suite_id:string ->
  index:int ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t ->
  answer
(** The one lookup for a (loop, machine point): the loop memo first,
    keyed by {!memo_key}; on a miss the attached store; then a fresh
    supervised {!loop_on} run, whose result enters the memo.
    [suite_id] and [index] must uniquely name the loop passed.
    {!Provenance.point_hash} is computed at most once per call, and
    only on a memo miss with a store attached or ledger capture on; it
    keys both the store lookup/append and the provenance record.  The
    loop's {!Provenance.loop_body} is rendered once per
    [(suite_id, index)] per memo generation (until {!clear_cache}) and
    reused only for the physically same loop, so each point renders
    just its short header.  A miss names the entry after [config] with
    one partition — point hash, ledger record, quarantine record and
    fault-injection context alike — because partitions reach neither
    the resources nor {!memo_key}; the entry is then the same whichever
    partition count reached it first.
    Repeated calls with one key return the physically same [result];
    concurrent callers settle on the first stored result.  Thread-safe. *)

val evaluations : unit -> int
(** Number of times {!loop_on} actually ran the widen/schedule/allocate
    pipeline since process start (cache hits do not count) — a test
    hook for the caching discipline. *)

type cache_stats = { hits : int; misses : int }

val cache_stats : [ `Suite | `Loop | `Store ] -> cache_stats
(** Hit/miss counts per memo level ([`Suite]: whole-suite aggregates;
    [`Loop]: per-loop results; [`Store]: the attached persistent store,
    consulted on loop-cache misses).  Always counted, thread-safe, and
    reset by {!clear_cache} alongside the cached entries themselves
    (the store's on-disk contents survive, only the counters reset). *)

val set_verify : bool -> unit
(** Toggle verification mode: when on, every {!loop_on} result is
    re-derived by the independent {!Wr_check.Oracle} oracles (widening,
    schedule, allocation, spill semantics) and a broken invariant
    raises {!Wr_check.Oracle.Violation} with the loop and machine point
    named.  Off until set ([--verify] in the drivers). *)

val verify_enabled : unit -> bool

val verified_points : unit -> int
(** Number of (loop, machine point) results that passed all oracles
    since process start — a verified run can report "N points, zero
    violations". *)

(** {2 Supervision}

    A loop evaluation that raises (an injected fault, a latent
    scheduler bug) does not kill the study: by default the point
    degrades to the paper's "compiler gives up" unpipelined fallback —
    costed by pure arithmetic over the unwidened body, so the degrade
    path itself cannot fail — and a quarantine record is kept for the
    end-of-run report.  [Out_of_memory] is never absorbed.  Strict mode
    ([--strict] in the drivers) restores fail-fast.
    No wall-clock bound applies: every stage is bounded by work, so a
    slow evaluation is never degraded. *)

val set_strict : bool -> unit
(** Toggle fail-fast.  Off until set ([--strict] in the drivers). *)

type quarantine_record = {
  q_suite : string;
  q_index : int;  (** loop index within the suite *)
  q_loop : string;  (** loop name *)
  q_config : string;  (** [Config.label] of the machine point *)
  q_registers : int;
  q_cycle_model : int;  (** cycle-model cycles *)
  q_reason : string;  (** the exception, printed *)
  q_backtrace : string;  (** backtrace, when recording is enabled *)
}

val quarantined : unit -> quarantine_record list
(** Every degraded point since the last {!reset_quarantine}, in a
    stable (suite, index, config, registers, model) order regardless of
    pool completion order.  Thread-safe. *)

val quarantined_count : unit -> int

val reset_quarantine : unit -> unit

(** {2 Persistent store and resume}

    The content-addressed result store (see {!Store}) is consulted on
    every loop-cache miss and appended to (and fsynced) on every clean
    first-store-wins evaluation, so any process attached to the same
    store directory — a restarted server, a fresh sweep, or the re-run
    of a sweep that crashed — warm-starts with zero re-evaluations for
    points it has seen, and its output is byte-identical to an
    uninterrupted run (floats round-trip through their bit patterns).
    The key is {!Provenance.point_hash} under the default heuristic
    backend; any other backend mixes its name into the key, so a store
    shared across backends never answers a point with another
    backend's schedule.  (Entries an older build wrote under a
    non-default backend carry the bare point hash and are
    indistinguishable from heuristic ones; such a store must be
    deleted or rebuilt.)  Store hits become ordinary cache entries: they
    are not emitted as provenance records (they are not decisions of
    this run), and they are not re-verified under {!set_verify} (the
    entry was verified, if at all, by the run that evaluated it).
    Quarantined points are never stored; a later run retries them. *)

val attach_store : string -> Store.recovery
(** Open (creating if absent) a store directory, recover its segments,
    and serve/append through it until {!detach_store}.  Detaches any
    previously attached store first.  Raises {!Store.Locked} when
    another live process holds the store. *)

val detach_store : unit -> unit
(** Flush, close, release the store's lockfile, and stop consulting
    it.  No-op when none is attached. *)

val store_dir : unit -> string option
(** Directory of the attached store, if any. *)

val store_entries : unit -> int
(** Distinct entries in the attached store (0 when none). *)

val store_appended : unit -> int
(** Entries this process appended to the attached store. *)

type aggregate = {
  total_cycles : float;  (** weighted cycles over all loops *)
  loops : int;
  unpipelined : int;  (** loops that fell back to sequential iteration *)
  unpipelined_weight : float;  (** weight share of the fallbacks, in [0,1] *)
  spilled_loops : int;
  total_stores : int;
  total_loads : int;
}

val suite_on :
  ?pool:Wr_util.Pool.t ->
  suite_id:string ->
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  Wr_ir.Loop.t array ->
  aggregate
(** Memoized; [suite_id] must uniquely name the loop array passed.
    Evaluates loops in parallel on [pool] (default: the shared pool);
    deterministic for any pool size. *)

val acceptable : aggregate -> bool
(** Whether the configuration point counts as schedulable: fallbacks
    carry at most 10% of the execution weight. *)

val clear_cache : unit -> unit
(** Drops all memo levels: the suite aggregates, the per-loop results,
    the compiled interpreter plans and the rendered loop bodies, so the
    next pass renders each loop once, as a fresh process would.  Also
    resets {!cache_stats} for every counted level. *)
