(** Fixed-size domain pool for embarrassingly parallel evaluation.

    The study evaluates ~1000 loops on each point of a configuration
    grid; every (loop, configuration) pair is an independent
    schedule/allocate/spill run, so the natural execution model is a
    shared pool of OCaml 5 domains fed chunks of an input array.

    {2 Sizing}

    A pool holds [jobs - 1] worker domains; the domain that calls
    {!parallel_map} acts as the [jobs]-th worker while it waits, so a
    pool of size 1 spawns no domains at all and runs strictly
    sequentially.  The size is the explicit [~jobs] argument to
    {!create} (which drivers pass from [--jobs]), else
    [Domain.recommended_domain_count ()]; the environment plays no
    part.

    {2 Determinism}

    [parallel_map] preserves input order: the result array holds
    [f arr.(i)] at index [i] regardless of execution interleaving, so a
    caller that folds the result sequentially gets bit-identical output
    (including float summation order) for any pool size.

    {2 Nesting}

    A task may itself call {!parallel_map} on the same pool.  Waiters
    never block while the task queue is non-empty — they execute queued
    tasks themselves ("helping") — so nested maps cannot deadlock even
    on a pool of size 2.

    {2 Exceptions}

    If [f] raises on any item, every item is still attempted, the
    whole batch drains, and {!Batch_failure} is raised in the calling
    domain carrying {e all} failures with their input indices (sorted
    by index, so the report is identical for any pool size — the
    sequential [jobs = 1] path follows the same contract).  The pool
    itself is unaffected and stays usable for subsequent batches.

    {2 Telemetry}

    When {!Wr_obs.Obs} is enabled, every executed task is recorded as a
    [pool/task] span on the executing domain's lane, and each worker
    accumulates [pool/busy_ns] / [pool/idle_ns] / [pool/tasks_run]
    runtime metrics; [submit] samples [pool/queue_depth].  Disabled
    (the default), each hook is a single atomic-load branch. *)

type t

exception Batch_failure of (int * exn * Printexc.raw_backtrace) list
(** Raised by {!parallel_map} / {!parallel_list_map} when one or more
    applications of [f] raised: every failure in the batch, tagged with
    the index of the input item that caused it, sorted by index. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the size of a pool created
    without [~jobs]. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs - 1] worker domains (default {!default_jobs}).
    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : t -> int
(** The concurrency of the pool, including the calling domain. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Every task accepted by
    {!submit} before the shutdown still runs: workers drain the queue
    before exiting and [shutdown] itself executes any leftovers (a
    size-1 pool has no workers), so a [parallel_map] in flight
    completes with correct results. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue one task for the pool's workers.  Raises [Invalid_argument]
    if the pool is shutting down or already shut down — a submit can
    never be silently dropped. *)

val queue_depth : t -> int
(** Number of tasks currently queued and not yet picked up, sampled
    under the queue's own mutex — the same guard the busy/idle lanes
    use — so the reading is a consistent snapshot and never negative
    (a derived submitted-minus-run gauge can be, transiently, under
    work-helping).  This is the depth the service's [health] reply and
    [bench profile] report. *)

val default : unit -> t
(** The process-wide shared pool, created on first use. *)

val set_default_jobs : int -> unit
(** Replace the default pool with one of the given size.  The swap is
    safe against concurrent users of the old default: the old pool is
    shut down only after the new one is published, its accepted tasks
    all drain (see {!shutdown}), and any straggler submitting to it
    afterwards gets the explicit {!submit} error instead of a lost
    task.  Drivers call this once at startup for [--jobs N]. *)

val parallel_map : ?pool:t -> 'a array -> f:('a -> 'b) -> 'b array
(** Order-preserving chunked map over the pool ({!default} if [?pool]
    is omitted).  Sequential when the pool size is 1 or the input has
    fewer than 2 elements. *)

val parallel_list_map : ?pool:t -> 'a list -> f:('a -> 'b) -> 'b list
(** {!parallel_map} for lists (order preserved). *)
