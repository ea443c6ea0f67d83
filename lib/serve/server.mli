(** The [widening-serve] daemon: concurrent design-space queries over a
    Unix or TCP socket, answered from the evaluation engine's caches
    and an optional persistent {!Core.Store}.

    {2 Architecture}

    One reader thread per connection parses line-delimited requests
    (see {!Protocol}) and admits them under a single lock; one
    dispatcher thread pops admitted work in batches and fans each batch
    onto the shared {!Wr_util.Pool}, so evaluation parallelism is the
    pool's, not the connection count's.  Replies are written by the
    evaluating task itself, under a per-connection write mutex.  An
    [eval] reply's [source] ([memo]/[store]/[fresh]) and [degraded]
    flag are those of the one {!Core.Evaluate.loop_cached} call that
    answered it.

    {2 Robustness invariants}

    {ul
    {- {b Bounded admission}: at most [queue_max] requests are
       outstanding (queued or evaluating).  A request beyond that is
       shed immediately with the explicit busy reply — memory stays
       bounded no matter the offered load.}
    {- {b Coalescing}: an [eval] request for the same point as one
       already in flight (equal {!Core.Evaluate.memo_key}: suite, loop
       index and machine point) attaches to it as a waiter (without
       consuming an admission slot) and receives the same answer,
       marked [coalesced]; duplicate traffic costs one evaluation.}
    {- {b Deadlines}: a request's [deadline_ms] (or the server-wide
       [request_budget_ms]) becomes a {!Wr_util.Deadline} budget
       installed inside the pool task; an overrun degrades that point
       through {!Core.Evaluate}'s quarantine path — the reply says
       [degraded], the server keeps running.}
    {- {b Quarantine, not crash}: any exception inside an evaluation
       is absorbed exactly as [Evaluate.loop_cached] absorbs it
       (strict mode excepted); an exception anywhere else in request
       handling produces an error reply on that request only.}
    {- {b Graceful drain}: SIGTERM, SIGINT, or a [shutdown] request
       stop admission (late requests get the busy reply), let in-flight
       work finish, and return — only then may the caller flush the
       ledger and close the store.}}

    {2 Warm starts}

    With a store attached ({!Core.Evaluate.attach_store}, which
    [widening-cli serve --store] does before {!run}), every clean
    evaluation is appended to the persistent store and every miss
    consults it, so a server killed
    with [SIGKILL] and restarted on the same directory (the stale lock
    is broken automatically) answers repeated queries byte-identically
    with zero re-evaluations; the store's recovery pass truncates any
    torn tail and quarantines corrupt segments first. *)

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  queue_max : int;  (** outstanding-request bound; excess is shed *)
  request_budget_ms : int option;  (** default per-request deadline *)
}

val default_queue_max : int
(** 64: deep enough to keep the pool fed, shallow enough that a shed
    reply arrives while retrying is still cheaper than waiting. *)

val run : config -> unit
(** Bind, serve until drained (signal or [shutdown] request), then
    clean up and return once every admitted request is answered.
    Serves through whatever store, ledger capture and telemetry the
    caller set up on {!Core.Evaluate}, {!Core.Provenance} and
    {!Wr_obs.Obs}.  Prints one [[serve]] line to stderr on start and
    one on drain.  Raises on bind failures — before any request was
    accepted, failing loudly is the right report. *)
