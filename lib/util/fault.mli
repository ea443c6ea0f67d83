(** Deterministic fault injection for resilience testing.

    A fault spec names a pipeline {e site} (e.g. ["sched"], ["alloc"],
    ["spill"], ["widen"]), a per-hit probability, and a SplitMix64 seed;
    instrumented code calls {!hit} at each site and the spec decides —
    replayably — whether to raise {!Injected} (or spin for a configured
    delay) there.  Specs come from the [WR_FAULT] environment variable
    ([site:prob:seed], optionally [:delay=MS], comma-separated for
    several sites) or from {!configure}.  A malformed [WR_FAULT] value
    injects nothing, after a one-line warning on stderr.  It is the
    only setting the project reads from the environment.

    {2 Determinism}

    Decisions must not depend on pool size or task interleaving, so
    they are not drawn from one global stream.  Instead the evaluation
    engine brackets each (loop, machine point) evaluation with
    {!with_context}, and every site draws from a stream seeded by
    [(spec seed, context, site)] with a per-context draw counter kept
    in domain-local storage.  A given point therefore sees the same
    faults whether the study runs on 1 domain or 16 — and even when two
    domains race to evaluate the same memo key, both compute the same
    (possibly degraded) result.  Outside any context, {!hit} never
    fires: direct CLI scheduling, the fuzzer, and unit tests are
    unaffected by a stray [WR_FAULT].

    When no spec is configured, {!hit} is a single atomic load. *)

type action =
  | Raise  (** raise {!Injected} at the site *)
  | Delay_ms of int  (** spin for the given wall-clock milliseconds *)

type spec = { site : string; prob : float; seed : int64; action : action }

exception Injected of string
(** Argument is the site name.  Raised by {!hit}; the evaluation
    engine's supervision turns it into a quarantined, degraded point. *)

val parse : string -> (spec list, string) result
(** Parse a [WR_FAULT] value: comma-separated [site:prob:seed] or
    [site:prob:seed:delay=MS] specs ([prob] a float in [0,1]; [seed]
    accepts [0x] hex). *)

val configure : spec list -> unit
(** Replace the active specs (programmatic override of [WR_FAULT];
    [configure []] disables injection). *)

val active : unit -> bool
(** Whether any spec is configured (from [WR_FAULT] or {!configure}). *)

val specs : unit -> spec list

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context key f] runs [f] with a fresh per-site draw stream
    deterministically derived from [key]; restores the previous context
    (if any) on exit.  The key should uniquely name the unit of work,
    e.g. ["suite|index|config|registers|cycles"]. *)

val hit : string -> unit
(** Maybe inject at the named site: no-op unless a spec for the site is
    configured {e and} a {!with_context} is in scope. *)

val injected : unit -> int
(** Total injections performed since process start (both raises and
    delays), across all domains. *)
