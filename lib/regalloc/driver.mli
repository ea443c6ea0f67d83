(** Register-constrained software pipelining: schedule, allocate, and
    iterate with spill code until the loop fits the register file
    (paper, Section 3.2: "when a loop requires more than the available
    number of registers, spill code is added and the loop is
    rescheduled"). *)

type success = {
  graph : Wr_ir.Ddg.t;  (** final body, including any spill code *)
  schedule : Wr_sched.Schedule.t;
  alloc : Alloc.t;
  spill_rounds : int;
  stores_added : int;
  loads_added : int;
  mii : int;  (** MII of the final graph *)
}

type outcome =
  | Scheduled of success
  | Unschedulable of string
      (** the register pressure cannot be brought under the file size —
          the paper hits this for 8w1 with a 32-register file *)

type policy =
  | Combined  (** try both levers, keep the faster loop (default) *)
  | Spill_only  (** MICRO-29 lever 1 only: add spill code *)
  | Escalate_only  (** MICRO-29 lever 2 only: increase the II *)

type memo
(** The first schedule-and-allocate probe (minimum II 1) on one input
    graph.  It depends on the graph, the resources, the cycle model and
    the backend, never on the register count, so the points of a
    register-file sweep can share one memo.  Not thread-safe. *)

val memo : unit -> memo
(** An empty memo. *)

val run :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  ?max_rounds:int ->
  ?policy:policy ->
  ?memo:memo ->
  Wr_ir.Ddg.t ->
  outcome
(** [registers] is the number of architectural registers available to
    loop variants.  [max_rounds] (default 16) bounds spill
    iterations.  [policy] selects which register-pressure levers the
    driver may pull (used by the ablation study).

    The first probe goes through [memo], and so does spill round 0,
    which repeats it; a fresh memo is made when none is passed.
    Escalation probes and probes on spilled graphs are not memoized.
    Pass one [memo] only to calls on the same graph, resources, cycle
    model and backend.  A reused probe replays its
    {!Wr_sched.Backend.tally} and draws the ["sched"] and ["alloc"]
    faults like a fresh one, so tallies, fault draws and outcomes are
    those of a run without a memo. *)
