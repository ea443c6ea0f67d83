(** Independent invariant verification of the compilation pipeline.

    Every stage of the pipeline — widening, modulo scheduling, register
    allocation, spilling — maintains invariants that the implementation
    enforces by construction through carefully optimized data
    structures (flat edge arrays, O(occupancy) reservation tables,
    end-fit arc chains).  This module re-derives each invariant from
    first principles, deliberately {e not} sharing those structures:

    {ul
    {- {!check_schedule} walks the plain dependence {e list} (never the
       scheduler's flat {!Wr_ir.Ddg.edge_view}) and rebuilds resource
       usage with a naive O(II)-per-operation reservation table;}
    {- {!check_alloc} re-derives lifetimes, replays every residual arc
       onto an explicit II-slot ring per physical register (wraparound
       included), and re-counts the register requirement;}
    {- {!check_widening} re-runs the compactability analysis and
       compares the widened loop against the original under the
       {!Wr_vliw.Interp} reference interpreter;}
    {- {!check_spill} runs the interpreter on the pre- and post-spill
       graphs and demands bit-identical program-visible memory.}}

    An empty violation list certifies the result against these oracles;
    a non-empty one describes every broken invariant found.  The
    oracles favour clarity over speed — they exist to catch the
    optimized paths lying. *)

type violation = {
  oracle : string;  (** which oracle fired, e.g. ["schedule.dependence"] *)
  detail : string;  (** human-readable description of the broken invariant *)
}

val to_string : violation list -> string
(** One line per violation. *)

exception Violation of string
(** Raised by {!fail_if_any}; the payload names the context and lists
    every violation. *)

val fail_if_any : context:string -> violation list -> unit
(** No-op on an empty list; raises {!Violation} otherwise. *)

val check_schedule :
  Wr_ir.Ddg.t -> Wr_machine.Resource.t -> Wr_sched.Schedule.t -> violation list
(** Schedule oracle.  Re-checks [time(dst) >= time(src) + delay -
    II * distance] for every edge of {!Wr_ir.Ddg.edges} and re-derives
    per-slot resource usage by walking each operation's occupancy one
    modulo slot at a time into a fresh per-class table, comparing
    against the configuration's slot counts. *)

val check_alloc :
  Wr_ir.Ddg.t ->
  Wr_sched.Schedule.t ->
  Wr_regalloc.Alloc.t ->
  available:int option ->
  violation list
(** Regalloc oracle.  Recomputes the lifetimes, then checks that the
    assignment covers exactly the defined vregs, that whole-register
    counts match each lifetime's length, that no two residual arcs
    sharing a physical register overlap anywhere on the II-slot ring
    (wraparound included), that the reported requirement equals whole
    registers plus distinct arc registers and is at least MaxLives,
    and — when [available] is given — that MaxLives and the requirement
    fit the file. *)

val check_widening :
  ?original_plan:Wr_vliw.Interp.plan ->
  ?widened_plan:Wr_vliw.Interp.plan ->
  original:Wr_ir.Loop.t ->
  widened:Wr_ir.Loop.t ->
  width:int ->
  unit ->
  violation list
(** Widening oracle.  Re-runs {!Wr_widen.Compact.analyze} on the
    original body and checks the widened graph against it: exactly one
    wide operation per compactable original (with [lanes = width] and,
    for memory, stride widened to [width]), [width] scalar copies of
    everything else, no wide operation on a recurrence (the witness
    that its lanes are pairwise independent), trip count divided by
    [width] — and bit-identical memory plus equal scalar work under the
    reference interpreter ([k * width] source iterations against [k]
    wide ones).  [original_plan]/[widened_plan] are optional
    pre-compiled interpreter plans for the two loops (see
    {!Wr_vliw.Interp.compile}); callers that verify one loop at many
    machine points pass cached plans so compilation is paid once. *)

val check_spill :
  ?pre_plan:Wr_vliw.Interp.plan ->
  pre:Wr_ir.Loop.t ->
  post:Wr_ir.Ddg.t ->
  ?iterations:int ->
  unit ->
  violation list
(** Spill/semantics oracle.  Interprets the pre-spill loop and the
    post-spill graph for [iterations] (default 8) iterations and
    compares the memory images restricted to the program-visible
    arrays of [pre] (the spill slot arrays are invisible).  [pre_plan]
    is an optional pre-compiled plan for [pre]; the post-spill graph is
    unique to the machine point and always compiled fresh. *)

val check_driver :
  ?pre_plan:Wr_vliw.Interp.plan ->
  Wr_machine.Resource.t ->
  registers:int ->
  pre:Wr_ir.Loop.t ->
  Wr_regalloc.Driver.outcome ->
  violation list
(** Composite oracle over a register-constrained scheduling outcome:
    {!check_schedule} and {!check_alloc} on the final
    graph/schedule/allocation trio, plus {!check_spill} against [pre]
    (the widened loop handed to the driver) whenever spill code was
    inserted.  An [Unschedulable] outcome has nothing to verify. *)

type point_report = {
  violations : violation list;
  schedulable : bool;  (** the driver produced a schedule *)
  spilled : bool;  (** spill code was inserted *)
  ii : int option;  (** final initiation interval when schedulable *)
}

val check_point :
  Wr_machine.Config.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  registers:int ->
  ?policy:Wr_regalloc.Driver.policy ->
  Wr_ir.Loop.t ->
  point_report
(** Full-pipeline check of one (loop, machine point): widen for the
    configuration's width under {!check_widening}, run the
    register-constrained driver (under [policy], default [Combined]),
    verify the outcome with {!check_driver}.  The fuzzer forces
    [Spill_only] on some cases so the spill oracle sees real spill
    code, not just the escalation path. *)
