(** Ablation studies for the design choices DESIGN.md calls out.

    These go beyond the paper's published artefacts: each isolates one
    modelling knob and shows how the headline results move with it —
    the sensitivity analysis a reviewer would ask for.

    {ul
    {- {b compactability}: Figure 2's widening series as a function of
       the workload's stride-1 fraction — the knob the 1wY saturation
       level stands on;}
    {- {b register-pressure levers}: the spill study rerun with only
       spilling, with only II escalation, and with both (the two
       MICRO-29 heuristics), showing how much each lever contributes;}
    {- {b rotating vs conventional register file}: the wands
       requirement (rotating file, the paper's PLDI-92 allocator)
       against modulo-variable-expansion on a conventional file, plus
       the kernel unrolling and code growth MVE costs — the hardware
       trade-off the paper's register file model abstracts away.}} *)

val compactability :
  ?stride1_probs:float list -> ?num_loops:int -> unit -> string
(** Regenerate mini-suites at several stride-1 fractions and report the
    x8 and x32 peak speed-ups of 8w1, 2w4 and 1w8. *)

val pressure_levers : Wr_ir.Loop.t array -> string
(** 4w2 and 8w1 at 32/64 registers under three driver policies:
    spill-only, escalate-only, combined — reporting speed-up and the
    fraction of loops that fail to pipeline.  A loop a policy cannot
    pipeline is charged its unpipelined fallback
    ({!Evaluate.loop_on} [~policy]). *)

val scheduler_orderings : Wr_ir.Loop.t array -> string
(** IMS height-priority vs SMS swing ordering: achieved II relative to
    the MII and the register requirement, per configuration — the
    scheduler-quality ablation. *)

val rotating_file : Wr_ir.Loop.t array -> string
(** Register requirements per configuration under three views: the
    wands pricing model (what the study's allocator charges), an actual
    rotating-file packing ({!Wr_vliw.Rotating}), and
    modulo-variable-expansion on a conventional file
    ({!Wr_vliw.Codegen}), with MVE's kernel unrolling factor. *)
