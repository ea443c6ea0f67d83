(** Analytic ILP limits under perfect scheduling (paper, Section 3.1).

    Figure 2 assumes a perfect schedule, perfect memory and an infinite
    register file, so a loop's steady-state cost on a configuration is
    the larger of two {e rates} (cycles per source iteration):

    {ul
    {- the recurrence rate — the critical cycle ratio of the dependence
       graph, independent of resources;}
    {- the resource rate — total slot occupancy per iteration divided
       by slots per cycle, where a compactable operation on a width-[Y]
       machine needs only [1/Y] of a slot.}}

    Computing the rates directly (instead of materializing the widened
    and unrolled graph) makes the 128-wide corner of the design space
    tractable.

    A loop's recurrence rate and its compactable operations do not
    depend on the configuration, so a study over a grid computes them
    once per loop with {!analyze} and prices every configuration from
    that {!analysis}.  No state outlives the analysis, so every
    function here is pure and safe to call from {!Wr_util.Pool}
    tasks. *)

type t = {
  rec_rate : float;
  bus_rate : float;
  fpu_rate : float;
  cycles_per_iteration : float;  (** max of the three; never below a hair above 0 *)
}

val of_loop :
  Wr_machine.Config.t -> cycle_model:Wr_machine.Cycle_model.t -> Wr_ir.Loop.t -> t

type analysis
(** One loop's configuration-independent analyses under one cycle
    model: its recurrence rate, and its compactable operations at each
    of a list of widths. *)

val analyze :
  cycle_model:Wr_machine.Cycle_model.t -> widths:int list -> Wr_ir.Loop.t -> analysis

val loop_cycles : Wr_machine.Config.t -> analysis -> float
(** [cycles_per_iteration * trip_count * weight] — the loop's weighted
    contribution to total execution cycles on the configuration, whose
    width must be one the analysis covers ([Not_found] otherwise). *)
