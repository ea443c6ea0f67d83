(** Lifetimes of loop variants under a modulo schedule.

    Following the conventions of the register-pressure literature the
    paper builds on (Rau et al., PLDI-92; Llosa et al.), the lifetime
    of a loop variant starts when its producer issues (the register is
    reserved at issue so the in-flight result always has a home) and
    ends one cycle after its last consumer issues — a consumer reading
    the value [d] iterations later reads at [time(consumer) + d * II].
    Loop invariants (live-in values) are not loop variants and get no
    lifetime: the paper's {e wands-only} strategy allocates them
    outside the software-pipelined register demand. *)

type t = {
  vreg : int;
  def_op : int;
  start : int;  (** issue time of the producer *)
  stop : int;  (** exclusive: first cycle the register is free again *)
}

val length : t -> int

val of_schedule : Wr_ir.Ddg.t -> Wr_sched.Schedule.t -> t list
(** One lifetime per virtual register defined in the loop, in
    ascending [vreg] order.  A value never read lives until its result
    latency has elapsed (the write must still land). *)

val max_lives : ii:int -> t list -> int
(** MaxLives: the maximum number of simultaneously live values over the
    II kernel slots, counting each variant once per concurrently live
    iteration — the classic lower bound on the register requirement.
    Costs O(lifetimes + II): the whole-II wraps add one scalar and the
    residual arcs go through a difference array. *)

val pp : Format.formatter -> t -> unit
