(** The widening transform: unroll-and-pack a loop for a width-[y]
    datapath.

    Conceptually the loop is unrolled [y] times and the [y] copies of
    every compactable operation (see {!Compact}) are packed into one
    wide operation of [lanes = y]; the copies of every other operation
    stay scalar.  The transform builds the packed graph directly,
    without materializing the unrolled intermediate:

    {ul
    {- a compactable operation becomes one wide operation defining one
       wide virtual register (its [y] results share the register — the
       extra storage capacity the paper credits to widening);}
    {- a non-compactable operation becomes [y] scalar copies with [y]
       distinct virtual registers — each result occupies a full wide
       register, so no capacity is gained;}
    {- a dependence of distance [d] between original operations becomes
       edges between the copies [j -> (j + d) mod y] with distance
       [(j + d) / y], merged per node pair with the minimum (binding)
       distance;}
    {- stride-1 memory references widen to stride [y] (one wide access
       covers [y] consecutive words per wide iteration);}
    {- the trip count divides by [y] (rounded up).}}

    Width 1 returns the loop unchanged. *)

type stats = {
  width : int;
  original_ops : int;
  wide_ops : int;  (** operations in the transformed body *)
  compactable_ops : int;  (** original operations that packed *)
  scalar_copies : int;  (** scalar operations materialized by unrolling *)
}

val widen : Wr_ir.Loop.t -> width:int -> Wr_ir.Loop.t * stats
(** Raises [Invalid_argument] when [width < 1]. *)

val unroll : Wr_ir.Loop.t -> factor:int -> Wr_ir.Loop.t
(** Plain unrolling, no packing: every operation (scalar or wide) is
    copied [factor] times, memory references shift by one iteration's
    stride per copy, dependences map exactly as in {!widen}, and the
    trip count divides by [factor].  Replicated datapaths need this to
    initiate more than one source iteration per cycle (the modulo
    schedule is quantized at II >= 1); the study unrolls every loop by
    the bus count [X] after widening, so all configurations of equal
    [X*Y] process the same work per scheduled iteration. *)

val pp_stats : Format.formatter -> stats -> unit
