(** A modulo schedule: an initiation interval plus an issue time for
    every operation of the loop body.

    Times are absolute within the flat schedule of one iteration; the
    steady-state kernel issues operation [i] at slot [times.(i) mod ii]
    of stage [times.(i) / ii]. *)

type t = {
  ii : int;
  times : int array;  (** indexed by operation id *)
  cycle_model : Wr_machine.Cycle_model.t;
}

val make : ii:int -> times:int array -> cycle_model:Wr_machine.Cycle_model.t -> t

val stage_count : t -> int
(** Number of kernel stages (pipeline depth of the software pipeline):
    [1 + max times / ii]; 0 for an empty loop. *)

val stage : t -> int -> int

val span : t -> int
(** [max time - min time + 1]; 0 for an empty loop. *)

val validate :
  Wr_ir.Ddg.t -> Wr_machine.Resource.t -> t -> (unit, string) result
(** Full legality check, used by tests and assertions: every dependence
    satisfies [t(dst) >= t(src) + delay - II * distance] and no kernel
    slot over-subscribes a resource class (occupancy included). *)

val cycles : t -> trip_count:int -> int
(** Execution cycles attributed to the loop:
    [(trip_count - 1) * II + span] — the paper's steady-state [II]
    per iteration, plus the fill/drain span of the last iteration.
    Degenerate trips are exact rather than accidental: 0 trips (a loop
    widened past its trip count) cost 0 cycles, 1 trip costs the span
    of a single un-overlapped iteration.  Raises [Invalid_argument] on
    a negative trip count.  (The study drivers amortize prologue/
    epilogue away and charge [II * trip_count] inline, as the paper
    does; this accessor is the micro-architecturally honest count used
    by consumers that care about short trips.) *)

val pp : Format.formatter -> t -> unit

val kernel_view : Wr_ir.Ddg.t -> Wr_machine.Resource.t -> t -> string
(** A human-readable occupancy table of the steady-state kernel: one
    row per kernel slot, the operations issued there, and the bus/FPU
    usage against the machine's capacity. *)
