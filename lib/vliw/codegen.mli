(** VLIW code generation for a modulo-scheduled loop on a conventional
    (non-rotating) register file: modulo variable expansion (MVE) plus
    kernel unrolling.

    A value whose lifetime exceeds one initiation interval is alive in
    several concurrent iterations at once, so on a conventional
    register file each such value needs [ceil(L / II)] registers used
    round-robin, and the kernel must be unrolled so that every
    instance of the loop body names its registers statically.  We round
    each value's register count up to a power of two and unroll by the
    maximum, so every period divides the unroll degree (the classic
    engineering compromise: at most 2x the registers of an ideal
    rotating file, in exchange for simple code).

    This module is the conventional-file counterpart of
    {!Wr_regalloc.Alloc}, whose wands model prices a {e rotating}
    register file (the Cydra-5/PLDI-92 setting the paper's allocator
    comes from) — comparing the two is the rotating-file ablation in
    the bench harness. *)

type allocation = {
  unroll : int;  (** kernel unroll degree [U]; every period divides it *)
  base : int array;  (** vreg -> first physical register of its block *)
  period : int array;  (** vreg -> registers in its round-robin block *)
  live_in_base : int;  (** live-ins occupy [live_in_base ..] *)
  live_in_of : (int, int) Hashtbl.t;  (** live-in vreg -> physical register *)
  total_registers : int;  (** loop variants + live-ins *)
}

val allocate : Wr_ir.Ddg.t -> Wr_sched.Schedule.t -> allocation
(** MVE register assignment for the schedule. *)

val physical_of_instance : allocation -> vreg:int -> iteration:int -> int
(** The physical register holding the value of [vreg] produced at the
    given iteration (live-ins: their dedicated register, any
    iteration). *)

type counts = {
  prologue_words : int;
  kernel_words : int;  (** [unroll * II] *)
  epilogue_words : int;
  nop_slots : int;  (** empty issue slots across the whole program *)
  filled_slots : int;
}

val word_counts :
  Wr_ir.Ddg.t -> Wr_sched.Schedule.t -> allocation -> Wr_machine.Config.t -> counts
(** Static code accounting including pipeline fill and drain — the
    overhead Figure 7's kernel-only model ignores. *)

val emit :
  Wr_ir.Ddg.t ->
  Wr_sched.Schedule.t ->
  allocation ->
  Wr_machine.Config.t ->
  string
(** Human-readable assembly listing of the unrolled steady-state
    kernel, one line per instruction word, slots separated by [ || ]. *)
