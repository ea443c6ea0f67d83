(** Wands-only register allocation with end-fit and adjacency ordering
    (Rau, Lee, Tirumalai & Schlansker, PLDI-92 — the paper's
    allocator).

    In a modulo-scheduled loop every lifetime recurs each II cycles, so
    a lifetime of length [L] consumes [L / II] whole registers plus —
    when [L mod II > 0] — an arc of length [L mod II] on the cyclic
    register-time ring of circumference II.  Allocation packs the
    residual arcs into registers:

    {ul
    {- {e adjacency ordering}: registers are filled one at a time, each
       seeded with the earliest-starting remaining arc (ties: shortest
       arc, then input order);}
    {- {e end-fit}: the register's chain then grows by the remaining
       arc whose start follows the chain's current end with the
       smallest forward gap and still fits in the ring space the
       register has left (ties: shortest arc, then input order).  When
       no arc fits, the next register opens with a new seed.}}

    Arcs are kept in buckets by start slot, shortest first, so a chain
    step scans the gaps forward from the chain's end and takes the
    first bucket whose shortest arc fits.  Each register then costs
    O(II), and an allocation O(n log n + registers × II) for [n]
    lifetimes.

    The achieved requirement is within a register or two of the
    MaxLives lower bound on real schedules, matching the behaviour the
    PLDI-92 paper reports.

    {b Precondition}: the lifetimes have distinct [vreg]s and
    [stop >= start], as [Lifetime.of_schedule] returns them. *)

type assignment = {
  vreg : int;
  register : int;  (** register index the residual arc lives in, or -1 if no residual *)
  whole_registers : int;  (** [length / II] full registers also consumed *)
}

type t = {
  required : int;  (** total registers needed by the loop variants *)
  max_lives : int;  (** the lower bound, for reporting *)
  assignments : assignment list;
  ii : int;
}

val allocate : ii:int -> Lifetime.t list -> t

val fits : t -> available:int -> bool

val pp : Format.formatter -> t -> unit
