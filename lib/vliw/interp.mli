(** Reference interpreter: executes a loop's dependence graph
    sequentially, iteration by iteration, with full floating-point
    semantics.

    This is the functional oracle for the compiler stack: a transformed
    loop (widened, unrolled, spilled) must leave exactly the same
    memory image as the original when run for the corresponding number
    of iterations — [widen ~width:y] executes [y] source iterations per
    graph iteration, [Spill.apply] none the fewer.  Comparisons are
    exact (bit-level): the transforms never reassociate arithmetic, so
    even floating point must agree.

    Two engines implement one semantics:

    {ul
    {- the {e reference engine} ({!run_reference}) interprets the graph
       directly — per-operand allocation, a Hashtbl for memory — and is
       the semantic anchor;}
    {- the {e flat kernel} ({!compile} + {!run_plan}, what {!run} uses)
       lowers the graph once to a scalar micro-op tape over flat
       [int]/[float] arrays with per-array memory arenas, executes with
       no per-iteration allocation, and is differentially tested to be
       bit-identical to the reference (including the [loads]/[stores]/
       [flops] counters).}}

    Conventions that make the semantics transform-invariant:

    {ul
    {- {b memory}: word [addr >= 0] of array [a] initially holds a
       value derived from [(a, addr)] by hashing (in [\[1, 2)]); words
       at negative addresses hold the {e prehistory constant} 1.5 —
       pre-loop reads ([x(i-4)] during the first iterations) land there
       in the original and every transformed graph alike;}
    {- {b registers}: a value consumed from an iteration before the
       first holds the same prehistory constant (so recurrences start
       identically whether the value lives in a register or, after
       spilling, in an iteration-indexed slot at a negative address);}
    {- {b live-ins}: enumerated in first-use order (which the
       transforms preserve) and valued by hashing their position.}}

    [Fma] executes with [Float.fma] semantics (single rounding), in
    both engines and in the cycle-level simulator. *)

type memory_image = ((int * int) * float) list
(** Sorted [(array, address) -> value] association list of every word
    written. *)

type result = {
  memory : memory_image;
  loads : int;  (** scalar words read (a wide load of L lanes counts L) *)
  stores : int;  (** scalar words written *)
  flops : int;  (** scalar arithmetic operations executed *)
}

type plan
(** A loop compiled to the flat micro-op tape.  Iteration-count
    independent (memory arenas are sized per run), so one plan serves
    every {!run_plan} call; plans are immutable and safe to share
    across domains. *)

val compile : Wr_ir.Loop.t -> plan
(** One-time lowering: topological order, operand slot/distance tables,
    live-in values, circular-buffer layout, and per-lane memory
    coefficients, all resolved into dense arrays.  Raises
    [Invalid_argument] on graphs the transforms never produce (e.g. a
    lane selection out of the producer's range) — eagerly, where the
    reference engine would only raise once the offending operand is
    executed. *)

val run_plan : ?iterations:int -> plan -> result
(** Executes a compiled plan for [iterations] graph iterations
    (default: the source loop's trip count). *)

val run : ?iterations:int -> Wr_ir.Loop.t -> result
(** [compile] + [run_plan].  Executes the loop for [iterations] graph
    iterations (default: the loop's trip count).  Raises
    [Invalid_argument] if the graph uses an operand shape the
    transforms never produce.  [iterations = 0] returns the empty
    result without building any side table. *)

val run_reference : ?iterations:int -> Wr_ir.Loop.t -> result
(** The retained direct interpreter — the differential-testing anchor
    for the flat kernel. *)

val equal_memory : result -> result -> bool
(** Bit-exact comparison of the written memory images. *)

val diff_memory : result -> result -> ((int * int) * float option * float option) list
(** Locations whose contents differ (for test diagnostics): [(key,
    left, right)] with [None] when a side never wrote the location. *)

val arrays_of : Wr_ir.Loop.t -> int list
(** Distinct array ids referenced by the loop, ascending. *)

val restrict : result -> arrays:int list -> result
(** Drop memory locations outside the given arrays — used to compare a
    spilled loop (which also writes its spill slots) against the
    original on the program-visible arrays only.  Linear in the image
    size (sorted merge). *)

val prehistory : float
(** The pre-loop constant (1.5). *)

val initial_memory_value : int -> int -> float
(** Initial contents of a non-negative address (shared with the
    cycle-level simulator so their memory images are comparable). *)

val live_in_value : int -> float
(** Value of the k-th live-in in first-use order (shared with the
    simulator). *)
