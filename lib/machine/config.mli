(** VLIW datapath configurations.

    The paper's design space is spanned by configurations [XwY(Z:n)]:
    [X] buses and [2X] general-purpose FPUs, all of width [Y] (each
    resource processes [Y] 64-bit words per operation), a register file
    of [Z] registers each [Y] words wide, implemented as [n] identical
    copies (partitions).  The 2-FPUs-per-bus ratio follows the paper's
    balance study (and the MIPS R10000 issue mix); {!make} also accepts
    arbitrary bus/FPU counts for off-grid exploration. *)

type t = private {
  buses : int;  (** number of memory ports, [X] *)
  fpus : int;  (** number of floating-point units, [2X] on the paper grid *)
  width : int;  (** resource width in 64-bit words, [Y] *)
  registers : int;  (** registers in the file, [Z]; each [Y] words wide *)
  partitions : int;  (** identical RF copies, [n] *)
}

val make :
  buses:int -> fpus:int -> width:int -> registers:int -> ?partitions:int -> unit -> t
(** General constructor.  Raises [Invalid_argument] unless all counts
    are positive, [partitions] divides both [buses] and [fpus], and
    [partitions <= buses]. *)

val xwy : ?registers:int -> ?partitions:int -> x:int -> y:int -> unit -> t
(** Paper-grid constructor: [x] buses, [2x] FPUs, width [y].
    [registers] defaults to 256 (the largest file studied),
    [partitions] to 1. *)

val factor : t -> int
(** [buses * width]: the configuration's peak-capability scaling
    factor.  All [XwY] with equal [X*Y] can issue the same number of
    scalar memory accesses (and FPU operations) per cycle in the best
    case. *)

val read_ports : t -> int
(** Register-file read ports: 2 per FPU plus 1 per bus. *)

val write_ports : t -> int
(** Register-file write ports: 1 per FPU plus 1 per bus. *)

val read_ports_per_partition : t -> int
(** With [n] partitions, the buses and FPUs are split into [n] groups,
    each reading one copy, so each copy carries [read_ports / n] read
    ports. *)

val write_ports_per_partition : t -> int
(** Every unit writes all copies to keep them coherent, so each copy
    carries all [write_ports] write ports. *)

val bits_per_register : t -> int
(** [64 * width]. *)

val label : t -> string
(** ["4w2(128:2)"]; partition suffix omitted when [n = 1] and register
    suffix omitted when the register count is the 256 default — the
    short form used in the paper's figures is [label_short]. *)

val label_short : t -> string
(** ["4w2"] — buses and width only. *)

val parse : string -> (t, string) result
(** Parses ["XwY"], ["XwY(Z)"] and ["XwY(Z:n)"]. *)

val valid_partitions : t -> int list
(** The partition counts applicable to this configuration (divisors of
    [buses] that also divide [fpus]), ascending. *)

val paper_grid : max_factor:int -> registers:int list -> t list
(** All power-of-two [XwY] configurations with [X*Y <= max_factor],
    crossed with the given register file sizes, partitions = 1.
    Ordered by factor, then by descending [X] (the paper's
    presentation order: 2w1, 1w2, 4w1, 2w2, 1w4, ...). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
