(** Data dependence graph of an innermost loop body.

    Vertices are the operations of one iteration; edges are
    {!Dependence.t} values whose [distance] counts iterations.  The
    graph may contain cycles, but every cycle must have a strictly
    positive total distance — a zero-distance cycle has no valid
    execution order and is rejected by {!create}. *)

type t

val create : num_vregs:int -> ops:Operation.t array -> edges:Dependence.t list -> t
(** Builds and validates the graph.  Raises [Invalid_argument] when
    operation ids are not the dense range [0 .. n-1], when an edge
    endpoint or virtual register is out of range, when a flow edge's
    source does not define a register used by its destination, or when
    a zero-distance cycle exists. *)

val num_ops : t -> int
val num_vregs : t -> int
val op : t -> int -> Operation.t
val ops : t -> Operation.t array
(** The returned array must not be mutated. *)

val edges : t -> Dependence.t list

type edge_view = {
  n_edges : int;
  e_src : int array;  (** source op of edge [e] *)
  e_dst : int array;  (** destination op of edge [e] *)
  e_dist : int array;  (** iteration distance of edge [e] *)
  e_kind : Dependence.kind array;
  succ_off : int array;
      (** CSR row starts: the out-edges of op [v] are
          [succ_edges.(succ_off.(v)) .. succ_edges.(succ_off.(v+1) - 1)] *)
  succ_edges : int array;  (** edge ids grouped by source, ascending *)
  pred_off : int array;
  pred_edges : int array;  (** edge ids grouped by destination, ascending *)
}
(** Flat, cache-friendly mirror of {!edges}: parallel [int] arrays
    indexed by edge id (the edge's position in the {!edges} list) plus
    CSR adjacency in both directions.  The scheduler's inner loops
    (Bellman-Ford relaxations, dependence-window scans) iterate these
    arrays instead of chasing list links and record fields.  The arrays
    must not be mutated. *)

val edge_view : t -> edge_view
(** Precomputed at {!create}; O(1). *)

val edge_delays : t -> key:int -> producer_latency:(Operation.t -> int) -> int array
(** Per-edge dependence delays ({!Dependence.delay_rule} applied to the
    producing operation), as an array indexed by edge id.  Memoized on
    the graph under the caller-chosen [key] (the scheduler uses the
    cycle-model's cycle count), so repeated scheduling of one body pays
    for the latency lookups once.  [producer_latency] must be a pure
    function of the operation consistent with [key].  Thread-safe; the
    returned array must not be mutated. *)

val cached_rec_info : t -> key:int -> compute:(unit -> int * int array) -> int * int array
(** Generic per-graph memo slot for recurrence analysis keyed like
    {!edge_delays} (the scheduler stores [(RecMII, per-op component
    RecMII)] per cycle model).  [compute] runs outside the lock and
    must be deterministic; the first stored value wins.  Thread-safe. *)

val succs : t -> int -> Dependence.t list
(** Outgoing edges of an operation. *)

val preds : t -> int -> Dependence.t list
(** Incoming edges of an operation. *)

val def_site : t -> Operation.vreg -> int option
(** The operation defining a virtual register, if any ([None] for
    live-in values produced outside the loop). *)

val users : t -> Operation.vreg -> int list
(** Operations reading a virtual register, ascending ids; an operation
    using the register twice appears twice. *)

val count_class : t -> Opcode.resource_class -> int
(** Number of operations of a resource class (wide operations count
    once — they occupy one slot). *)

val scalar_count_class : t -> Opcode.resource_class -> int
(** Total scalar work of a resource class: wide operations count
    [lanes] times. *)

val scc : t -> Scc.result
(** Strongly connected components over all edges. *)

val recurrence_ops : t -> bool array
(** [recurrence_ops g] flags the operations that belong to some cycle
    (a component of size [> 1], or a self-edge). *)

val has_recurrence : t -> bool

type operand = {
  reg : Operation.vreg;  (** register read *)
  distance : int;  (** iterations since the value was produced *)
  producer : int option;  (** defining operation; [None] for live-ins *)
  lane : int option;  (** lane selection, from the operation's [lane_sel] *)
}
(** A fully described register input: operations store only the vreg
    list, so the per-operand dependence distance is reconstructed from
    the incoming flow edges (occurrences pair up with edges in sorted
    order when a register is read at several distances). *)

val operands : t -> int -> operand list
(** Operand descriptors of one operation, in [uses] order. *)

val pp : Format.formatter -> t -> unit
