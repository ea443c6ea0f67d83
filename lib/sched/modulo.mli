(** Iterative modulo scheduling (Rau, MICRO-27) with an HRMS-flavoured
    placement rule.

    For each candidate II starting at the MII, the scheduler repeatedly
    picks the highest-priority unscheduled operation (priority: nodes
    on the most critical recurrences first, then greater height — the
    Hypernode Reduction ordering principle of scheduling an operation
    next to its already-placed neighbours), computes its legal window
    from already-scheduled predecessors and successors, and places it:

    {ul
    {- with scheduled successors but no scheduled predecessors it is
       placed as late as possible (next to its consumers);}
    {- otherwise as early as possible (next to its producers) —
       both rules shorten lifetimes, which is what makes the heuristic
       register-pressure sensitive;}
    {- when no slot in the window has a free resource, it is {e forced}
       in, evicting the operations that conflict; evicted operations
       return to the work queue.  A budget bounds total placements; on
       exhaustion the scheduler retries with II + 1.}} *)

type result = {
  schedule : Schedule.t;
  mii : int;
  res_mii : int;
  rec_mii : int;
  placements : int;  (** total placement steps over all II attempts *)
  evictions : int;  (** operations evicted back to the queue, all attempts *)
}

val run :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  ?budget_ratio:int ->
  ?min_ii:int ->
  ?max_ii:int ->
  Wr_ir.Ddg.t ->
  result
(** Schedules the graph.  [budget_ratio] (default 8) bounds placements
    per II attempt at [budget_ratio * num_ops].  [min_ii] forces the
    search to start above the MII — the register-pressure reduction
    lever of Llosa's register-constrained heuristics (slowing the loop
    down shrinks the number of concurrently live iterations).  [max_ii] defaults to a
    generous bound (total resource occupancy plus total dependence
    delay) at which scheduling always succeeds; if even that fails,
    raises [Failure] (indicates a bug rather than an unschedulable
    input, since every graph accepted by {!Wr_ir.Ddg.create} has a
    valid schedule). *)

val empty_schedule : cycle_model:Wr_machine.Cycle_model.t -> Schedule.t
(** Schedule of the empty graph (II = 1). *)

val heights : cycle_model:Wr_machine.Cycle_model.t -> Wr_ir.Ddg.t -> ii:int -> int array
(** The scheduler's priority heights at a given II: the least fixpoint
    of [h(v) = max(0, max over out-edges (delay - II*distance + h(dst)))].
    Exposed for the tests that cross-check the flat-edge kernels against
    the reference list traversal. *)
