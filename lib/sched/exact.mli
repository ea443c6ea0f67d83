(** Exact modulo scheduler: branch-and-bound search over the CSR edge
    view and the MRT, with the SMT-paper encoding (per-operation start
    times, pairwise dependence inequalities, modulo resource
    constraints) as the spec.

    Unlike the historical window search, [Infeasible] here is a
    {e proof}: component anchors range over [0, II-1], every other
    operation over its full transitive dependence window clamped to a
    completeness box of (n+1) * (max_delay + II) slots — large enough
    that a normalized solution must fall inside it whenever any
    solution exists (see the argument in [exact.ml]).  The price is
    that refutations can be expensive; the node budget turns "too
    expensive" into [Gave_up], which claims nothing. *)

type outcome = Feasible of Schedule.t | Infeasible | Gave_up

type status =
  | Proved_optimal
      (** The returned II is minimal: every II in [[MII, ii - 1]] was
          refuted (vacuously so when the heuristic already hit the
          MII). *)
  | Feasible_unproved
      (** A schedule strictly better than the heuristic's was found,
          but at least one lower II attempt ran out of budget, so
          optimality is not established. *)
  | Fallback
      (** The search budget expired before deciding anything beyond the
          heuristic result, which is returned unchanged — the
          documented timeout behaviour. *)

type t = {
  base : Modulo.result;  (** the heuristic run used as upper bound and fallback *)
  schedule : Schedule.t;  (** best known schedule (= [base]'s unless improved) *)
  ii : int;
  mii : int;
  status : status;
  nodes : int;  (** search nodes over all II attempts *)
  iis_refuted : int;  (** how many IIs below [ii] were proved infeasible *)
}

val at_ii :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  ii:int ->
  ?max_nodes:int ->
  ?scratch:int array array ->
  ?nodes_out:int ref ->
  Wr_ir.Ddg.t ->
  outcome
(** Search for a schedule at exactly the given II.  [max_nodes]
    (default 200_000) bounds backtracking nodes; exceeding it is
    [Gave_up].  [scratch], if given, is an at-least
    [n x n] matrix reused (and fully overwritten) for the all-pairs
    path bounds; [nodes_out] accumulates node counts across calls. *)

val min_ii :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  ?max_nodes:int ->
  Wr_ir.Ddg.t ->
  (int * Schedule.t) option
(** Smallest II (starting at the MII) at which {!at_ii} finds a
    schedule; [None] if every attempt up to a generous bound gave
    up.  From-scratch search, no heuristic involved: the tests use it
    to cross-check the heuristic's II on small loops. *)

val solve :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  ?max_nodes:int ->
  ?min_ii:int ->
  ?max_ii:int ->
  ?base:Modulo.result ->
  Wr_ir.Ddg.t ->
  t
(** Refinement driver: run (or reuse, via [base]) the heuristic, then
    decide the IIs in [[MII, heuristic II - 1]] bottom-up.  Refuting
    all of them proves the heuristic optimal; finding a schedule at one
    improves it.  [max_nodes] bounds each II attempt; when no lower II
    is found and some attempt gave up, the heuristic result comes back
    with [status = Fallback].  The result's II is never worse than the
    heuristic's.  [min_ii]/[max_ii] are forwarded to the heuristic run
    and [min_ii] also floors the exact search, so register-pressure
    II floors behave identically across backends. *)
