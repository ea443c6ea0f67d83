(** HRMS-vs-optimal II gap study: the figure the paper could not cut.

    Every (family, loop, configuration) point is widened, scheduled by
    the heuristic, and then handed to the exact branch-and-bound
    backend ({!Wr_sched.Exact.solve}), which either proves the
    heuristic II optimal, improves on it, or times out.  By
    construction the gap [heuristic II - exact II] is never negative —
    the exact backend refines the heuristic result and falls back to it
    on budget expiry. *)

type row = {
  family : string;
  loop_name : string;
  index : int;
  config : Wr_machine.Config.t;
  ops : int;  (** operations in the widened graph actually scheduled *)
  mii : int;
  heur_ii : int;
  exact_ii : int;
  gap : int;  (** [heur_ii - exact_ii], always >= 0 *)
  status : Wr_sched.Exact.status;
  nodes : int;
  evictions : int;  (** heuristic scheduler evictions on this point *)
}

type t = {
  rows : row list;
  points : int;
  proved_optimal : int;
  improved : int;
  fallback : int;
  gap_total : int;
  max_gap : int;
  nodes_total : int;
}

val default_configs : Wr_machine.Config.t list
(** 2w1, 1w2, 4w1, 2w2, 1w4 — the mixes where the heuristic departs
    from the MII often enough to measure. *)

val status_string : Wr_sched.Exact.status -> string
(** Stable CSV/JSON names: [proved_optimal], [improved_unproved],
    [timeout]. *)

val run :
  ?configs:Wr_machine.Config.t list ->
  ?cycle_model:Wr_machine.Cycle_model.t ->
  ?max_nodes:int ->
  (string * Wr_ir.Loop.t array) list ->
  t
(** Evaluate every family x loop x config point on the pool
    (order-preserving, so the row order is deterministic for any
    [--jobs]).  [max_nodes] (default 200_000) bounds each II attempt of
    the exact search, and is the only bound, so the whole table, node
    counts included, is bit-identical for any pool size. *)

val to_text : t -> string
(** Per-(family, config) aggregate table plus the overall counts. *)
