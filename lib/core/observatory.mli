(** The cross-run regression observatory: render one run's ledger as a
    dashboard, and join two ledgers by content hash to classify every
    divergence.

    The join key is {!Provenance.point_hash} — not file position — so
    two runs compare point-for-point even when suites grew, loops were
    renumbered, or the pool completed work in another order.  [diff]
    is what CI gates on: divergence classes are marked regression or
    benign, and the [bench diff] command exits 2 iff any regression
    survives. *)

type divergence = {
  d_class : string;
      (** [cycles_regression], [cycles_improvement], [ii_changed],
          [verdict_changed], [appeared], [vanished] *)
  d_regression : bool;
  d_point : string;  (** human-readable point coordinates *)
  d_detail : string;
}

val diff :
  ?threshold_pct:float -> Provenance.t list -> Provenance.t list -> divergence list
(** [diff old_records new_records]: joined by hash.  Cycles changes
    within [threshold_pct] percent (default 0: any change counts) are
    ignored; a cycles increase beyond it is a regression, a decrease an
    improvement.  An II increase, a lost pipelined flag, a lost
    [verified] verdict, a new quarantine, a weakened exact status, and
    a vanished point are regressions; the symmetric movements and
    appeared points are benign.  Deterministic order (ledger order of
    the new run, vanished points last in old-ledger order). *)

val has_regressions : divergence list -> bool

val render_diff : divergence list -> string
(** Classified divergences plus a summary line; ["no divergences\n"]
    when empty. *)

val report : Provenance.t list -> string
(** The per-run dashboard: per-suite/config stage table, II-over-MII
    histogram, backend and exact-status breakdown, top-N slowest (by
    wall time when recorded, else by cycles) and most-evicted
    points. *)

val diff_bench :
  Bench_schema.json -> Bench_schema.json -> (divergence list, string) result
(** Diff two [BENCH_gap.json] artifacts ([gap] is the one
    {!Bench_schema} kind; any other is an [Error]).  Rows join by
    (family, loop, config) and gap/II/status movements classify like
    ledger points.  The artifacts carry no timing, so no noise
    threshold applies. *)
