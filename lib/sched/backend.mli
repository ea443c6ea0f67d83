(** Scheduler backend seam.

    Every pipeline consumer (the register-allocation driver, the
    unschedulable fallback in [Core.Evaluate], the CLI schedule
    command) requests schedules through {!run} instead of calling
    {!Modulo.run} directly, so the scheduler implementation is
    swappable per process:

    {ul
    {- [Heuristic] (default) — the HRMS-flavoured iterative modulo
       scheduler, a verbatim {!Modulo.run} call: study output is
       byte-identical to the pre-seam pipeline;}
    {- [Exact] — heuristic first, then {!Exact.solve} refines it or
       proves it optimal within a node budget, falling back to the
       heuristic result on expiry.}}

    Selection: {!set}, wired to [--backend] in the CLIs; the default is
    [Heuristic]. *)

type kind = Heuristic | Exact

val to_string : kind -> string

val of_string : string -> kind option
(** Accepts the canonical names plus the [hrms]/[bnb] aliases,
    case-insensitively. *)

val set : kind -> unit
val current : unit -> kind

(** {1 Per-point tally}

    Provenance capture needs per-point backend statistics (how many
    schedule requests a point made, how the exact lane fared), and the
    dependency arrow points from [Core] to this library — so the
    accumulator lives here.  {!with_tally} installs a domain-local
    tally for the dynamic extent of one point's evaluation; every
    {!run} in that extent adds to it.  Nesting is safe (save/restore),
    and the disabled mode costs {!run} one atomic load. *)

type tally = {
  mutable runs : int;  (** {!run} calls *)
  mutable evictions : int;  (** scheduler evictions summed over runs *)
  mutable solves : int;  (** exact-lane solves *)
  mutable proved : int;  (** ... that proved the heuristic optimal *)
  mutable unproved : int;  (** ... that improved without a proof *)
  mutable fallback : int;  (** ... that expired their budget *)
  mutable nodes : int;  (** exact search nodes summed over solves *)
  mutable iis_refuted : int;  (** IIs refuted below the heuristic's *)
}

val empty_tally : unit -> tally
(** An all-zero tally (also what an untallied context would report). *)

val with_tally : (unit -> 'a) -> 'a * tally
(** [with_tally f] runs [f] with a fresh tally installed on the
    calling domain and returns [f]'s result alongside the filled
    tally. *)

val run :
  Wr_machine.Resource.t ->
  cycle_model:Wr_machine.Cycle_model.t ->
  ?budget_ratio:int ->
  ?min_ii:int ->
  ?max_ii:int ->
  ?ordering:[ `Ims | `Sms ] ->
  Wr_ir.Ddg.t ->
  Modulo.result
(** Schedule through the selected backend.  The signature (and with
    the default backend, the behaviour) is exactly {!Modulo.run}'s;
    non-default backends only ever substitute a schedule with an II no
    worse than the heuristic's, so downstream II-monotonicity
    assumptions hold for every backend. *)
