(** The run options shared by the bench harness and [widening-cli serve]:
    one Cmdliner term for the evaluation engine's process-wide knobs,
    and the {!start}/{!finish} pair every run wraps its work in.

    The path options are checked at parse time, so a bad path is a
    usage error (exit 1) before the run starts: [--store] must be a
    directory or a new one in an existing directory, and [--ledger],
    [--trace] and [--metrics] must be files in an existing directory.

    These flags are the only way to set the knobs: no environment
    variable stands in for any of them. *)

type t = {
  jobs : int option;  (** [--jobs/-j]: evaluation pool size *)
  store : string option;  (** [--store]; empty means none *)
  backend : Wr_sched.Backend.kind option;  (** [--backend] *)
  strict : bool;  (** [--strict]: fail fast instead of quarantining *)
  verify : bool;  (** [--verify]: check every point with the oracles *)
  ledger : string option;  (** [--ledger]: provenance ledger file *)
  ledger_wall : bool;  (** [--ledger-wall]: per-point wall times in the ledger *)
  trace : string option;  (** [--trace]: Chrome trace-event file *)
  metrics : string option;  (** [--metrics]: telemetry snapshot file *)
}

val positive : int Cmdliner.Arg.conv
(** Integers [>= 1]; anything else is a usage error. *)

val term : t Cmdliner.Term.t

val backend : Wr_sched.Backend.kind option Cmdliner.Term.t
(** [--backend] alone, for commands that take no other run option. *)

val sample : int option Cmdliner.Term.t
(** [-s/--sample N]: a deterministic N-loop subsample of the suite. *)

val suite : int option -> Wr_ir.Loop.t array * string
(** The loops {!sample} selects and their suite id ([full] or
    [sampleN]). *)

val start : out:out_channel -> t -> unit
(** Apply the options to the process-wide settings ({!Wr_util.Pool},
    {!Wr_sched.Backend}, {!Core.Evaluate}, {!Core.Provenance},
    {!Wr_obs.Obs}), attach the store and print its recovery line on
    [out].  Exits 2, after one line on stderr, when the store cannot be
    opened (another live process holds it, or the system refuses). *)

val finish : out:out_channel -> t -> unit
(** Print the [[verify]] line (verified runs only), write the trace,
    metrics and ledger files, print the store summary and detach the
    store. *)
