module Resource = Wr_machine.Resource
module Cycle_model = Wr_machine.Cycle_model
module Ddg = Wr_ir.Ddg

type kind = Heuristic | Exact

let to_string = function Heuristic -> "heuristic" | Exact -> "exact"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heuristic" | "hrms" -> Some Heuristic
  | "exact" | "bnb" -> Some Exact
  | _ -> None

(* Selection is process-global (studies fan points out over the pool;
   a per-call parameter would have to thread through every driver) and
   atomic so a CLI race with worker domains reads a whole value. *)
let current_kind : kind Atomic.t = Atomic.make Heuristic

let set k = Atomic.set current_kind k
let current () = Atomic.get current_kind

(* --- per-point tally ---------------------------------------------------- *)

type tally = {
  mutable runs : int;
  mutable evictions : int;
  mutable solves : int;
  mutable proved : int;
  mutable unproved : int;
  mutable fallback : int;
  mutable nodes : int;
  mutable iis_refuted : int;
}

let empty_tally () =
  {
    runs = 0;
    evictions = 0;
    solves = 0;
    proved = 0;
    unproved = 0;
    fallback = 0;
    nodes = 0;
    iis_refuted = 0;
  }

(* The tally is domain-local (a point's whole pipeline — probes,
   escalation, spill rescheduling — runs on one domain), with a
   process-wide active count so the disabled mode pays one atomic load
   per [run].  Save/restore makes nesting safe: an inner tally never
   leaks into the enclosing one. *)
let active_tallies = Atomic.make 0

let tally_slot : tally option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let with_tally f =
  let t = empty_tally () in
  let slot = Domain.DLS.get tally_slot in
  let saved = !slot in
  slot := Some t;
  Atomic.incr active_tallies;
  let restore () =
    Atomic.decr active_tallies;
    slot := saved
  in
  match f () with
  | v ->
      restore ();
      (v, t)
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      restore ();
      Printexc.raise_with_backtrace e bt

let note f =
  if Atomic.get active_tallies > 0 then
    match !(Domain.DLS.get tally_slot) with Some t -> f t | None -> ()

(* A reused result adds the work that made it, so a point's tally
   reads as if it had scheduled everything itself. *)
let replay (r : tally) =
  note (fun t ->
      t.runs <- t.runs + r.runs;
      t.evictions <- t.evictions + r.evictions;
      t.solves <- t.solves + r.solves;
      t.proved <- t.proved + r.proved;
      t.unproved <- t.unproved + r.unproved;
      t.fallback <- t.fallback + r.fallback;
      t.nodes <- t.nodes + r.nodes;
      t.iis_refuted <- t.iis_refuted + r.iis_refuted)

let note_sched t (r : Modulo.result) =
  t.runs <- t.runs + 1;
  t.evictions <- t.evictions + r.Modulo.evictions

let note_exact t (r : Exact.t) =
  t.solves <- t.solves + 1;
  (match r.Exact.status with
  | Exact.Proved_optimal -> t.proved <- t.proved + 1
  | Exact.Feasible_unproved -> t.unproved <- t.unproved + 1
  | Exact.Fallback -> t.fallback <- t.fallback + 1);
  t.nodes <- t.nodes + r.Exact.nodes;
  t.iis_refuted <- t.iis_refuted + r.Exact.iis_refuted

(* Exact-lane node budget per II attempt when the exact backend runs
   inside the study pipeline (the gap study passes its own): small
   enough that a pathological refutation cannot stall a point, large
   enough to catch the common one-II improvements.  Nodes, not wall
   time, so exact results do not depend on machine speed. *)
let exact_max_nodes = 50_000

let refined (r : Exact.t) : Modulo.result =
  { r.base with Modulo.schedule = r.schedule }

let run resource ~cycle_model ?budget_ratio ?min_ii ?max_ii g =
  match Atomic.get current_kind with
  | Heuristic ->
      (* The default: a verbatim heuristic call, so every study CSV is
         byte-identical to the pre-seam pipeline. *)
      let r = Modulo.run resource ~cycle_model ?budget_ratio ?min_ii ?max_ii g in
      note (fun t -> note_sched t r);
      r
  | Exact ->
      let base = Modulo.run resource ~cycle_model ?budget_ratio ?min_ii ?max_ii g in
      let e =
        Exact.solve resource ~cycle_model ~max_nodes:exact_max_nodes ?min_ii ?max_ii ~base g
      in
      note (fun t ->
          note_sched t base;
          note_exact t e);
      refined e
