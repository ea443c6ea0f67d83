module Ddg = Wr_ir.Ddg
module Schedule = Wr_sched.Schedule
module Modulo = Wr_sched.Modulo
module Backend = Wr_sched.Backend
module Obs = Wr_obs.Obs

type success = {
  graph : Ddg.t;
  schedule : Schedule.t;
  alloc : Alloc.t;
  spill_rounds : int;
  stores_added : int;
  loads_added : int;
  mii : int;
}

type outcome = Scheduled of success | Unschedulable of string

type policy = Combined | Spill_only | Escalate_only

type probe = {
  result : Modulo.result;
  lifetimes : Lifetime.t list;
  alloc : Alloc.t;
  tally : Backend.tally;  (** the backend work that made [result] *)
}

(* The first probe (minimum II 1) on a run's input graph, once made. *)
type memo = probe option ref

let memo () : memo = ref None

(* One schedule-and-allocate probe.  The first probe on the input graph
   goes through [memo]: a hit replays the tally of the schedule it
   reuses, and a probe that raises is never stored.  The Fault.hit
   sites are inert unless WR_FAULT is configured and an evaluation
   context is in scope (see Wr_util.Fault); they draw once per probe,
   hit or miss, so the resilience tests see the same faults however
   probes are shared. *)
let probe ?memo resource ~cycle_model ~min_ii g =
  Wr_util.Fault.hit "sched";
  let hit = match memo with Some m -> !m | None -> None in
  let result, tally =
    match hit with
    | Some p -> (p.result, p.tally)
    | None -> Backend.with_tally (fun () -> Backend.run resource ~cycle_model ~min_ii g)
  in
  Backend.replay tally;
  Wr_util.Fault.hit "alloc";
  let p =
    match hit with
    | Some p -> p
    | None ->
        let lifetimes, alloc =
          Obs.span "alloc" (fun () ->
              let lifetimes = Lifetime.of_schedule g result.Modulo.schedule in
              (lifetimes, Alloc.allocate ~ii:result.Modulo.schedule.Schedule.ii lifetimes))
        in
        let p = { result; lifetimes; alloc; tally } in
        Option.iter (fun m -> m := Some p) memo;
        p
  in
  if Obs.enabled () then Obs.incr "driver/probes";
  p

(* Lever 1 (Llosa, MICRO-29): increase the II.  A slower loop overlaps
   fewer iterations, so the register requirement decreases
   monotonically (up to scheduler noise).  Binary-search the smallest
   II within [lo, cap] that fits; the cap encodes "the compiler gives
   up": a loop that cannot fit even 4x slower than its MII is declared
   unschedulable at this register file size (the paper's 8w1/32). *)
let escalate resource ~cycle_model ~registers ~lo ~cap g =
  Obs.span "driver/escalate" @@ fun () ->
  let fits_at ii =
    let p = probe resource ~cycle_model ~min_ii:ii g in
    if Alloc.fits p.alloc ~available:registers then Some (p.result, p.alloc) else None
  in
  match fits_at cap with
  | None -> None
  | Some best ->
      (* Binary-search window is [lo+1, cap]: the caller only reaches
         here after probing at lo (the MII-anchored first schedule) and
         finding it does not fit, so lo itself is known-failed and the
         smallest candidate worth probing is lo+1.  The probe at cap
         anchors the other end.  The search assumes fits_at is monotone
         in II (more slack, fewer overlapped lifetimes), and scheduler
         noise breaks that: a fit can be followed by a non-fit a few
         IIs higher.  The answer then fits but is not always the
         smallest fitting II, and a failed cap probe can hide a smaller
         fit (full suite, 32 registers: 71 larger answers and 36 failed
         caps).  ROADMAP.md's "II escalation must return the smallest
         II that fits" tracks the fix. *)
      let best = ref best in
      let lo = ref (lo + 1) and hi = ref cap in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        match fits_at mid with
        | Some r ->
            best := r;
            hi := mid
        | None -> lo := mid + 1
      done;
      Some !best

(* Lever 2: spill.  Store pressure-heavy values and reload them before
   use, rescheduling after every round; stop when the requirement
   plateaus.  Round 0 probes the input graph at minimum II 1, so it
   reuses the driver's first probe from [memo]; later rounds probe
   spilled graphs, which nothing shares. *)
let spill_loop memo resource ~cycle_model ~registers ~max_rounds g =
  Obs.span "driver/spill_loop" @@ fun () ->
  let spilled_ever = Hashtbl.create 16 in
  let reload_regs = Hashtbl.create 16 in
  let rec iterate g round stores loads prev_required stall =
    let memo = if round = 0 then Some memo else None in
    let { result; lifetimes; alloc; _ } = probe ?memo resource ~cycle_model ~min_ii:1 g in
    if Alloc.fits alloc ~available:registers then begin
      if Obs.enabled () then Obs.observe "spill/rounds_to_fit" round;
      Some (g, result, alloc, round, stores, loads)
    end
    else if round >= max_rounds then None
    else begin
      let stall = if alloc.Alloc.required >= prev_required then stall + 1 else 0 in
      if stall >= 2 then None
      else
        let already_spilled r = Hashtbl.mem spilled_ever r || Hashtbl.mem reload_regs r in
        let deficit = alloc.Alloc.required - registers in
        match
          Spill.choose ~ii:result.Modulo.schedule.Schedule.ii ~lifetimes ~already_spilled
            ~deficit
        with
        | None -> None
        | Some plan ->
            Wr_util.Fault.hit "spill";
            let spill = Spill.apply g ~vregs:plan.Spill.vregs in
            List.iter (fun r -> Hashtbl.replace spilled_ever r ()) plan.Spill.vregs;
            List.iter (fun r -> Hashtbl.replace reload_regs r ()) spill.Spill.reload_vregs;
            iterate spill.Spill.graph (round + 1)
              (stores + spill.Spill.stores_added)
              (loads + spill.Spill.loads_added)
              alloc.Alloc.required stall
    end
  in
  iterate g 0 0 0 max_int 0

let run resource ~cycle_model ~registers ?(max_rounds = 16) ?(policy = Combined) ?memo g =
  if registers <= 0 then invalid_arg "Driver.run: registers must be positive";
  let memo = match memo with Some m -> m | None -> ref None in
  let { result = result0; alloc = alloc0; _ } = probe ~memo resource ~cycle_model ~min_ii:1 g in
  if Alloc.fits alloc0 ~available:registers then
    Scheduled
      {
        graph = g;
        schedule = result0.Modulo.schedule;
        alloc = alloc0;
        spill_rounds = 0;
        stores_added = 0;
        loads_added = 0;
        mii = result0.Modulo.mii;
      }
  else begin
    let ii0 = result0.Modulo.schedule.Schedule.ii in
    let cap = 4 * Stdlib.max 1 result0.Modulo.mii in
    let escalated =
      if policy <> Spill_only && cap > ii0 then
        escalate resource ~cycle_model ~registers ~lo:ii0 ~cap g
      else None
    in
    (* When a tiny slowdown already fits, spilling cannot beat it. *)
    let cheap_escalation =
      match escalated with
      | Some (r, _) -> r.Modulo.schedule.Schedule.ii <= ii0 + Stdlib.max 1 (ii0 / 8)
      | None -> false
    in
    let spilled =
      if policy = Escalate_only || cheap_escalation then None
      else spill_loop memo resource ~cycle_model ~registers ~max_rounds g
    in
    match (escalated, spilled) with
    | Some (r, alloc), None ->
        Scheduled
          {
            graph = g;
            schedule = r.Modulo.schedule;
            alloc;
            spill_rounds = 0;
            stores_added = 0;
            loads_added = 0;
            mii = result0.Modulo.mii;
          }
    | None, Some (g', r, alloc, rounds, stores, loads) ->
        Scheduled
          {
            graph = g';
            schedule = r.Modulo.schedule;
            alloc;
            spill_rounds = rounds;
            stores_added = stores;
            loads_added = loads;
            mii = result0.Modulo.mii;
          }
    | Some (re, alloc_e), Some (g', rs, alloc_s, rounds, stores, loads) ->
        (* Both levers work: keep the faster loop. *)
        if rs.Modulo.schedule.Schedule.ii <= re.Modulo.schedule.Schedule.ii then
          Scheduled
            {
              graph = g';
              schedule = rs.Modulo.schedule;
              alloc = alloc_s;
              spill_rounds = rounds;
              stores_added = stores;
              loads_added = loads;
              mii = result0.Modulo.mii;
            }
        else
          Scheduled
            {
              graph = g;
              schedule = re.Modulo.schedule;
              alloc = alloc_e;
              spill_rounds = 0;
              stores_added = 0;
              loads_added = 0;
              mii = result0.Modulo.mii;
            }
    | None, None ->
        Unschedulable
          (Printf.sprintf
             "needs %d registers (available %d): spilling plateaued and II escalation to %d failed"
             alloc0.Alloc.required registers cap)
  end
