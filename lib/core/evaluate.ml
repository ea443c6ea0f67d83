module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop
module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Schedule = Wr_sched.Schedule
module Driver = Wr_regalloc.Driver
module Obs = Wr_obs.Obs

type loop_result = {
  ii : int;
  cycles : float;
  required_regs : int;
  spill_stores : int;
  spill_loads : int;
  spill_rounds : int;
  pipelined : bool;
  mii : int;
  trip_count : int;
  degraded : bool;
}

(* Total full-pipeline evaluations performed (scheduler actually
   invoked, as opposed to answered from the loop-level cache); a test
   hook for the caching discipline. *)
let eval_count = Atomic.make 0

let evaluations () = Atomic.get eval_count

(* Per-level cache accounting, always on (atomic increments are cheap
   next to even a cache hit's hashing) so the telemetry snapshot and
   the tests can read hit rates without enabling full tracing. *)
type cache_stats = { hits : int; misses : int }

let suite_hits = Atomic.make 0

let suite_misses = Atomic.make 0

let loop_hits = Atomic.make 0

let loop_misses = Atomic.make 0

let store_hits = Atomic.make 0

let store_misses = Atomic.make 0

let cache_stats = function
  | `Suite -> { hits = Atomic.get suite_hits; misses = Atomic.get suite_misses }
  | `Loop -> { hits = Atomic.get loop_hits; misses = Atomic.get loop_misses }
  | `Store -> { hits = Atomic.get store_hits; misses = Atomic.get store_misses }

(* Verification mode: every (loop, machine point) result is re-derived
   by the independent Wr_check oracles; any broken invariant raises
   [Wr_check.Oracle.Violation].  Off by default — the oracles run the
   reference interpreter and O(II) re-derivations, so a verified run
   costs a small constant factor over a plain one. *)
let verify_flag = Atomic.make false

let set_verify b = Atomic.set verify_flag b

let verify_enabled () = Atomic.get verify_flag

(* Strict mode restores fail-fast: a loop evaluation that raises kills
   the study instead of degrading to the unpipelined fallback. *)
let strict_flag = Atomic.make false

let set_strict b = Atomic.set strict_flag b

type quarantine_record = {
  q_suite : string;
  q_index : int;
  q_loop : string;
  q_config : string;
  q_registers : int;
  q_cycle_model : int;
  q_reason : string;
  q_backtrace : string;
}

let quarantine_mutex = Mutex.create ()

let quarantine_list : quarantine_record list ref = ref []

let quarantine q =
  Mutex.lock quarantine_mutex;
  quarantine_list := q :: !quarantine_list;
  Mutex.unlock quarantine_mutex;
  if Obs.enabled () then Obs.incr "eval/quarantined"

let quarantined () =
  Mutex.lock quarantine_mutex;
  let l = !quarantine_list in
  Mutex.unlock quarantine_mutex;
  (* Stable report order regardless of pool completion order. *)
  List.sort
    (fun a b ->
      compare
        (a.q_suite, a.q_index, a.q_config, a.q_registers, a.q_cycle_model)
        (b.q_suite, b.q_index, b.q_config, b.q_registers, b.q_cycle_model))
    l

let quarantined_count () =
  Mutex.lock quarantine_mutex;
  let n = List.length !quarantine_list in
  Mutex.unlock quarantine_mutex;
  n

let reset_quarantine () =
  Mutex.lock quarantine_mutex;
  quarantine_list := [];
  Mutex.unlock quarantine_mutex

let verified_count = Atomic.make 0

let verified_points () = Atomic.get verified_count

(* Sequential fallback: iterations execute back-to-back with no
   software pipelining.  The per-iteration cost is the flat schedule's
   span plus the latency drain of the last operations; register demand
   collapses to within-iteration concurrency, which always fits the
   smallest file studied. *)
let sequential_cost ~cycle_model g =
  let resource_free =
    (* Schedule at an II no smaller than the span so iterations never
       overlap. *)
    let upper =
      Array.fold_left
        (fun acc (o : Operation.t) ->
          acc + Cycle_model.occupancy cycle_model o.Operation.opcode)
        1 (Ddg.ops g)
      + List.fold_left
          (fun acc (e : Wr_ir.Dependence.t) ->
            acc
            + Wr_ir.Dependence.delay_rule e.Wr_ir.Dependence.kind
                ~producer_latency:
                  (Cycle_model.latency_of_op cycle_model
                     (Ddg.op g e.Wr_ir.Dependence.src).Operation.opcode))
          0 (Ddg.edges g)
    in
    upper
  in
  resource_free

(* Compiled interpreter plans, cached per (suite, loop index, width)
   alongside the loop-level result cache: a verified study revisits one
   loop at many (buses, registers, cycle model) points, and the oracles
   interpret the original and widened bodies at each of them.  Plans
   are iteration-count independent and immutable, so one entry serves
   every point; width 0 keys the unwidened original.  Guarded by its
   own mutex with the same discipline as the other memo tables (the
   compile itself runs outside the lock).  Only [loop_cached] passes a
   [plan_key] (its suite id and index name the loop); a direct
   [loop_on] compiles per call. *)
let plan_cache : (string * int * int, Wr_vliw.Interp.plan) Hashtbl.t = Hashtbl.create 1024

let plan_cache_mutex = Mutex.create ()

let cached_plan ~plan_key ~width loop =
  match plan_key with
  | None -> Some (Wr_vliw.Interp.compile loop)
  | Some (suite_id, index) -> (
      let key = (suite_id, index, width) in
      Mutex.lock plan_cache_mutex;
      let hit = Hashtbl.find_opt plan_cache key in
      Mutex.unlock plan_cache_mutex;
      match hit with
      | Some p -> Some p
      | None ->
          let p = Wr_vliw.Interp.compile loop in
          Mutex.lock plan_cache_mutex;
          (* First store wins, mirroring the loop cache. *)
          let stored =
            match Hashtbl.find_opt plan_cache key with
            | Some q -> q
            | None ->
                Hashtbl.add plan_cache key p;
                p
          in
          Mutex.unlock plan_cache_mutex;
          Some stored)

(* Rendered loop bodies ({!Provenance.loop_body}), cached per (suite,
   loop index) beside the plans: every point of one loop hashes the same
   body, so it is rendered once per memo generation and only the short
   per-point header is rendered per point.  An entry also holds the loop
   it was rendered from and answers only that physical loop, so the key
   always describes the loop actually passed.  Same mutex discipline as
   the plan cache; only the point hash reads it. *)
let body_cache : (string * int, Loop.t * string) Hashtbl.t = Hashtbl.create 1024

let body_cache_mutex = Mutex.create ()

let cached_body ~suite_id ~index loop =
  let key = (suite_id, index) in
  Mutex.lock body_cache_mutex;
  let hit = Hashtbl.find_opt body_cache key in
  Mutex.unlock body_cache_mutex;
  match hit with
  | Some (l, body) when l == loop -> body
  | Some _ -> Provenance.loop_body loop
  | None ->
      let body = Provenance.loop_body loop in
      Mutex.lock body_cache_mutex;
      if not (Hashtbl.mem body_cache key) then Hashtbl.add body_cache key (loop, body);
      Mutex.unlock body_cache_mutex;
      body

(* A point's machine shape: what its widened body and the driver's
   first probe depend on besides the loop — width, issue slots and
   cycle model.  The register count is not part of it: only the fit
   check, the escalation search and the spill rounds depend on that.
   [suites_on] sorts a task's points by it, and [loop_on_impl] keys the
   shared probe by it. *)
type shape = int * Resource.t * int

let shape_of (c : Config.t) cycle_model : shape =
  (c.Config.width, Resource.of_config c, Cycle_model.cycles cycle_model)

(* What one task of a batch ([suites_on]) shares between the points of
   its loop: the widened body of the current width, and the driver's
   first probe on it for the current shape.  The task visits its points
   sorted by shape, so it holds one body and one memo at a time, and
   nothing outlives the task.  A lone point gets a fresh record. *)
type shared = {
  mutable body : (int * Loop.t) option;
  mutable probes : (shape * Driver.memo) option;
}

let fresh_shared () = { body = None; probes = None }

let loop_on_impl ?policy ~plan_key ~shared (c : Config.t) ~cycle_model ~registers
    (loop : Loop.t) =
  Atomic.incr eval_count;
  if Obs.enabled () then Obs.incr "eval/evaluations";
  (* The body is widened for the machine's width but NOT unrolled by
     the bus count: like the paper's compiler, the scheduler works on
     the loop as written, so the initiation interval (and with it the
     register pressure of aggressive machines) is quantized at
     II >= 1 per (wide) iteration.  The fault draw is per point, even
     when the task already holds the widened body. *)
  Wr_util.Fault.hit "widen";
  let width = c.Config.width in
  let prepared =
    match shared.body with
    | Some (w, body) when w = width -> body
    | _ ->
        let body = fst (Obs.span "widen" (fun () -> Wr_widen.Transform.widen loop ~width)) in
        shared.body <- Some (width, body);
        body
  in
  let memo =
    let shape = shape_of c cycle_model in
    match shared.probes with
    | Some (k, memo) when k = shape -> memo
    | _ ->
        let memo = Driver.memo () in
        shared.probes <- Some (shape, memo);
        memo
  in
  let resource = Resource.of_config c in
  let outcome = Driver.run resource ~cycle_model ~registers ?policy ~memo prepared.Loop.ddg in
  let verifying = verify_enabled () in
  if verifying then begin
    let context =
      Printf.sprintf "%s on %s (%d regs, %s)" loop.Loop.name (Config.label c) registers
        (Cycle_model.to_string cycle_model)
    in
    let vs =
      Obs.span "verify" (fun () ->
          (* Compile failures surface through the same guard as
             interpreter failures did before plans existed. *)
          let original_plan =
            try cached_plan ~plan_key ~width:0 loop with Invalid_argument _ -> None
          in
          let widened_plan =
            try cached_plan ~plan_key ~width:c.Config.width prepared
            with Invalid_argument _ -> None
          in
          Wr_check.Oracle.check_widening ?original_plan ?widened_plan ~original:loop
            ~widened:prepared ~width:c.Config.width ()
          @ Wr_check.Oracle.check_driver ?pre_plan:widened_plan resource ~registers
              ~pre:prepared outcome)
    in
    Wr_check.Oracle.fail_if_any ~context vs;
    Atomic.incr verified_count
  end;
  match outcome with
  | Driver.Scheduled s ->
      let ii = s.Driver.schedule.Schedule.ii in
      (* The widened loop executes trip/Y iterations of II cycles each;
         trip_count was already divided by the transform. *)
      let cycles = float_of_int (ii * prepared.Loop.trip_count) *. loop.Loop.weight in
      {
        ii;
        cycles;
        required_regs = s.Driver.alloc.Wr_regalloc.Alloc.required;
        spill_stores = s.Driver.stores_added;
        spill_loads = s.Driver.loads_added;
        spill_rounds = s.Driver.spill_rounds;
        pipelined = true;
        mii = s.Driver.mii;
        trip_count = prepared.Loop.trip_count;
        degraded = false;
      }
  | Driver.Unschedulable _ ->
      let resource_free = sequential_cost ~cycle_model prepared.Loop.ddg in
      (* A list schedule is far shorter than the sum above; use the
         modulo scheduler once at a non-overlapping II to get the real
         span. *)
      let r =
        Wr_sched.Backend.run resource ~cycle_model ~min_ii:resource_free prepared.Loop.ddg
      in
      if verifying then
        Wr_check.Oracle.fail_if_any
          ~context:
            (Printf.sprintf "%s sequential fallback on %s" loop.Loop.name (Config.label c))
          (Wr_check.Oracle.check_schedule prepared.Loop.ddg resource
             r.Wr_sched.Modulo.schedule);
      let span =
        Schedule.span r.Wr_sched.Modulo.schedule
        + Cycle_model.latency cycle_model Wr_ir.Opcode.Short_op
      in
      {
        ii = span;
        cycles = float_of_int (span * prepared.Loop.trip_count) *. loop.Loop.weight;
        required_regs = registers;
        spill_stores = 0;
        spill_loads = 0;
        spill_rounds = 0;
        pipelined = false;
        mii = r.Wr_sched.Modulo.mii;
        trip_count = prepared.Loop.trip_count;
        degraded = false;
      }

let traced_loop_on ?policy ~plan_key ~shared (c : Config.t) ~cycle_model ~registers
    (loop : Loop.t) =
  if not (Obs.enabled ()) then
    loop_on_impl ?policy ~plan_key ~shared c ~cycle_model ~registers loop
  else
    (* The args list is only built when tracing is on. *)
    Obs.span "eval/loop"
      ~args:[ ("loop", loop.Loop.name); ("config", Config.label c) ]
      (fun () -> loop_on_impl ?policy ~plan_key ~shared c ~cycle_model ~registers loop)

let loop_on ?policy c ~cycle_model ~registers loop =
  traced_loop_on ?policy ~plan_key:None ~shared:(fresh_shared ()) c ~cycle_model ~registers
    loop

type aggregate = {
  total_cycles : float;
  loops : int;
  unpipelined : int;
  unpipelined_weight : float;
  spilled_loops : int;
  total_stores : int;
  total_loads : int;
}

(* Thread-safety discipline: both memo tables are shared across the
   pool's domains and every access goes through [cache_mutex].  Lookups
   and stores are short critical sections; the evaluation itself runs
   outside the lock, so two domains racing on the same key at most
   duplicate a deterministic computation and [Hashtbl.replace] makes
   the second store a no-op in effect.

   Two levels: [cache] memoizes whole-suite aggregates (the technology
   studies revisit operating points), while [loop_cache] memoizes
   individual loop evaluations keyed by (suite, loop index, machine
   point) so that different studies — and different aggregations over
   the same suite — share the expensive schedule-and-allocate work.
   A degraded result says so itself ([degraded]), so every later hit on
   its entry reports it too.  (A flag block beside each entry instead
   raised figures-cold's peak heap by about a third on OCaml 5.1.) *)
let cache : (string * int * int * int * int, aggregate) Hashtbl.t = Hashtbl.create 256

type memo_key = string * int * int * int * int * int

let memo_key ~suite_id ~index (c : Config.t) ~cycle_model ~registers : memo_key =
  (suite_id, index, c.Config.buses, c.Config.width, registers, Cycle_model.cycles cycle_model)

let loop_cache : (memo_key, loop_result) Hashtbl.t = Hashtbl.create 4096

let cache_mutex = Mutex.create ()

let clear_cache () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  Hashtbl.reset loop_cache;
  Mutex.unlock cache_mutex;
  Mutex.lock plan_cache_mutex;
  Hashtbl.reset plan_cache;
  Mutex.unlock plan_cache_mutex;
  Mutex.lock body_cache_mutex;
  Hashtbl.reset body_cache;
  Mutex.unlock body_cache_mutex;
  (* The hit/miss statistics describe the cache contents; dropping one
     without the other would make subsequent hit rates unreadable. *)
  Atomic.set suite_hits 0;
  Atomic.set suite_misses 0;
  Atomic.set loop_hits 0;
  Atomic.set loop_misses 0;
  Atomic.set store_hits 0;
  Atomic.set store_misses 0

let cache_find key =
  Mutex.lock cache_mutex;
  let r = Hashtbl.find_opt cache key in
  Mutex.unlock cache_mutex;
  (match r with
  | Some _ ->
      Atomic.incr suite_hits;
      if Obs.enabled () then Obs.incr "eval/suite_cache_hits"
  | None ->
      Atomic.incr suite_misses;
      if Obs.enabled () then Obs.incr "eval/suite_cache_misses");
  r

let cache_store key agg =
  Mutex.lock cache_mutex;
  Hashtbl.replace cache key agg;
  Mutex.unlock cache_mutex

(* Persistent content-addressed store (see {!Store}): the crash-safe
   record of every clean evaluation, so re-running an interrupted sweep
   on the same store is its resume.  It is consulted lazily on each
   loop-cache miss because its key needs the loop body, which only the
   miss path holds.  Store hits become ordinary cache entries; they are
   not recorded in the provenance ledger (they are not decisions of
   this run). *)
let store : Store.t option ref = ref None

let store_mutex = Mutex.create ()

let current_store () =
  Mutex.lock store_mutex;
  let s = !store in
  Mutex.unlock store_mutex;
  s

let detach_store () =
  Mutex.lock store_mutex;
  let s = !store in
  store := None;
  Mutex.unlock store_mutex;
  match s with None -> () | Some t -> Store.close t

let attach_store path =
  detach_store ();
  let t, recovery = Store.open_dir path in
  Mutex.lock store_mutex;
  store := Some t;
  Mutex.unlock store_mutex;
  recovery

let store_dir () = match current_store () with None -> None | Some s -> Some (Store.dir s)

let store_entries () = match current_store () with None -> 0 | Some s -> Store.length s

let store_appended () = match current_store () with None -> 0 | Some s -> Store.appended s

let store_entry_of_result hash (r : loop_result) =
  {
    Store.hash;
    ii = r.ii;
    cycles_bits = Int64.bits_of_float r.cycles;
    required_regs = r.required_regs;
    spill_stores = r.spill_stores;
    spill_loads = r.spill_loads;
    spill_rounds = r.spill_rounds;
    pipelined = r.pipelined;
    mii = r.mii;
    trip_count = r.trip_count;
  }

(* The store key: the point hash, which alone cannot tell which backend
   scheduled the point.  The default heuristic keeps the bare hash, so
   existing stores stay valid; any other backend mixes its name in, so a
   store shared across backends never answers one with the other's
   result.  The ledger keeps the bare hash: [bench diff] joins on it and
   reports backend changes per point. *)
let store_key hash =
  match Wr_sched.Backend.current () with
  | Wr_sched.Backend.Heuristic -> hash
  | k ->
      Wr_obs.Ledger.fnv1a64 (Printf.sprintf "%Lx backend=%s" hash (Wr_sched.Backend.to_string k))

let result_of_store_entry (e : Store.entry) =
  {
    ii = e.Store.ii;
    cycles = Int64.float_of_bits e.Store.cycles_bits;
    required_regs = e.Store.required_regs;
    spill_stores = e.Store.spill_stores;
    spill_loads = e.Store.spill_loads;
    spill_rounds = e.Store.spill_rounds;
    pipelined = e.Store.pipelined;
    mii = e.Store.mii;
    trip_count = e.Store.trip_count;
    degraded = false;
  }

(* Paper-faithful degradation: when an evaluation dies (injected fault,
   scheduler bug), the point becomes what a real compiler ships when it
   gives up — the loop compiled without software pipelining.  Computed
   by pure arithmetic over the UNwidened body (no scheduler call: the
   degrade path must not be able to fail itself), so it slightly
   over-costs the fallback relative to the list-schedule span used on
   the normal Unschedulable path; quarantined points are flagged, never
   silently mixed in as exact. *)
let degraded_result ~cycle_model ~registers (loop : Loop.t) =
  let span = sequential_cost ~cycle_model loop.Loop.ddg in
  {
    ii = span;
    cycles = float_of_int (span * loop.Loop.trip_count) *. loop.Loop.weight;
    required_regs = registers;
    spill_stores = 0;
    spill_loads = 0;
    spill_rounds = 0;
    pipelined = false;
    mii = 0;
    trip_count = loop.Loop.trip_count;
    degraded = true;
  }

(* Provenance record for one freshly evaluated point; called only when
   capture is on and this call's result won the first-store race, so a
   run emits at most one record per point. *)
let prov_record ~hash ~suite_id ~index (c : Config.t) ~cycle_model ~registers loop
    (r : loop_result) ~clean ~tag (t : Wr_sched.Backend.tally) ~wall_us =
  {
    Provenance.hash;
    suite = suite_id;
    index;
    loop = loop.Loop.name;
    config = Config.label c;
    registers;
    cycle_model = Cycle_model.cycles cycle_model;
    ii = r.ii;
    mii = r.mii;
    cycles = r.cycles;
    pipelined = r.pipelined;
    spill_rounds = r.spill_rounds;
    spill_stores = r.spill_stores;
    spill_loads = r.spill_loads;
    backend = Wr_sched.Backend.to_string (Wr_sched.Backend.current ());
    sched_runs = t.Wr_sched.Backend.runs;
    evictions = t.Wr_sched.Backend.evictions;
    exact =
      {
        Provenance.solves = t.Wr_sched.Backend.solves;
        proved = t.Wr_sched.Backend.proved;
        unproved = t.Wr_sched.Backend.unproved;
        fallback = t.Wr_sched.Backend.fallback;
        nodes = t.Wr_sched.Backend.nodes;
        iis_refuted = t.Wr_sched.Backend.iis_refuted;
      };
    oracle = (if clean && verify_enabled () then "verified" else "unverified");
    quarantined = not clean;
    tag;
    wall_us;
  }

type source = Memo | Store | Fresh

type answer = { result : loop_result; source : source }

(* First store wins so concurrent callers settle on one physical
   result record; returns the record the memo holds. *)
let memo_add key r =
  Mutex.lock cache_mutex;
  let stored =
    match Hashtbl.find_opt loop_cache key with
    | Some r' -> r'
    | None ->
        Hashtbl.add loop_cache key r;
        r
  in
  Mutex.unlock cache_mutex;
  stored

let lookup ~shared ~suite_id ~index (c : Config.t) ~cycle_model ~registers loop =
  let key = memo_key ~suite_id ~index c ~cycle_model ~registers in
  Mutex.lock cache_mutex;
  let hit = Hashtbl.find_opt loop_cache key in
  Mutex.unlock cache_mutex;
  match hit with
  | Some result ->
      Atomic.incr loop_hits;
      if Obs.enabled () then Obs.incr "eval/loop_cache_hits";
      { result; source = Memo }
  | None -> (
      Atomic.incr loop_misses;
      if Obs.enabled () then Obs.incr "eval/loop_cache_misses";
      (* Partitions reach neither [Resource] nor the memo key, so the
         entry is named after the one-partition config: its point hash,
         ledger record, quarantine record and fault context are then the
         same whichever partition count reached it first. *)
      let c =
        if c.Config.partitions = 1 then c
        else
          Config.make ~buses:c.Config.buses ~fpus:c.Config.fpus ~width:c.Config.width
            ~registers:c.Config.registers ()
      in
      let attached_store = current_store () in
      let cap = Provenance.capture_enabled () in
      (* The point hash names what persists (store key, ledger record).
         It is computed once, and only on a miss that needs it; the
         loop's body is rendered once per memo generation. *)
      let hash =
        if cap || Option.is_some attached_store then
          Provenance.point_hash_of_body ~suite_id ~index ~config:c ~registers ~cycle_model
            (cached_body ~suite_id ~index loop)
        else 0L
      in
      (* Second chance: the persistent store.  A hit is a prior run's
         (or another client's) clean result; it enters the loop cache
         like any other entry and is served without touching the
         scheduler. *)
      let key_hash = if Option.is_some attached_store then store_key hash else 0L in
      let from_store =
        match attached_store with
        | None -> None
        | Some st -> (
            match Store.find st key_hash with
            | Some e ->
                Atomic.incr store_hits;
                if Obs.enabled () then Obs.incr "eval/store_hits";
                Some (result_of_store_entry e)
            | None ->
                Atomic.incr store_misses;
                if Obs.enabled () then Obs.incr "eval/store_misses";
                None)
      in
      match from_store with
      | Some r ->
          { result = memo_add key r; source = Store }
      | None ->
      (* Supervision: the whole widen/schedule/allocate pipeline for
         this one point runs under the point's fault-injection context.
         The context string doubles as the deterministic seed component
         for Wr_util.Fault, which is why it is the cache key, not the
         pool task id: the same point draws the same fault stream at any
         pool size.  No clock bounds the run: every stage is bounded by
         work, so a point's result never depends on how fast the host
         ran it. *)
      let context =
        Printf.sprintf "%s|%d|%s|%d|%d" suite_id index (Config.label c) registers
          (Cycle_model.cycles cycle_model)
      in
      let evaluate () =
        Wr_util.Fault.with_context context (fun () ->
            traced_loop_on ~plan_key:(Some (suite_id, index)) ~shared c ~cycle_model ~registers
              loop)
      in
      let wall = cap && Provenance.wall_enabled () in
      let t0 = if wall then Obs.now_ns () else 0 in
      let run_point () =
        match evaluate () with
        | r -> (r, true, "")
        | exception Out_of_memory ->
            (* Never absorb resource exhaustion into a data point. *)
            raise Out_of_memory
        | exception e when not (Atomic.get strict_flag) ->
            let bt = Printexc.get_backtrace () in
            let reason = Printexc.to_string e in
            quarantine
              {
                q_suite = suite_id;
                q_index = index;
                q_loop = loop.Loop.name;
                q_config = Config.label c;
                q_registers = registers;
                q_cycle_model = Cycle_model.cycles cycle_model;
                q_reason = reason;
                q_backtrace = bt;
              };
            (degraded_result ~cycle_model ~registers loop, false, reason)
      in
      let (r, clean, tag), tally =
        if cap then Wr_sched.Backend.with_tally run_point
        else (run_point (), Wr_sched.Backend.empty_tally ())
      in
      let result = memo_add key r in
      if clean && result == r then begin
        (* Only the winning clean evaluation persists; a quarantined
           point must re-run, when the fault may be gone.  An append
           racing a detach is dropped, not fatal. *)
        match attached_store with
        | Some st -> (
            (* Flush per append: a SIGKILLed process must not lose
               results it already served (the warm-start guarantee). *)
            try
              Store.add st (store_entry_of_result key_hash r);
              Store.flush st
            with Invalid_argument _ -> ())
        | None -> ()
      end;
      (* Same first-store-wins discipline: only the winning evaluation
         describes the point, and — unlike the store — a quarantined
         point is recorded too, exception tag and all. *)
      if cap && result == r then begin
        let wall_us = if wall then Some ((Obs.now_ns () - t0) / 1000) else None in
        Provenance.record
          (prov_record ~hash ~suite_id ~index c ~cycle_model ~registers loop r ~clean ~tag
             tally ~wall_us)
      end;
      { result; source = Fresh })

let loop_cached ~suite_id ~index c ~cycle_model ~registers loop =
  lookup ~shared:(fresh_shared ()) ~suite_id ~index c ~cycle_model ~registers loop

type point = { config : Config.t; cycle_model : Cycle_model.t; registers : int }

let suite_key ~suite_id p =
  ( suite_id,
    p.config.Config.buses,
    p.config.Config.width,
    p.registers,
    Cycle_model.cycles p.cycle_model )

(* Folds one point's per-loop results in loop order, so float
   accumulation order — and with it the aggregate, bit for bit — is the
   same for any pool size. *)
let aggregate loops result =
  let total_cycles = ref 0.0 in
  let unpipelined = ref 0 and spilled = ref 0 in
  let stores = ref 0 and loads = ref 0 in
  let weight = ref 0.0 and fallback_weight = ref 0.0 in
  Array.iteri
    (fun i (loop : Loop.t) ->
      let r = result i in
      total_cycles := !total_cycles +. r.cycles;
      weight := !weight +. loop.Loop.weight;
      if not r.pipelined then begin
        incr unpipelined;
        fallback_weight := !fallback_weight +. loop.Loop.weight
      end;
      if r.spill_stores > 0 then incr spilled;
      stores := !stores + r.spill_stores;
      loads := !loads + r.spill_loads)
    loops;
  {
    total_cycles = !total_cycles;
    loops = Array.length loops;
    unpipelined = !unpipelined;
    unpipelined_weight = (if !weight > 0.0 then !fallback_weight /. !weight else 0.0);
    spilled_loops = !spilled;
    total_stores = !stores;
    total_loads = !loads;
  }

let suites_on ?pool ~suite_id points loops =
  (* This batch's answers by suite key: the aggregate memo's hits, then
     the points it misses (each distinct key once). *)
  let answers = Hashtbl.create 64 in
  let missing =
    List.filter_map
      (fun p ->
        let key = suite_key ~suite_id p in
        if Hashtbl.mem answers key then None
        else begin
          let hit = cache_find key in
          Hashtbl.add answers key hit;
          if Option.is_none hit then Some (key, p) else None
        end)
      points
    |> Array.of_list
  in
  if missing <> [||] then begin
    (* One task per loop: it evaluates every missing point of its loop,
       in shape order, through one [shared] record, so the loop is
       widened once per width and first probed once per shape. *)
    let shape (_, p) = shape_of p.config p.cycle_model in
    Array.stable_sort (fun a b -> compare (shape a) (shape b)) missing;
    let task (index, loop) =
      let shared = fresh_shared () in
      Array.map
        (fun (_, p) ->
          (lookup ~shared ~suite_id ~index p.config ~cycle_model:p.cycle_model
             ~registers:p.registers loop)
            .result)
        missing
    in
    let results =
      (if not (Obs.enabled ()) then fun f -> f ()
       else Obs.span "eval/suite" ~args:[ ("points", string_of_int (Array.length missing)) ])
        (fun () ->
          Wr_util.Pool.parallel_map ?pool (Array.mapi (fun i loop -> (i, loop)) loops) ~f:task)
    in
    Array.iteri
      (fun j (key, _) ->
        let agg = aggregate loops (fun i -> results.(i).(j)) in
        cache_store key agg;
        Hashtbl.replace answers key (Some agg))
      missing
  end;
  List.map (fun p -> Option.get (Hashtbl.find answers (suite_key ~suite_id p))) points

let suite_on ?pool ~suite_id config ~cycle_model ~registers loops =
  List.hd (suites_on ?pool ~suite_id [ { config; cycle_model; registers } ] loops)

let acceptable agg = agg.unpipelined_weight <= 0.10
