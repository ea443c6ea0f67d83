module Ddg = Wr_ir.Ddg
module Dependence = Wr_ir.Dependence
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Loop = Wr_ir.Loop
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Schedule = Wr_sched.Schedule
module Lifetime = Wr_regalloc.Lifetime
module Alloc = Wr_regalloc.Alloc
module Driver = Wr_regalloc.Driver
module Compact = Wr_widen.Compact
module Transform = Wr_widen.Transform
module Interp = Wr_vliw.Interp

type violation = { oracle : string; detail : string }

let to_string vs =
  String.concat "\n" (List.map (fun v -> Printf.sprintf "[%s] %s" v.oracle v.detail) vs)

exception Violation of string

let fail_if_any ~context = function
  | [] -> ()
  | vs ->
      raise
        (Violation
           (Printf.sprintf "%d oracle violation(s) in %s:\n%s" (List.length vs) context
              (to_string vs)))

(* Accumulator: oracles push violations in discovery order.  Top-level
   so each call site gets its own format type. *)
let add buf oracle fmt =
  Printf.ksprintf (fun detail -> buf := { oracle; detail } :: !buf) fmt

let class_name = function Opcode.Bus -> "bus" | Opcode.Fpu -> "FPU"

(* --- schedule oracle --------------------------------------------------- *)

let check_schedule g resource (s : Schedule.t) =
  let buf = ref [] in
  let n = Ddg.num_ops g in
  let ii = s.Schedule.ii in
  if Array.length s.Schedule.times <> n then
    add buf "schedule.shape" "schedule has %d times for %d operations"
      (Array.length s.Schedule.times) n
  else begin
    let times = s.Schedule.times in
    (* Every dependence, straight off the canonical edge list — never
       the scheduler's flat edge view, which is exactly the structure
       under test. *)
    List.iter
      (fun (e : Dependence.t) ->
        let producer = Ddg.op g e.Dependence.src in
        let delay =
          Dependence.delay_rule e.Dependence.kind
            ~producer_latency:
              (Cycle_model.latency_of_op s.Schedule.cycle_model
                 producer.Operation.opcode)
        in
        let slack =
          times.(e.Dependence.dst) - times.(e.Dependence.src) - delay
          + (ii * e.Dependence.distance)
        in
        if slack < 0 then
          add buf "schedule.dependence"
            "%s edge op%d@%d -> op%d@%d violated by %d cycle(s) (delay %d, distance \
             %d, II %d)"
            (Dependence.kind_to_string e.Dependence.kind)
            e.Dependence.src
            times.(e.Dependence.src)
            e.Dependence.dst
            times.(e.Dependence.dst)
            (-slack) delay e.Dependence.distance ii)
      (Ddg.edges g);
    (* Re-derive the reservation table the slow way: one increment per
       occupied modulo slot per operation, O(II) each — the reference
       the O(occupancy) windowed Mrt must agree with. *)
    let check_class cls =
      let capacity = Resource.slots resource cls in
      let usage = Array.make ii 0 in
      Array.iter
        (fun (o : Operation.t) ->
          if Opcode.resource_class o.Operation.opcode = cls then begin
            let occ = Cycle_model.occupancy s.Schedule.cycle_model o.Operation.opcode in
            let start = ((times.(o.Operation.id) mod ii) + ii) mod ii in
            for k = 0 to occ - 1 do
              let slot = (start + k) mod ii in
              usage.(slot) <- usage.(slot) + 1
            done
          end)
        (Ddg.ops g);
      Array.iteri
        (fun slot used ->
          if used > capacity then
            add buf "schedule.resource"
              "kernel slot %d uses %d %s slot(s) of %d available (II %d)" slot used
              (class_name cls) capacity ii)
        usage
    in
    check_class Opcode.Bus;
    check_class Opcode.Fpu
  end;
  List.rev !buf

(* --- regalloc oracle --------------------------------------------------- *)

(* MaxLives by a naive per-slot count, deliberately not
   [Lifetime.max_lives]: every whole wrap adds one to every slot, and
   each residual arc is walked slot by slot. *)
let naive_max_lives ~ii lifetimes =
  let cover = Array.make ii 0 in
  List.iter
    (fun lt ->
      let len = Lifetime.length lt in
      let full = len / ii and rem = len mod ii in
      for s = 0 to ii - 1 do
        cover.(s) <- cover.(s) + full
      done;
      let base = ((lt.Lifetime.start mod ii) + ii) mod ii in
      for k = 0 to rem - 1 do
        let s = (base + k) mod ii in
        cover.(s) <- cover.(s) + 1
      done)
    lifetimes;
  Array.fold_left Stdlib.max 0 cover

let check_alloc g (s : Schedule.t) (alloc : Alloc.t) ~available =
  let buf = ref [] in
  let ii = s.Schedule.ii in
  if alloc.Alloc.ii <> ii then
    add buf "alloc.shape" "allocation computed at II %d for a schedule at II %d"
      alloc.Alloc.ii ii;
  let lifetimes = Lifetime.of_schedule g s in
  let by_vreg = Hashtbl.create 64 in
  List.iter
    (fun (a : Alloc.assignment) -> Hashtbl.replace by_vreg a.Alloc.vreg a)
    alloc.Alloc.assignments;
  if List.length alloc.Alloc.assignments <> List.length lifetimes then
    add buf "alloc.shape" "%d assignments for %d lifetimes"
      (List.length alloc.Alloc.assignments)
      (List.length lifetimes);
  (* Replay every residual arc onto an explicit ring per register. *)
  let rings : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  let whole_total = ref 0 in
  List.iter
    (fun (lt : Lifetime.t) ->
      match Hashtbl.find_opt by_vreg lt.Lifetime.vreg with
      | None -> add buf "alloc.coverage" "vreg %d has a lifetime but no assignment" lt.Lifetime.vreg
      | Some a ->
          let len = Lifetime.length lt in
          let whole = len / ii and rem = len mod ii in
          whole_total := !whole_total + whole;
          if a.Alloc.whole_registers <> whole then
            add buf "alloc.whole"
              "vreg %d: lifetime length %d at II %d needs %d whole register(s), \
               assignment says %d"
              lt.Lifetime.vreg len ii whole a.Alloc.whole_registers;
          if rem = 0 then begin
            if a.Alloc.register >= 0 then
              add buf "alloc.arc"
                "vreg %d has no residual arc (length %d divides II %d) but occupies \
                 register %d"
                lt.Lifetime.vreg len ii a.Alloc.register
          end
          else if a.Alloc.register < 0 then
            add buf "alloc.arc"
              "vreg %d has a residual arc of %d slot(s) but no register" lt.Lifetime.vreg
              rem
          else begin
            let ring =
              match Hashtbl.find_opt rings a.Alloc.register with
              | Some r -> r
              | None ->
                  let r = Array.make ii 0 in
                  Hashtbl.add rings a.Alloc.register r;
                  r
            in
            let start = ((lt.Lifetime.start mod ii) + ii) mod ii in
            for k = 0 to rem - 1 do
              let slot = (start + k) mod ii in
              ring.(slot) <- ring.(slot) + 1;
              if ring.(slot) = 2 then
                add buf "alloc.overlap"
                  "register %d is claimed twice at kernel slot %d (vreg %d overlaps an \
                   earlier arc, wraparound included)"
                  a.Alloc.register slot lt.Lifetime.vreg
            done
          end)
    lifetimes;
  let distinct_arc_registers = Hashtbl.length rings in
  if alloc.Alloc.required <> !whole_total + distinct_arc_registers then
    add buf "alloc.required"
      "reported requirement %d, but re-count gives %d whole + %d arc register(s) = %d"
      alloc.Alloc.required !whole_total distinct_arc_registers
      (!whole_total + distinct_arc_registers);
  let max_lives = naive_max_lives ~ii lifetimes in
  if alloc.Alloc.max_lives <> max_lives then
    add buf "alloc.maxlives" "reported MaxLives %d, recomputed %d" alloc.Alloc.max_lives
      max_lives;
  if alloc.Alloc.required < max_lives then
    add buf "alloc.maxlives"
      "requirement %d below MaxLives %d — impossible for a correct allocation"
      alloc.Alloc.required max_lives;
  (match available with
  | None -> ()
  | Some file ->
      if max_lives > file then
        add buf "alloc.file" "MaxLives %d exceeds the %d-register file after allocation"
          max_lives file;
      if alloc.Alloc.required > file then
        add buf "alloc.file" "allocation requires %d registers of %d available"
          alloc.Alloc.required file);
  List.rev !buf

(* --- widening oracle --------------------------------------------------- *)

let interp_guard ~oracle buf f =
  match f () with
  | v -> Some v
  | exception Invalid_argument msg ->
      add buf oracle "reference interpreter rejected the graph: %s" msg;
      None

let show_diffs diffs =
  String.concat ", "
    (List.map
       (fun ((a, addr), l, r) ->
         let v = function Some x -> Printf.sprintf "%h" x | None -> "unwritten" in
         Printf.sprintf "A%d[%d]: %s vs %s" a addr (v l) (v r))
       (List.filteri (fun i _ -> i < 3) diffs))

(* Run through a pre-compiled plan when the caller has one (Evaluate
   caches them per loop so a verified study compiles once per loop, not
   once per machine point); compile on the fly otherwise. *)
let interp_run ?plan ~iterations loop =
  match plan with
  | Some p -> Interp.run_plan ~iterations p
  | None -> Interp.run ~iterations loop

let check_widening ?original_plan ?widened_plan ~original ~widened ~width () =
  if width = 1 then []
  else begin
    let buf = ref [] in
    let analysis = Compact.analyze ~width original.Loop.ddg in
    let gw = widened.Loop.ddg in
    (* Per-opcode census: every compactable original must appear as one
       wide op of its own opcode (compacted groups are same-opcode by
       construction — the census would catch a mixed group), everything
       else as [width] scalar copies. *)
    let census = Hashtbl.create 8 in
    let bump tbl key by =
      Hashtbl.replace tbl key (by + Option.value ~default:0 (Hashtbl.find_opt tbl key))
    in
    Array.iteri
      (fun i compactable ->
        let opc = (Ddg.op original.Loop.ddg i).Operation.opcode in
        bump census (opc, compactable) 1)
      analysis.Compact.compactable;
    let seen = Hashtbl.create 8 in
    let rec_ops = Ddg.recurrence_ops gw in
    Array.iter
      (fun (o : Operation.t) ->
        let lanes = o.Operation.lanes in
        if lanes <> 1 && lanes <> width then
          add buf "widening.lanes" "op%d has %d lanes in a width-%d loop" o.Operation.id
            lanes width
        else begin
          bump seen (o.Operation.opcode, lanes = width) 1;
          if lanes = width then begin
            if rec_ops.(o.Operation.id) then
              add buf "widening.independence"
                "wide op%d (%s) sits on a dependence recurrence — its lanes cannot be \
                 pairwise independent"
                o.Operation.id
                (Opcode.to_string o.Operation.opcode);
            match o.Operation.mem with
            | Some m when m.Memref.stride <> width ->
                add buf "widening.stride"
                  "wide memory op%d has stride %d; a compacted stride-1 access must \
                   widen to stride %d"
                  o.Operation.id m.Memref.stride width
            | _ -> ()
          end
        end)
      (Ddg.ops gw);
    Hashtbl.iter
      (fun (opc, compactable) count ->
        let expected = if compactable then count else count * width in
        let got = Option.value ~default:0 (Hashtbl.find_opt seen (opc, compactable)) in
        if got <> expected then
          add buf "widening.census"
            "%d original %s op(s) (%s) should yield %d %s op(s), widened body has %d"
            count (Opcode.to_string opc)
            (if compactable then "compactable" else "not compactable")
            expected
            (if compactable then "wide" else "scalar")
            got)
      census;
    let expected_trip = (original.Loop.trip_count + width - 1) / width in
    if widened.Loop.trip_count <> expected_trip then
      add buf "widening.trip" "trip count %d should divide to %d at width %d, loop says %d"
        original.Loop.trip_count expected_trip width widened.Loop.trip_count;
    (* Semantic equivalence: k wide iterations replay k*width source
       iterations bit-exactly (the transform never reassociates). *)
    let k = 3 in
    (match
       ( interp_guard ~oracle:"widening.interp" buf (fun () ->
             interp_run ?plan:original_plan ~iterations:(k * width) original),
         interp_guard ~oracle:"widening.interp" buf (fun () ->
             interp_run ?plan:widened_plan ~iterations:k widened) )
     with
    | Some a, Some b ->
        if not (Interp.equal_memory a b) then
          add buf "widening.semantics"
            "memory images diverge after %d source iterations: %s" (k * width)
            (show_diffs (Interp.diff_memory a b));
        if (a.Interp.loads, a.Interp.stores, a.Interp.flops)
           <> (b.Interp.loads, b.Interp.stores, b.Interp.flops)
        then
          add buf "widening.work"
            "scalar work diverges: original %d/%d/%d loads/stores/flops, widened \
             %d/%d/%d"
            a.Interp.loads a.Interp.stores a.Interp.flops b.Interp.loads b.Interp.stores
            b.Interp.flops
    | _ -> ());
    List.rev !buf
  end

(* --- spill/semantics oracle -------------------------------------------- *)

let check_spill ?pre_plan ~pre ~post ?(iterations = 8) () =
  let buf = ref [] in
  let post_loop =
    Loop.make
      ~name:(pre.Loop.name ^ "/spilled")
      ~ddg:post ~trip_count:pre.Loop.trip_count ~weight:pre.Loop.weight ()
  in
  (* The spilled graph is unique to this machine point, so its plan is
     compiled fresh; only the pre-spill side can reuse a cached plan. *)
  (match
     ( interp_guard ~oracle:"spill.interp" buf (fun () ->
           interp_run ?plan:pre_plan ~iterations pre),
       interp_guard ~oracle:"spill.interp" buf (fun () ->
           Interp.run ~iterations post_loop) )
   with
  | Some a, Some b ->
      (* Spill slots live in fresh arrays; the program-visible image is
         the original's arrays only. *)
      let visible = Interp.arrays_of pre in
      let b = Interp.restrict b ~arrays:visible in
      if not (Interp.equal_memory a b) then
        add buf "spill.semantics"
          "memory images diverge after %d iterations (visible arrays only): %s"
          iterations
          (show_diffs (Interp.diff_memory a b));
      if a.Interp.flops <> b.Interp.flops then
        add buf "spill.work" "spilling changed the arithmetic: %d flops before, %d after"
          a.Interp.flops b.Interp.flops
  | _ -> ());
  List.rev !buf

(* --- composite oracles ------------------------------------------------- *)

let check_driver ?pre_plan resource ~registers ~pre outcome =
  match outcome with
  | Driver.Unschedulable _ -> []
  | Driver.Scheduled s ->
      let vs = check_schedule s.Driver.graph resource s.Driver.schedule in
      let vs =
        vs
        @ check_alloc s.Driver.graph s.Driver.schedule s.Driver.alloc
            ~available:(Some registers)
      in
      if s.Driver.stores_added > 0 || s.Driver.loads_added > 0 then
        vs @ check_spill ?pre_plan ~pre ~post:s.Driver.graph ()
      else vs

type point_report = {
  violations : violation list;
  schedulable : bool;
  spilled : bool;
  ii : int option;
}

let check_point (c : Config.t) ~cycle_model ~registers ?(policy = Driver.Combined) loop =
  let widened, _stats = Transform.widen loop ~width:c.Config.width in
  let wv = check_widening ~original:loop ~widened ~width:c.Config.width () in
  let resource = Resource.of_config c in
  let outcome = Driver.run resource ~cycle_model ~registers ~policy widened.Loop.ddg in
  let dv = check_driver resource ~registers ~pre:widened outcome in
  match outcome with
  | Driver.Scheduled s ->
      {
        violations = wv @ dv;
        schedulable = true;
        spilled = s.Driver.stores_added > 0 || s.Driver.loads_added > 0;
        ii = Some s.Driver.schedule.Schedule.ii;
      }
  | Driver.Unschedulable _ ->
      { violations = wv @ dv; schedulable = false; spilled = false; ii = None }
