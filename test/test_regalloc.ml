(* Tests for wr_regalloc: lifetimes, MaxLives, the wands/end-fit
   allocator, spill insertion and the register-constrained driver. *)

module Ddg = Wr_ir.Ddg
module Loop = Wr_ir.Loop
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Modulo = Wr_sched.Modulo
module Schedule = Wr_sched.Schedule
module Lifetime = Wr_regalloc.Lifetime
module Alloc = Wr_regalloc.Alloc
module Spill = Wr_regalloc.Spill
module Driver = Wr_regalloc.Driver
module K = Wr_workload.Kernels

let cm = Cycle_model.Cycles_4

let sched loop config =
  let r = Resource.of_config config in
  (Modulo.run r ~cycle_model:cm loop.Loop.ddg).Modulo.schedule

(* --- lifetimes ------------------------------------------------------------ *)

let test_lifetimes_daxpy () =
  let loop = K.daxpy () in
  let s = sched loop (Config.xwy ~x:1 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  (* 4 loop variants (2 loads, mul, add); the live-in scalar has none. *)
  Alcotest.(check int) "variant count" 4 (List.length lts);
  List.iter
    (fun lt ->
      Alcotest.(check bool) "positive length" true (Lifetime.length lt >= 1);
      Alcotest.(check bool) "starts at def" true
        (lt.Lifetime.start = s.Schedule.times.(lt.Lifetime.def_op)))
    lts

let test_lifetime_carried_use_extends () =
  (* A value consumed 2 iterations later lives at least 2*II cycles. *)
  let b = Wr_ir.Builder.create () in
  let x = Wr_ir.Builder.load b ~array_id:0 () in
  let y = Wr_ir.Builder.fneg b (Wr_ir.Builder.carried x ~distance:2) in
  Wr_ir.Builder.store b ~array_id:1 () y;
  let loop = Wr_ir.Builder.finish b ~trip_count:10 () in
  let s = sched loop (Config.xwy ~x:1 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  let x_lt = List.find (fun lt -> lt.Lifetime.def_op = 0) lts in
  Alcotest.(check bool) "spans 2 iterations" true
    (Lifetime.length x_lt >= 2 * s.Schedule.ii)

let test_lifetime_dead_value () =
  (* A value never read still holds its register until write-back. *)
  let b = Wr_ir.Builder.create () in
  let x = Wr_ir.Builder.load b ~array_id:0 () in
  let _dead = Wr_ir.Builder.fneg b x in
  Wr_ir.Builder.store b ~array_id:1 () x;
  let loop = Wr_ir.Builder.finish b ~trip_count:10 () in
  let s = sched loop (Config.xwy ~x:1 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  let dead = List.find (fun lt -> lt.Lifetime.def_op = 1) lts in
  Alcotest.(check int) "lives for its latency" 4 (Lifetime.length dead)

let test_max_lives_simple () =
  (* Two lifetimes of length 2 at II=2 overlapping everywhere: 2 live. *)
  let lts =
    [
      { Lifetime.vreg = 0; def_op = 0; start = 0; stop = 2 };
      { Lifetime.vreg = 1; def_op = 1; start = 0; stop = 2 };
    ]
  in
  Alcotest.(check int) "two live" 2 (Lifetime.max_lives ~ii:2 lts)

let test_max_lives_long_lifetime () =
  (* One lifetime of length 10 at II=2 keeps 5 values live. *)
  let lts = [ { Lifetime.vreg = 0; def_op = 0; start = 0; stop = 10 } ] in
  Alcotest.(check int) "five concurrent" 5 (Lifetime.max_lives ~ii:2 lts)

(* --- allocation ------------------------------------------------------------ *)

let test_alloc_requirement_ge_maxlives () =
  let loop = K.banded_matvec () in
  let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  let a = Alloc.allocate ~ii:s.Schedule.ii lts in
  Alcotest.(check bool) "req >= maxlives" true (a.Alloc.required >= a.Alloc.max_lives);
  Alcotest.(check bool) "req close to maxlives" true
    (a.Alloc.required <= a.Alloc.max_lives + 6)

let test_alloc_assignment_no_overlap () =
  (* Residual arcs in the same register must be pairwise disjoint on
     the ring: verify via per-slot occupancy counts. *)
  let loop = K.state_equation () in
  let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  let ii = s.Schedule.ii in
  let a = Alloc.allocate ~ii lts in
  let by_reg = Hashtbl.create 16 in
  List.iter
    (fun (asg : Alloc.assignment) ->
      if asg.Alloc.register >= 0 then begin
        let lt = List.find (fun l -> l.Lifetime.vreg = asg.Alloc.vreg) lts in
        let len = Lifetime.length lt mod ii in
        let start = ((lt.Lifetime.start mod ii) + ii) mod ii in
        let existing = Option.value ~default:[] (Hashtbl.find_opt by_reg asg.Alloc.register) in
        Hashtbl.replace by_reg asg.Alloc.register ((start, len) :: existing)
      end)
    a.Alloc.assignments;
  Hashtbl.iter
    (fun _reg arcs ->
      let cover = Array.make ii 0 in
      List.iter
        (fun (s0, len) ->
          for k = 0 to len - 1 do
            let slot = (s0 + k) mod ii in
            cover.(slot) <- cover.(slot) + 1
          done)
        arcs;
      Array.iter (fun c -> Alcotest.(check bool) "no double booking" true (c <= 1)) cover)
    by_reg

let test_alloc_empty () =
  let a = Alloc.allocate ~ii:4 [] in
  Alcotest.(check int) "no registers" 0 a.Alloc.required

(* --- allocation kernels vs the list-based reference --------------------------- *)

(* The list-based MaxLives and allocator that the difference-array and
   bucketed kernels replaced, kept verbatim as a test-only reference:
   the kernels must return structurally equal results on every input. *)
module Reference = struct
  open Alloc

  let max_lives ~ii lifetimes =
    if ii <= 0 then invalid_arg "Lifetime.max_lives: ii must be positive";
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

  let allocate ~ii lifetimes =
    let max_lives = max_lives ~ii lifetimes in
    (* Split every lifetime into whole registers plus a residual arc. *)
    let items =
      List.map
        (fun (lt : Lifetime.t) ->
          let len = Lifetime.length lt in
          let whole = len / ii and rem = len mod ii in
          let start = ((lt.Lifetime.start mod ii) + ii) mod ii in
          (lt.Lifetime.vreg, whole, if rem = 0 then None else Some (start, rem)))
        lifetimes
    in
    let with_arcs =
      List.filter_map
        (fun (v, w, arc) -> match arc with Some a -> Some (v, w, a) | None -> None)
        items
    in
    let pending = ref (List.sort (fun (_, _, a1) (_, _, a2) -> compare a1 a2) with_arcs) in
    let num_registers = ref 0 in
    let arc_assignments = ref [] in
    while !pending <> [] do
      let reg = !num_registers in
      incr num_registers;
      (* Seed the chain with the earliest-starting remaining arc. *)
      (match !pending with
      | [] -> ()
      | ((v0, w0, (s0, l0)) as seed) :: _ ->
          pending := List.filter (fun x -> x != seed) !pending;
          arc_assignments := (v0, { vreg = v0; register = reg; whole_registers = w0 }) :: !arc_assignments;
          let used = ref l0 in
          let current_end = ref ((s0 + l0) mod ii) in
          let continue_chain = ref true in
          while !continue_chain do
            (* Smallest forward gap from the chain end that still fits. *)
            let best = ref None in
            List.iter
              (fun ((_, _, (s, l)) as cand) ->
                let gap = ((s - !current_end) mod ii + ii) mod ii in
                if !used + gap + l <= ii then
                  match !best with
                  | Some (_, best_gap) when best_gap <= gap -> ()
                  | _ -> best := Some (cand, gap))
              !pending;
            match !best with
            | None -> continue_chain := false
            | Some (((v, w, (s, l)) as cand), gap) ->
                pending := List.filter (fun x -> x != cand) !pending;
                arc_assignments :=
                  (v, { vreg = v; register = reg; whole_registers = w }) :: !arc_assignments;
                used := !used + gap + l;
                current_end := (s + l) mod ii
          done)
    done;
    let arc_assignments = !arc_assignments in
    let no_arc_assignments =
      List.filter_map
        (fun (v, w, arc) ->
          match arc with None -> Some (v, { vreg = v; register = -1; whole_registers = w }) | Some _ -> None)
        items
    in
    let assignments =
      List.map snd
        (List.sort
           (fun (v1, _) (v2, _) -> compare v1 v2)
           (arc_assignments @ no_arc_assignments))
    in
    let whole_total = List.fold_left (fun acc a -> acc + a.whole_registers) 0 assignments in
    { required = whole_total + !num_registers; max_lives; assignments; ii }
end

let agrees_with_reference ~ii lts =
  Lifetime.max_lives ~ii lts = Reference.max_lives ~ii lts
  && Alloc.allocate ~ii lts = Reference.allocate ~ii lts

(* Random rings: II 1-400, 0-300 lifetimes with distinct vregs in
   shuffled order, lengths 1..5*II with a quarter of them exact
   multiples of II (no residual arc), and starts up to 4*II so arcs
   wrap past slot II-1. *)
let gen_ring =
  QCheck.Gen.(
    int_range 1 400 >>= fun ii ->
    int_range 0 300 >>= fun n ->
    shuffle_l (List.init n (fun i -> 3 * i)) >>= fun vregs ->
    let lifetime vreg =
      map2
        (fun start len -> { Lifetime.vreg; def_op = vreg; start; stop = start + len })
        (int_range 0 (4 * ii))
        (frequency [ (3, int_range 1 (5 * ii)); (1, map (( * ) ii) (int_range 1 5)) ])
    in
    map (fun lts -> (ii, lts)) (flatten_l (List.map lifetime vregs)))

let arb_ring =
  QCheck.make
    ~print:(fun (ii, lts) ->
      Printf.sprintf "II %d: %s" ii
        (String.concat "; " (List.map (Format.asprintf "%a" Lifetime.pp) lts)))
    gen_ring

let prop_kernels_match_reference =
  QCheck.Test.make ~name:"MaxLives and allocation equal the list-based reference" ~count:300
    arb_ring (fun (ii, lts) -> agrees_with_reference ~ii lts)

(* Real probes: the sample's widened loops at the first II the
   scheduler finds, one above it, and 2x and 4x the MII, as the
   driver's escalation probes them. *)
let test_kernels_match_reference_on_probes () =
  List.iter
    (fun (x, y) ->
      let config = Config.xwy ~x ~y () in
      let resource = Resource.of_config config in
      Array.iter
        (fun loop ->
          let g = (fst (Wr_widen.Transform.widen loop ~width:y)).Loop.ddg in
          let first = Modulo.run resource ~cycle_model:cm g in
          let ii0 = first.Modulo.schedule.Schedule.ii and mii = first.Modulo.mii in
          List.iter
            (fun min_ii ->
              let s = (Modulo.run resource ~cycle_model:cm ~min_ii g).Modulo.schedule in
              let ii = s.Schedule.ii in
              if not (agrees_with_reference ~ii (Lifetime.of_schedule g s)) then
                Alcotest.failf "%s at %s, II %d: differs from the reference" loop.Loop.name
                  (Config.label config) ii)
            [ ii0; ii0 + 1; 2 * mii; 4 * mii ])
        (Wr_workload.Suite.sample 60))
    [ (2, 1); (4, 2); (1, 8) ]

(* --- spill ------------------------------------------------------------------ *)

let test_spill_choose_picks_longest () =
  let lts =
    [
      { Lifetime.vreg = 0; def_op = 0; start = 0; stop = 30 };
      { Lifetime.vreg = 1; def_op = 1; start = 0; stop = 6 };
      { Lifetime.vreg = 2; def_op = 2; start = 0; stop = 20 };
    ]
  in
  match Spill.choose ~ii:3 ~lifetimes:lts ~already_spilled:(fun _ -> false) ~deficit:1 with
  | Some plan ->
      Alcotest.(check bool) "longest first" true (List.hd plan.Spill.vregs = 0)
  | None -> Alcotest.fail "expected a plan"

let test_spill_choose_respects_already_spilled () =
  let lts = [ { Lifetime.vreg = 0; def_op = 0; start = 0; stop = 30 } ] in
  Alcotest.(check bool) "nothing left" true
    (Spill.choose ~ii:3 ~lifetimes:lts ~already_spilled:(fun _ -> true) ~deficit:1 = None)

let test_spill_choose_threshold_tracks_ii () =
  (* Regression: the worth-spilling threshold is max(4, II), not a flat
     4 — a lifetime must span a full kernel revolution before spilling
     it can save a register. *)
  let lts = [ { Lifetime.vreg = 0; def_op = 0; start = 0; stop = 8 } ] in
  Alcotest.(check bool) "length 8 saves nothing at II 10" true
    (Spill.choose ~ii:10 ~lifetimes:lts ~already_spilled:(fun _ -> false) ~deficit:1 = None);
  Alcotest.(check bool) "length 8 is worth spilling at II 3" true
    (Spill.choose ~ii:3 ~lifetimes:lts ~already_spilled:(fun _ -> false) ~deficit:1 <> None)

let test_spill_apply_memoizes_reloads () =
  (* Regression: a consumer reading the same spilled vreg twice at the
     same distance (fmul x x) gets one shared reload, not two identical
     loads. *)
  let square () =
    let b = Wr_ir.Builder.create () in
    let x = Wr_ir.Builder.load b ~array_id:0 () in
    let y = Wr_ir.Builder.fmul b x x in
    Wr_ir.Builder.store b ~array_id:1 () y;
    Wr_ir.Builder.finish b ~trip_count:10 ()
  in
  let loop = square () in
  let g = loop.Loop.ddg in
  let r = Option.get (Ddg.op g 0).Operation.def in
  let res = Spill.apply g ~vregs:[ r ] in
  Alcotest.(check int) "one reload serves both operands" 1 res.Spill.loads_added;
  (* Reads at distinct distances still need distinct reloads: the slot
     written [d] iterations earlier is a different address. *)
  let b = Wr_ir.Builder.create () in
  let x = Wr_ir.Builder.load b ~array_id:0 () in
  let y = Wr_ir.Builder.fmul b x (Wr_ir.Builder.carried x ~distance:1) in
  Wr_ir.Builder.store b ~array_id:1 () y;
  let loop = Wr_ir.Builder.finish b ~trip_count:10 () in
  let g = loop.Loop.ddg in
  let r = Option.get (Ddg.op g 0).Operation.def in
  let res = Spill.apply g ~vregs:[ r ] in
  Alcotest.(check int) "distance-distinct reads keep separate reloads" 2 res.Spill.loads_added

let test_spill_apply_structure () =
  let loop = K.banded_matvec () in
  let g = loop.Loop.ddg in
  (* Spill the first load's result (vreg of op 0). *)
  let r = Option.get (Ddg.op g 0).Operation.def in
  let res = Spill.apply g ~vregs:[ r ] in
  Alcotest.(check int) "one store added" 1 res.Spill.stores_added;
  Alcotest.(check bool) "loads added per use" true (res.Spill.loads_added >= 1);
  Alcotest.(check int) "op count grows" (Ddg.num_ops g + 1 + res.Spill.loads_added)
    (Ddg.num_ops res.Spill.graph);
  (* The spilled register now has exactly one consumer: the store. *)
  Alcotest.(check int) "only the store reads it" 1 (List.length (Ddg.users res.Spill.graph r))

let test_spill_apply_preserves_schedulability () =
  let loop = K.state_equation () in
  let g = loop.Loop.ddg in
  let r = Option.get (Ddg.op g 0).Operation.def in
  let res = Spill.apply g ~vregs:[ r ] in
  let resource = Resource.of_config (Config.xwy ~x:2 ~y:1 ()) in
  let result = Modulo.run resource ~cycle_model:cm res.Spill.graph in
  Alcotest.(check bool) "spilled graph schedules" true
    (Result.is_ok (Schedule.validate res.Spill.graph resource result.Modulo.schedule))

let test_spill_reduces_pressure () =
  let loop = K.state_equation () in
  let cfg = Config.xwy ~x:4 ~y:1 () in
  let s0 = sched loop cfg in
  let lts0 = Lifetime.of_schedule loop.Loop.ddg s0 in
  let a0 = Alloc.allocate ~ii:s0.Schedule.ii lts0 in
  (* Spill the two longest lifetimes and reschedule at the same II. *)
  match
    Spill.choose ~ii:s0.Schedule.ii ~lifetimes:lts0 ~already_spilled:(fun _ -> false)
      ~deficit:2
  with
  | None -> Alcotest.fail "expected spill candidates"
  | Some plan ->
      let res = Spill.apply loop.Loop.ddg ~vregs:plan.Spill.vregs in
      let resource = Resource.of_config cfg in
      let r1 = Modulo.run resource ~cycle_model:cm ~min_ii:s0.Schedule.ii res.Spill.graph in
      let lts1 = Lifetime.of_schedule res.Spill.graph r1.Modulo.schedule in
      let a1 = Alloc.allocate ~ii:r1.Modulo.schedule.Schedule.ii lts1 in
      Alcotest.(check bool)
        (Printf.sprintf "pressure drops or holds (%d -> %d)" a0.Alloc.required a1.Alloc.required)
        true
        (a1.Alloc.required <= a0.Alloc.required + 1)

(* --- driver ------------------------------------------------------------------ *)

let test_driver_no_spill_when_fits () =
  let loop = K.daxpy () in
  let resource = Resource.of_config (Config.xwy ~x:1 ~y:1 ()) in
  match Driver.run resource ~cycle_model:cm ~registers:64 loop.Loop.ddg with
  | Driver.Scheduled s ->
      Alcotest.(check int) "no spill" 0 s.Driver.stores_added;
      Alcotest.(check int) "no rounds" 0 s.Driver.spill_rounds
  | Driver.Unschedulable m -> Alcotest.fail m

let test_driver_spills_under_pressure () =
  (* 8 buses/16 FPUs at 24 registers forces action on a parallel kernel. *)
  let loop = K.banded_matvec () in
  let resource = Resource.of_config (Config.xwy ~x:8 ~y:1 ()) in
  match Driver.run resource ~cycle_model:cm ~registers:24 loop.Loop.ddg with
  | Driver.Scheduled s ->
      Alcotest.(check bool) "fits the file" true
        (s.Driver.alloc.Wr_regalloc.Alloc.required <= 24);
      Alcotest.(check bool) "paid something for it" true
        (s.Driver.stores_added > 0 || s.Driver.schedule.Schedule.ii > s.Driver.mii)
  | Driver.Unschedulable _ ->
      (* Also acceptable: the file is genuinely too small.  But 24
         registers should be reachable by slowing down. *)
      Alcotest.fail "expected the driver to converge at 24 registers"

let test_driver_gives_up_eventually () =
  let loop = K.banded_matvec () in
  let resource = Resource.of_config (Config.xwy ~x:8 ~y:1 ()) in
  match Driver.run resource ~cycle_model:cm ~registers:2 loop.Loop.ddg with
  | Driver.Scheduled _ -> Alcotest.fail "2 registers cannot hold a banded matvec"
  | Driver.Unschedulable _ -> ()

let test_driver_rejects_bad_registers () =
  let loop = K.daxpy () in
  let resource = Resource.of_config (Config.xwy ~x:1 ~y:1 ()) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Driver.run resource ~cycle_model:cm ~registers:0 loop.Loop.ddg);
       false
     with Invalid_argument _ -> true)

(* --- properties --------------------------------------------------------------- *)

let random_loop seed =
  let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 4321)) in
  Wr_workload.Generator.generate_one rng Wr_workload.Generator.default ~index:seed

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 3000)

let prop_alloc_within_bound =
  (* MaxLives is only the density lower bound: on a ring of
     circumference II, arcs longer than II/2 pairwise intersect, so the
     chromatic number can exceed the density (classic circular-arc
     fact).  The allocator must stay between the density bound and the
     trivial one-register-per-arc upper bound, and within 2x density +
     slack. *)
  QCheck.Test.make ~name:"end-fit between MaxLives and trivial bounds" ~count:60 gen_seed
    (fun seed ->
      let loop = random_loop seed in
      let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
      let lts = Lifetime.of_schedule loop.Loop.ddg s in
      let a = Alloc.allocate ~ii:s.Schedule.ii lts in
      let trivial =
        List.fold_left
          (fun acc lt -> acc + ((Lifetime.length lt + s.Schedule.ii - 1) / s.Schedule.ii))
          0 lts
      in
      a.Alloc.required >= a.Alloc.max_lives
      && a.Alloc.required <= trivial
      && a.Alloc.required <= (2 * a.Alloc.max_lives) + 4)

let prop_driver_result_fits =
  QCheck.Test.make ~name:"driver success implies requirement <= file" ~count:40 gen_seed
    (fun seed ->
      let loop = random_loop seed in
      let resource = Resource.of_config (Config.xwy ~x:4 ~y:1 ()) in
      match Driver.run resource ~cycle_model:cm ~registers:48 loop.Loop.ddg with
      | Driver.Scheduled s ->
          s.Driver.alloc.Wr_regalloc.Alloc.required <= 48
          && Result.is_ok
               (Schedule.validate s.Driver.graph resource s.Driver.schedule)
      | Driver.Unschedulable _ -> true)

let prop_spilled_graph_valid =
  QCheck.Test.make ~name:"spill rewriting yields valid graphs" ~count:40 gen_seed (fun seed ->
      let loop = random_loop seed in
      let g = loop.Loop.ddg in
      let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
      let lts = Lifetime.of_schedule g s in
      match
        Spill.choose ~ii:s.Schedule.ii ~lifetimes:lts ~already_spilled:(fun _ -> false)
          ~deficit:3
      with
      | None -> true
      | Some plan ->
          let res = Spill.apply g ~vregs:plan.Spill.vregs in
          (* Ddg.create inside apply validates; sanity-check counters. *)
          res.Spill.stores_added = List.length res.Spill.spilled
          || res.Spill.stores_added <= List.length res.Spill.spilled)

let () =
  Alcotest.run "wr_regalloc"
    [
      ( "lifetime",
        [
          Alcotest.test_case "daxpy" `Quick test_lifetimes_daxpy;
          Alcotest.test_case "carried use" `Quick test_lifetime_carried_use_extends;
          Alcotest.test_case "dead value" `Quick test_lifetime_dead_value;
          Alcotest.test_case "max_lives simple" `Quick test_max_lives_simple;
          Alcotest.test_case "max_lives long" `Quick test_max_lives_long_lifetime;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "requirement bound" `Quick test_alloc_requirement_ge_maxlives;
          Alcotest.test_case "no overlap" `Quick test_alloc_assignment_no_overlap;
          Alcotest.test_case "empty" `Quick test_alloc_empty;
          Alcotest.test_case "equals the reference on real probes" `Quick
            test_kernels_match_reference_on_probes;
        ] );
      ( "spill",
        [
          Alcotest.test_case "choose longest" `Quick test_spill_choose_picks_longest;
          Alcotest.test_case "already spilled" `Quick test_spill_choose_respects_already_spilled;
          Alcotest.test_case "threshold tracks II" `Quick test_spill_choose_threshold_tracks_ii;
          Alcotest.test_case "memoized reloads" `Quick test_spill_apply_memoizes_reloads;
          Alcotest.test_case "apply structure" `Quick test_spill_apply_structure;
          Alcotest.test_case "schedulable after" `Quick test_spill_apply_preserves_schedulability;
          Alcotest.test_case "reduces pressure" `Quick test_spill_reduces_pressure;
        ] );
      ( "driver",
        [
          Alcotest.test_case "no spill when fits" `Quick test_driver_no_spill_when_fits;
          Alcotest.test_case "spills under pressure" `Quick test_driver_spills_under_pressure;
          Alcotest.test_case "gives up eventually" `Quick test_driver_gives_up_eventually;
          Alcotest.test_case "rejects bad registers" `Quick test_driver_rejects_bad_registers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_alloc_within_bound;
            prop_driver_result_fits;
            prop_spilled_graph_valid;
            prop_kernels_match_reference;
          ] );
    ]
