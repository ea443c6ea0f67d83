(* Tests for wr_sched: MII bounds, the modulo reservation table, and
   the iterative modulo scheduler (including schedule-legality
   properties over random loops and configurations). *)

module Ddg = Wr_ir.Ddg
module Loop = Wr_ir.Loop
module Opcode = Wr_ir.Opcode
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Mii = Wr_sched.Mii
module Mrt = Wr_sched.Mrt
module Modulo = Wr_sched.Modulo
module Schedule = Wr_sched.Schedule
module K = Wr_workload.Kernels

let cm = Cycle_model.Cycles_4

let resource_1w1 = Resource.of_config (Config.xwy ~x:1 ~y:1 ())

(* --- MII ----------------------------------------------------------------- *)

let test_res_mii_daxpy () =
  let loop = K.daxpy () in
  (* 3 memory ops on 1 bus. *)
  Alcotest.(check int) "1w1 bus bound" 3 (Mii.res_mii resource_1w1 ~cycle_model:cm loop.Loop.ddg);
  let r4 = Resource.of_config (Config.xwy ~x:4 ~y:1 ()) in
  Alcotest.(check int) "4w1" 1 (Mii.res_mii r4 ~cycle_model:cm loop.Loop.ddg)

let test_res_mii_divide_occupancy () =
  let loop = K.pointwise_divide () in
  (* One unpipelined divide occupies an FPU for 19 cycles; 2 FPUs. *)
  let expected = (19 + 1) / 2 in
  Alcotest.(check int) "div occupancy" expected
    (Mii.res_mii resource_1w1 ~cycle_model:cm loop.Loop.ddg)

let test_rec_mii_acyclic () =
  let loop = K.daxpy () in
  Alcotest.(check int) "acyclic rec_mii" 1 (Mii.rec_mii ~cycle_model:cm loop.Loop.ddg);
  Alcotest.(check (float 1e-9)) "acyclic rate" 0.0 (Mii.rec_rate ~cycle_model:cm loop.Loop.ddg)

let test_rec_mii_accumulator () =
  let loop = K.dot_product () in
  (* s += p through a latency-4 fadd at distance 1. *)
  Alcotest.(check int) "rec_mii 4" 4 (Mii.rec_mii ~cycle_model:cm loop.Loop.ddg);
  Alcotest.(check (float 1e-6)) "rate 4" 4.0 (Mii.rec_rate ~cycle_model:cm loop.Loop.ddg)

let test_rec_mii_divide_recurrence () =
  let loop = K.prefix_max_ratio () in
  (* m(i) = m(i-1)/y(i): a 19-cycle divide on the cycle. *)
  Alcotest.(check int) "rec_mii 19" 19 (Mii.rec_mii ~cycle_model:cm loop.Loop.ddg)

let test_rec_mii_under_faster_model () =
  let loop = K.prefix_max_ratio () in
  Alcotest.(check int) "2-cycles model div=10" 10
    (Mii.rec_mii ~cycle_model:Cycle_model.Cycles_2 loop.Loop.ddg)

let test_rec_mii_distance_2 () =
  let b = Wr_ir.Builder.create () in
  let x = Wr_ir.Builder.load b ~array_id:0 () in
  let _s = Wr_ir.Builder.feedback b ~distance:2 ~f:(fun prev -> Wr_ir.Builder.fadd b prev x) in
  let loop = Wr_ir.Builder.finish b ~trip_count:10 () in
  (* latency 4 over distance 2. *)
  Alcotest.(check int) "ceil(4/2)" 2 (Mii.rec_mii ~cycle_model:cm loop.Loop.ddg);
  Alcotest.(check (float 1e-6)) "rate 2" 2.0 (Mii.rec_rate ~cycle_model:cm loop.Loop.ddg)

(* --- MRT ----------------------------------------------------------------- *)

let test_mrt_basic () =
  let mrt = Mrt.create ~ii:4 resource_1w1 in
  Alcotest.(check bool) "empty accepts" true (Mrt.can_place mrt Opcode.Bus ~time:2 ~occupancy:1);
  Mrt.place mrt Opcode.Bus ~time:2 ~occupancy:1;
  Alcotest.(check bool) "slot full" false (Mrt.can_place mrt Opcode.Bus ~time:6 ~occupancy:1);
  Alcotest.(check bool) "other slot free" true (Mrt.can_place mrt Opcode.Bus ~time:3 ~occupancy:1);
  Mrt.remove mrt Opcode.Bus ~time:2 ~occupancy:1;
  Alcotest.(check bool) "freed" true (Mrt.can_place mrt Opcode.Bus ~time:6 ~occupancy:1)

let test_mrt_occupancy_wrap () =
  (* occupancy 19 at II 8 covers every slot at least twice, some thrice. *)
  let r2 = Resource.of_config (Config.xwy ~x:1 ~y:1 ()) in
  (* 2 FPUs *)
  let mrt = Mrt.create ~ii:8 r2 in
  Alcotest.(check bool) "19-cycle divide needs 3 high slots" false
    (Mrt.can_place mrt Opcode.Fpu ~time:0 ~occupancy:19);
  Alcotest.(check bool) "16 cycles exactly fills both units" true
    (Mrt.can_place mrt Opcode.Fpu ~time:0 ~occupancy:16)

let test_mrt_negative_time () =
  let mrt = Mrt.create ~ii:5 resource_1w1 in
  Mrt.place mrt Opcode.Bus ~time:(-3) ~occupancy:1;
  Alcotest.(check int) "wraps to slot 2" 1 (Mrt.usage mrt Opcode.Bus ~slot:2)

let test_mrt_over_subscription_raises () =
  let mrt = Mrt.create ~ii:2 resource_1w1 in
  Mrt.place mrt Opcode.Bus ~time:0 ~occupancy:1;
  Alcotest.(check bool) "raises" true
    (try
       Mrt.place mrt Opcode.Bus ~time:2 ~occupancy:1;
       false
     with Invalid_argument _ -> true)

let test_mrt_reset_reuses_table () =
  let mrt = Mrt.create ~ii:4 resource_1w1 in
  Mrt.place mrt Opcode.Bus ~time:1 ~occupancy:1;
  Mrt.reset mrt ~ii:6;
  Alcotest.(check int) "new ii" 6 (Mrt.ii mrt);
  for s = 0 to 5 do
    Alcotest.(check int) (Printf.sprintf "slot %d clean" s) 0 (Mrt.usage mrt Opcode.Bus ~slot:s)
  done;
  (* Shrinking re-arms the same arrays; stale counts beyond the old II
     must not leak back in. *)
  Mrt.place mrt Opcode.Bus ~time:5 ~occupancy:1;
  Mrt.reset mrt ~ii:3;
  for s = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "shrunk slot %d clean" s) 0
      (Mrt.usage mrt Opcode.Bus ~slot:s)
  done

(* --- flat edge view vs the list representation --------------------------- *)

(* The scheduler's hot kernels run over [Ddg.edge_view]'s CSR arrays;
   these tests pin them to the [Ddg.edges] list they were compiled
   from, on the handwritten kernels and on generated loops. *)

let cross_check_loops () =
  List.map snd (K.all ())
  @ List.init 25 (fun seed ->
        let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 4321)) in
        Wr_workload.Generator.generate_one rng Wr_workload.Generator.default ~index:seed)

let edge_delay g (e : Wr_ir.Dependence.t) =
  Wr_ir.Dependence.delay_rule e.Wr_ir.Dependence.kind
    ~producer_latency:
      (Cycle_model.latency_of_op cm
         (Ddg.op g e.Wr_ir.Dependence.src).Wr_ir.Operation.opcode)

let test_edge_view_matches_edge_list () =
  List.iter
    (fun (loop : Loop.t) ->
      let g = loop.Loop.ddg in
      let v = Ddg.edge_view g in
      let edges = Ddg.edges g in
      Alcotest.(check int) "edge count" (List.length edges) v.Ddg.n_edges;
      let delays = Mii.edge_delays ~cycle_model:cm g in
      List.iteri
        (fun i (e : Wr_ir.Dependence.t) ->
          Alcotest.(check int) "src" e.Wr_ir.Dependence.src v.Ddg.e_src.(i);
          Alcotest.(check int) "dst" e.Wr_ir.Dependence.dst v.Ddg.e_dst.(i);
          Alcotest.(check int) "distance" e.Wr_ir.Dependence.distance v.Ddg.e_dist.(i);
          Alcotest.(check int) "delay" (edge_delay g e) delays.(i))
        edges)
    (cross_check_loops ())

(* Reference heights: fixpoint iteration straight off the edge list. *)
let reference_heights g ~ii =
  let h = Array.make (Ddg.num_ops g) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (e : Wr_ir.Dependence.t) ->
        let v =
          edge_delay g e - (ii * e.Wr_ir.Dependence.distance) + h.(e.Wr_ir.Dependence.dst)
        in
        if v > h.(e.Wr_ir.Dependence.src) then begin
          h.(e.Wr_ir.Dependence.src) <- v;
          changed := true
        end)
      (Ddg.edges g)
  done;
  h

let test_heights_match_reference () =
  List.iter
    (fun (loop : Loop.t) ->
      let g = loop.Loop.ddg in
      let rec_mii = Mii.rec_mii ~cycle_model:cm g in
      List.iter
        (fun ii ->
          Alcotest.(check (array int))
            (Printf.sprintf "heights at ii=%d" ii)
            (reference_heights g ~ii)
            (Modulo.heights ~cycle_model:cm g ~ii))
        [ rec_mii; rec_mii + 1; rec_mii + 3 ])
    (cross_check_loops ())

(* Reference RecMII: linear scan over candidate IIs, positive-cycle
   detection by Bellman-Ford on the edge list. *)
let reference_rec_mii g =
  let n = Ddg.num_ops g in
  let feasible ii =
    let dist = Array.make n 0 in
    let changed = ref true and pass = ref 0 in
    while !changed && !pass <= n do
      changed := false;
      incr pass;
      List.iter
        (fun (e : Wr_ir.Dependence.t) ->
          let v =
            dist.(e.Wr_ir.Dependence.src)
            + edge_delay g e
            - (ii * e.Wr_ir.Dependence.distance)
          in
          if v > dist.(e.Wr_ir.Dependence.dst) then begin
            dist.(e.Wr_ir.Dependence.dst) <- v;
            changed := true
          end)
        (Ddg.edges g)
    done;
    not !changed
  in
  let rec scan ii = if feasible ii then ii else scan (ii + 1) in
  scan 1

let test_rec_mii_matches_reference () =
  List.iter
    (fun (loop : Loop.t) ->
      let g = loop.Loop.ddg in
      Alcotest.(check int) "rec_mii" (reference_rec_mii g) (Mii.rec_mii ~cycle_model:cm g))
    (cross_check_loops ())

(* --- scheduling on kernels ------------------------------------------------ *)

let schedule_kernel loop config =
  let r = Resource.of_config config in
  Modulo.run r ~cycle_model:cm loop.Loop.ddg

let test_schedule_daxpy_1w1 () =
  let result = schedule_kernel (K.daxpy ()) (Config.xwy ~x:1 ~y:1 ()) in
  Alcotest.(check int) "II = MII = 3" 3 result.Modulo.schedule.Schedule.ii

let test_schedule_reaches_mii_on_kernels () =
  (* On these small kernels the scheduler should always achieve the
     MII. *)
  List.iter
    (fun (name, loop) ->
      let result = schedule_kernel loop (Config.xwy ~x:2 ~y:1 ()) in
      Alcotest.(check int) (name ^ " ii=mii") result.Modulo.mii
        result.Modulo.schedule.Schedule.ii)
    (K.all ())

let test_schedule_empty_graph () =
  let g = Ddg.create ~num_vregs:0 ~ops:[||] ~edges:[] in
  let result = Modulo.run resource_1w1 ~cycle_model:cm g in
  Alcotest.(check int) "empty II" 1 result.Modulo.schedule.Schedule.ii

let test_schedule_min_ii () =
  let loop = K.daxpy () in
  let result = Modulo.run resource_1w1 ~cycle_model:cm ~min_ii:10 loop.Loop.ddg in
  Alcotest.(check int) "forced II" 10 result.Modulo.schedule.Schedule.ii;
  Alcotest.(check bool) "still valid" true
    (Result.is_ok (Schedule.validate loop.Loop.ddg resource_1w1 result.Modulo.schedule))

let test_schedule_stage_count () =
  let loop = K.horner () in
  let result = schedule_kernel loop (Config.xwy ~x:4 ~y:1 ()) in
  (* Horner has a long dependent chain: the pipeline must be deep. *)
  Alcotest.(check bool) "multiple stages" true
    (Schedule.stage_count result.Modulo.schedule > 2)

let test_validate_catches_bad_schedule () =
  let loop = K.daxpy () in
  let result = schedule_kernel loop (Config.xwy ~x:1 ~y:1 ()) in
  let times = Array.copy result.Modulo.schedule.Schedule.times in
  (* Clobber: put everything at cycle 0 — resources and deps break. *)
  Array.fill times 0 (Array.length times) 0;
  let bad = Schedule.make ~ii:result.Modulo.schedule.Schedule.ii ~times ~cycle_model:cm in
  Alcotest.(check bool) "invalid detected" true
    (Result.is_error (Schedule.validate loop.Loop.ddg resource_1w1 bad))

(* --- exhaustive search cross-check ------------------------------------------ *)

module Exact = Wr_sched.Exact

let test_search_kernels_at_mii () =
  (* The exact search confirms the kernels are schedulable at the MII —
     so when the heuristic reports II = MII it is optimal. *)
  List.iter
    (fun (name, loop) ->
      let g = loop.Loop.ddg in
      let mii = Mii.mii resource_1w1 ~cycle_model:cm g in
      match Exact.at_ii resource_1w1 ~cycle_model:cm ~ii:mii g with
      | Exact.Feasible _ -> ()
      | Exact.Infeasible -> Alcotest.fail (name ^ ": MII infeasible?")
      | Exact.Gave_up -> Alcotest.fail (name ^ ": search budget too small"))
    (K.all ())

let test_search_agrees_with_heuristic () =
  (* On small random loops the heuristic must achieve the same minimal
     II the exhaustive search finds. *)
  let checked = ref 0 in
  for seed = 0 to 120 do
    let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 777)) in
    let loop = Wr_workload.Generator.generate_one rng Wr_workload.Generator.default ~index:seed in
    if Ddg.num_ops loop.Loop.ddg <= 14 then begin
      incr checked;
      let g = loop.Loop.ddg in
      match Exact.min_ii resource_1w1 ~cycle_model:cm g with
      | None -> ()
      | Some (best_ii, _) ->
          let r = Modulo.run resource_1w1 ~cycle_model:cm g in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: heuristic %d vs optimal %d" seed
               r.Modulo.schedule.Schedule.ii best_ii)
            true
            (r.Modulo.schedule.Schedule.ii <= best_ii + 1)
    end
  done;
  Alcotest.(check bool) "enough samples" true (!checked > 20)

let test_search_detects_infeasible () =
  (* daxpy needs 3 bus slots per iteration: II=2 on one bus is
     impossible, and the search must prove it. *)
  let loop = K.daxpy () in
  match Exact.at_ii resource_1w1 ~cycle_model:cm ~ii:2 loop.Loop.ddg with
  | Exact.Infeasible -> ()
  | Exact.Feasible _ -> Alcotest.fail "II=2 cannot fit 3 memory ops on one bus"
  | Exact.Gave_up -> Alcotest.fail "budget too small for a 5-op loop"

(* --- exact backend -------------------------------------------------------- *)

module Backend = Wr_sched.Backend

let test_exact_refines_kernels () =
  (* The refinement invariants on every kernel: MII <= exact II <=
     heuristic II, and the schedule passes both the internal validator
     and the independent oracle. *)
  List.iter
    (fun (name, loop) ->
      let g = loop.Loop.ddg in
      let r = Exact.solve resource_1w1 ~cycle_model:cm g in
      let mii = Mii.mii resource_1w1 ~cycle_model:cm g in
      Alcotest.(check bool)
        (Printf.sprintf "%s: II %d >= MII %d" name r.Exact.ii mii)
        true (r.Exact.ii >= mii);
      Alcotest.(check bool)
        (Printf.sprintf "%s: II %d <= heuristic %d" name r.Exact.ii
           r.Exact.base.Modulo.schedule.Schedule.ii)
        true
        (r.Exact.ii <= r.Exact.base.Modulo.schedule.Schedule.ii);
      (match Schedule.validate g resource_1w1 r.Exact.schedule with
      | Ok () -> ()
      | Error m -> Alcotest.fail (name ^ ": exact schedule invalid: " ^ m));
      match Wr_check.Oracle.check_schedule g resource_1w1 r.Exact.schedule with
      | [] -> ()
      | vs -> Alcotest.fail (name ^ ": " ^ Wr_check.Oracle.to_string vs))
    (K.all ())

let test_exact_proves_kernels_optimal () =
  (* Every handwritten kernel is schedulable at its MII on 1w1, so the
     exact backend must prove the heuristic's result optimal. *)
  List.iter
    (fun (name, loop) ->
      let r = Exact.solve resource_1w1 ~cycle_model:cm loop.Loop.ddg in
      match r.Exact.status with
      | Exact.Proved_optimal -> ()
      | Exact.Feasible_unproved -> Alcotest.fail (name ^ ": optimality left unproved")
      | Exact.Fallback -> Alcotest.fail (name ^ ": search gave up on a small kernel"))
    (K.all ())

let test_exact_budget_expired_falls_back () =
  (* A zero node budget gives up every II attempt at its first node:
     the exact backend must return the heuristic schedule unchanged
     (Fallback), and do so deterministically under different pool
     sizes. *)
  let loop = K.banded_matvec () in
  let g = loop.Loop.ddg in
  (* Slow the base down so the refinement window [mii, heur_ii - 1] is
     non-empty — a base already at the MII is proved optimal without
     any search, budget or not. *)
  let mii = Mii.mii resource_1w1 ~cycle_model:cm g in
  let heur = Modulo.run resource_1w1 ~cycle_model:cm ~min_ii:(mii + 2) g in
  let solve_under ~jobs =
    let pool = Wr_util.Pool.create ~jobs () in
    let results =
      Wr_util.Pool.parallel_list_map ~pool [ 0; 1; 2 ] ~f:(fun _ ->
          Exact.solve resource_1w1 ~cycle_model:cm ~max_nodes:0 ~base:heur g)
    in
    Wr_util.Pool.shutdown pool;
    results
  in
  let all = solve_under ~jobs:1 @ solve_under ~jobs:4 in
  List.iter
    (fun (r : Exact.t) ->
      Alcotest.(check bool) "fallback status" true (r.Exact.status = Exact.Fallback);
      Alcotest.(check int) "heuristic II preserved" heur.Modulo.schedule.Schedule.ii
        r.Exact.ii;
      Alcotest.(check bool) "heuristic times preserved" true
        (r.Exact.schedule.Schedule.times = heur.Modulo.schedule.Schedule.times))
    all

let test_exact_improves_forced_suboptimal () =
  (* Feed the exact backend a deliberately slowed heuristic result
     (min_ii forces II = MII + 3): the search must recover the optimum
     and report a positive gap closed, never a regression. *)
  let loop = K.daxpy () in
  let g = loop.Loop.ddg in
  let mii = Mii.mii resource_1w1 ~cycle_model:cm g in
  let slow = Modulo.run resource_1w1 ~cycle_model:cm ~min_ii:(mii + 3) g in
  let r = Exact.solve resource_1w1 ~cycle_model:cm ~base:slow g in
  Alcotest.(check int) "recovers the MII" mii r.Exact.ii;
  Alcotest.(check bool) "proved" true (r.Exact.status = Exact.Proved_optimal)

let test_backend_of_string () =
  Alcotest.(check bool) "exact" true (Backend.of_string "exact" = Some Backend.Exact);
  Alcotest.(check bool) "bnb alias" true (Backend.of_string "BnB" = Some Backend.Exact);
  Alcotest.(check bool) "hrms alias" true (Backend.of_string "hrms" = Some Backend.Heuristic);
  Alcotest.(check bool) "junk rejected" true (Backend.of_string "simulated-annealing" = None)

let test_backend_run_matches_modulo () =
  (* The heuristic backend is the byte-identical default; the exact
     backend must never be slower than it. *)
  let saved = Backend.current () in
  Fun.protect
    ~finally:(fun () -> Backend.set saved)
    (fun () ->
      List.iter
        (fun (name, loop) ->
          let g = loop.Loop.ddg in
          let reference = Modulo.run resource_1w1 ~cycle_model:cm g in
          Backend.set Backend.Heuristic;
          let h = Backend.run resource_1w1 ~cycle_model:cm g in
          Alcotest.(check bool)
            (name ^ ": heuristic backend is Modulo.run")
            true
            (h.Modulo.schedule.Schedule.times = reference.Modulo.schedule.Schedule.times
            && h.Modulo.schedule.Schedule.ii = reference.Modulo.schedule.Schedule.ii);
          Backend.set Backend.Exact;
          let e = Backend.run resource_1w1 ~cycle_model:cm g in
          Alcotest.(check bool)
            (name ^ ": exact backend no slower")
            true
            (e.Modulo.schedule.Schedule.ii <= reference.Modulo.schedule.Schedule.ii))
        (K.all ()))

(* --- drain/fill and diagnostic regressions -------------------------------- *)

let test_schedule_cycles_short_trips () =
  (* Regression: cycles once returned ii * trip_count, which undercounts
     the pipeline drain for real trip counts and overcounts trip 0. *)
  let loop = K.daxpy () in
  let r = Modulo.run resource_1w1 ~cycle_model:cm loop.Loop.ddg in
  let s = r.Modulo.schedule in
  Alcotest.(check int) "trip 0 costs nothing" 0 (Schedule.cycles s ~trip_count:0);
  Alcotest.(check int) "trip 1 is the full span" (Schedule.span s)
    (Schedule.cycles s ~trip_count:1);
  Alcotest.(check int) "trip 5 adds 4 IIs"
    ((4 * s.Schedule.ii) + Schedule.span s)
    (Schedule.cycles s ~trip_count:5);
  Alcotest.(check bool) "negative trip rejected" true
    (try
       ignore (Schedule.cycles s ~trip_count:(-1));
       false
     with Invalid_argument _ -> true)

let test_mrt_remove_underflow_diagnoses () =
  (* Regression: removing a reservation that was never placed silently
     drove the usage count negative; it must now name the offender. *)
  let mrt = Mrt.create ~ii:4 resource_1w1 in
  Mrt.place mrt Opcode.Bus ~time:1 ~occupancy:1;
  Alcotest.(check bool) "phantom removal diagnosed" true
    (try
       Mrt.remove mrt Opcode.Bus ~time:2 ~occupancy:1;
       false
     with Invalid_argument msg ->
       (* The diagnostic must identify the class and the slot. *)
       let has sub =
         let n = String.length sub and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
         go 0
       in
       has "Mrt.remove" && has "slot");
  (* The placed reservation must still be removable afterwards. *)
  Mrt.remove mrt Opcode.Bus ~time:1 ~occupancy:1;
  Alcotest.(check int) "table drained" 0 (Mrt.usage mrt Opcode.Bus ~slot:1)

(* --- property: every schedule is legal ------------------------------------ *)

let random_loop seed =
  let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 1234)) in
  Wr_workload.Generator.generate_one rng Wr_workload.Generator.default ~index:seed

let gen_case =
  QCheck.make
    ~print:(fun (seed, xi, yi, cmi) ->
      Printf.sprintf "(seed=%d, x=%d, y=%d, cm=%d)" seed xi yi cmi)
    QCheck.Gen.(quad (int_bound 3000) (int_bound 3) (int_bound 3) (int_bound 3))

let configs = [| (1, 1); (2, 1); (4, 1); (8, 1) |]

let prop_schedules_are_legal =
  QCheck.Test.make ~name:"modulo schedules satisfy deps and resources" ~count:80 gen_case
    (fun (seed, xi, yi, cmi) ->
      let x, _ = configs.(xi) in
      let y = 1 lsl yi in
      let cycle_model =
        match cmi with 0 -> Cycle_model.Cycles_1 | 1 -> Cycle_model.Cycles_2 | 2 -> Cycle_model.Cycles_3 | _ -> Cycle_model.Cycles_4
      in
      let loop = random_loop seed in
      let wide, _ = Wr_widen.Transform.widen loop ~width:y in
      let resource = Resource.of_config (Config.xwy ~x ~y ()) in
      let result = Modulo.run resource ~cycle_model wide.Loop.ddg in
      match Schedule.validate wide.Loop.ddg resource result.Modulo.schedule with
      | Ok () -> true
      | Error _ -> false)

let prop_ii_at_least_mii =
  QCheck.Test.make ~name:"achieved II >= MII" ~count:80 gen_case (fun (seed, xi, _, _) ->
      let x, _ = configs.(xi) in
      let loop = random_loop seed in
      let resource = Resource.of_config (Config.xwy ~x ~y:1 ()) in
      let result = Modulo.run resource ~cycle_model:cm loop.Loop.ddg in
      result.Modulo.schedule.Schedule.ii >= result.Modulo.mii)

let prop_ii_close_to_mii =
  QCheck.Test.make ~name:"achieved II within 2x MII (quality)" ~count:60 gen_case
    (fun (seed, xi, _, _) ->
      let x, _ = configs.(xi) in
      let loop = random_loop seed in
      let resource = Resource.of_config (Config.xwy ~x ~y:1 ()) in
      let result = Modulo.run resource ~cycle_model:cm loop.Loop.ddg in
      result.Modulo.schedule.Schedule.ii <= (2 * result.Modulo.mii) + 2)

let prop_rec_mii_independent_of_resources =
  QCheck.Test.make ~name:"rec_mii does not depend on the machine" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 3000))
    (fun seed ->
      let loop = random_loop seed in
      let a = Mii.rec_mii ~cycle_model:cm loop.Loop.ddg in
      let b = Mii.rec_mii ~cycle_model:cm loop.Loop.ddg in
      a = b && a >= 1)

let prop_rec_rate_bounds_rec_mii =
  QCheck.Test.make ~name:"ceil(rec_rate) = rec_mii" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 3000))
    (fun seed ->
      let loop = random_loop seed in
      let rate = Mii.rec_rate ~cycle_model:cm loop.Loop.ddg in
      let mii = Mii.rec_mii ~cycle_model:cm loop.Loop.ddg in
      if rate = 0.0 then mii = 1
      else
        (* The integer bound is the rounded-up rate (within binary
           search tolerance). *)
        Float.abs (ceil (rate -. 1e-6) -. float_of_int mii) <= 1.0)

let () =
  Alcotest.run "wr_sched"
    [
      ( "mii",
        [
          Alcotest.test_case "res_mii daxpy" `Quick test_res_mii_daxpy;
          Alcotest.test_case "divide occupancy" `Quick test_res_mii_divide_occupancy;
          Alcotest.test_case "acyclic" `Quick test_rec_mii_acyclic;
          Alcotest.test_case "accumulator" `Quick test_rec_mii_accumulator;
          Alcotest.test_case "divide recurrence" `Quick test_rec_mii_divide_recurrence;
          Alcotest.test_case "faster model" `Quick test_rec_mii_under_faster_model;
          Alcotest.test_case "distance 2" `Quick test_rec_mii_distance_2;
        ] );
      ( "mrt",
        [
          Alcotest.test_case "basic" `Quick test_mrt_basic;
          Alcotest.test_case "occupancy wrap" `Quick test_mrt_occupancy_wrap;
          Alcotest.test_case "negative time" `Quick test_mrt_negative_time;
          Alcotest.test_case "over-subscription" `Quick test_mrt_over_subscription_raises;
          Alcotest.test_case "reset reuses table" `Quick test_mrt_reset_reuses_table;
        ] );
      ( "edge_view",
        [
          Alcotest.test_case "matches edge list" `Quick test_edge_view_matches_edge_list;
          Alcotest.test_case "heights vs reference" `Quick test_heights_match_reference;
          Alcotest.test_case "rec_mii vs reference" `Quick test_rec_mii_matches_reference;
        ] );
      ( "modulo",
        [
          Alcotest.test_case "daxpy 1w1" `Quick test_schedule_daxpy_1w1;
          Alcotest.test_case "kernels reach MII" `Quick test_schedule_reaches_mii_on_kernels;
          Alcotest.test_case "empty graph" `Quick test_schedule_empty_graph;
          Alcotest.test_case "min_ii" `Quick test_schedule_min_ii;
          Alcotest.test_case "stage count" `Quick test_schedule_stage_count;
          Alcotest.test_case "validate detects bad" `Quick test_validate_catches_bad_schedule;
        ] );
      ( "search",
        [
          Alcotest.test_case "kernels at MII" `Quick test_search_kernels_at_mii;
          Alcotest.test_case "agrees with heuristic" `Slow test_search_agrees_with_heuristic;
          Alcotest.test_case "detects infeasible" `Quick test_search_detects_infeasible;
        ] );
      ( "exact",
        [
          Alcotest.test_case "refinement invariants" `Quick test_exact_refines_kernels;
          Alcotest.test_case "proves kernels optimal" `Quick test_exact_proves_kernels_optimal;
          Alcotest.test_case "budget-expired fallback" `Quick test_exact_budget_expired_falls_back;
          Alcotest.test_case "improves forced suboptimal" `Quick
            test_exact_improves_forced_suboptimal;
          Alcotest.test_case "backend of_string" `Quick test_backend_of_string;
          Alcotest.test_case "backend run vs modulo" `Quick test_backend_run_matches_modulo;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "cycles short trips" `Quick test_schedule_cycles_short_trips;
          Alcotest.test_case "mrt remove underflow" `Quick test_mrt_remove_underflow_diagnoses;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_schedules_are_legal;
            prop_ii_at_least_mii;
            prop_ii_close_to_mii;
            prop_rec_mii_independent_of_resources;
            prop_rec_rate_bounds_rec_mii;
          ] );
    ]
