(* Tests for wr_check and the scheduler invariants it guards: the Mrt
   against a naive all-slots reference, Schedule.validate's
   over-subscription rejection, the oracles on real and corrupted
   pipeline results, and fuzz determinism. *)

module Ddg = Wr_ir.Ddg
module Loop = Wr_ir.Loop
module Opcode = Wr_ir.Opcode
module Operation = Wr_ir.Operation
module Memref = Wr_ir.Memref
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Mrt = Wr_sched.Mrt
module Modulo = Wr_sched.Modulo
module Schedule = Wr_sched.Schedule
module Lifetime = Wr_regalloc.Lifetime
module Alloc = Wr_regalloc.Alloc
module Spill = Wr_regalloc.Spill
module Oracle = Wr_check.Oracle
module Fuzz = Wr_check.Fuzz
module K = Wr_workload.Kernels
module Suite = Wr_workload.Suite
module Rng = Wr_util.Rng

let cm = Cycle_model.Cycles_4

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let sched loop config =
  let r = Resource.of_config config in
  (Modulo.run r ~cycle_model:cm loop.Loop.ddg).Modulo.schedule

(* --- Mrt vs a naive all-slots reference ----------------------------------- *)

(* The reference model: one plain int array per resource class, every
   reservation walked slot by slot — exactly what Mrt's windowed
   representation is optimized away from. *)
let classes = [| Opcode.Bus; Opcode.Fpu |]

let class_index = function Opcode.Bus -> 0 | Opcode.Fpu -> 1

let naive_can (naive : int array array) resource ~ii cls ~time ~occupancy =
  (* Walk the reservation cycle by cycle into a scratch copy: an
     occupancy beyond II lands on the same slot more than once and each
     landing charges a unit (interleaved iterations in steady state). *)
  let row = Array.copy naive.(class_index cls) in
  let cap = Resource.slots resource cls in
  let ok = ref true in
  for k = 0 to occupancy - 1 do
    let slot = ((time + k) mod ii + ii) mod ii in
    row.(slot) <- row.(slot) + 1;
    if row.(slot) > cap then ok := false
  done;
  !ok

let naive_bump (naive : int array array) ~ii cls ~time ~occupancy delta =
  let row = naive.(class_index cls) in
  for k = 0 to occupancy - 1 do
    let slot = ((time + k) mod ii + ii) mod ii in
    row.(slot) <- row.(slot) + delta
  done

let check_usage_matches t naive ~ii =
  Array.iter
    (fun cls ->
      for slot = 0 to ii - 1 do
        if Mrt.usage t cls ~slot <> naive.(class_index cls).(slot) then
          QCheck.Test.fail_reportf "usage mismatch: class %d slot %d: mrt %d, naive %d"
            (class_index cls) slot (Mrt.usage t cls ~slot)
            naive.(class_index cls).(slot)
      done)
    classes

let gen_seed = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 5000)

let prop_mrt_matches_naive =
  QCheck.Test.make ~name:"Mrt matches naive all-slots reference" ~count:120 gen_seed
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 77)) in
      let ii = 1 + Rng.int rng 12 in
      let resource = Resource.of_config (Config.xwy ~x:(1 + Rng.int rng 4) ~y:1 ()) in
      let t = Mrt.create ~ii resource in
      let naive = [| Array.make ii 0; Array.make ii 0 |] in
      let placed = ref [] in
      for _ = 0 to 39 do
        if Rng.bernoulli rng 0.25 && !placed <> [] then begin
          (* Remove a random prior reservation (one instance only —
             duplicates may legitimately coexist). *)
          let cls, time, occupancy = Rng.choose rng (Array.of_list !placed) in
          let dropped = ref false in
          placed :=
            List.filter
              (fun x ->
                if (not !dropped) && x = (cls, time, occupancy) then begin
                  dropped := true;
                  false
                end
                else true)
              !placed;
          Mrt.remove t cls ~time ~occupancy;
          naive_bump naive ~ii cls ~time ~occupancy (-1)
        end
        else begin
          let cls = Rng.choose rng classes in
          let time = Rng.int rng (3 * ii) in
          (* Occupancies beyond II exercise the wraparound saturation
             path (an unpipelined op longer than the kernel). *)
          let occupancy = 1 + Rng.int rng (2 * ii) in
          let expected = naive_can naive resource ~ii cls ~time ~occupancy in
          if Mrt.can_place t cls ~time ~occupancy <> expected then
            QCheck.Test.fail_reportf "can_place disagrees (ii %d, time %d, occ %d): naive %b"
              ii time occupancy expected;
          if expected then begin
            Mrt.place t cls ~time ~occupancy;
            naive_bump naive ~ii cls ~time ~occupancy 1;
            placed := (cls, time, occupancy) :: !placed
          end
          else begin
            (* A rejected reservation must raise if forced, and leave
               the table untouched. *)
            (match Mrt.place t cls ~time ~occupancy with
            | () -> QCheck.Test.fail_reportf "place succeeded where can_place said no"
            | exception Invalid_argument _ -> ());
            check_usage_matches t naive ~ii
          end
        end;
        check_usage_matches t naive ~ii
      done;
      true)

let prop_mrt_reset_clears =
  QCheck.Test.make ~name:"Mrt reset clears to empty at the new II" ~count:60 gen_seed
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int (seed + 13)) in
      let resource = Resource.of_config (Config.xwy ~x:2 ~y:1 ()) in
      let ii0 = 1 + Rng.int rng 8 in
      let t = Mrt.create ~ii:ii0 resource in
      for _ = 0 to 5 do
        let cls = Rng.choose rng classes in
        let time = Rng.int rng (2 * ii0) in
        let occupancy = 1 + Rng.int rng ii0 in
        if Mrt.can_place t cls ~time ~occupancy then Mrt.place t cls ~time ~occupancy
      done;
      let ii1 = 1 + Rng.int rng 12 in
      Mrt.reset t ~ii:ii1;
      Mrt.ii t = ii1
      && Array.for_all
           (fun cls ->
             let ok = ref true in
             for slot = 0 to ii1 - 1 do
               if Mrt.usage t cls ~slot <> 0 then ok := false
             done;
             !ok)
           classes)

(* --- Schedule.validate over-subscription rejection ------------------------- *)

let test_validate_rejects_oversubscribed () =
  (* Two independent loads forced into the same kernel slot of a 1-bus
     machine: validate must reject with the over-subscription message
     instead of tripping Mrt.place's assertion. *)
  let mem offset = Memref.make ~array_id:0 ~stride:1 ~offset in
  let ops =
    [|
      Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ~mem:(mem 0) ();
      Operation.make ~id:1 ~opcode:Opcode.Load ~def:1 ~mem:(mem 1) ();
    |]
  in
  let g = Ddg.create ~num_vregs:2 ~ops ~edges:[] in
  let resource = Resource.of_config (Config.xwy ~x:1 ~y:1 ()) in
  let s = Schedule.make ~ii:1 ~times:[| 0; 0 |] ~cycle_model:cm in
  (match Schedule.validate g resource s with
  | Ok () -> Alcotest.fail "expected over-subscription to be rejected"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the conflict: %s" msg)
        true
        (contains msg "resource over-subscribed"));
  (* The oracle's independent reservation walk agrees. *)
  let violations = Oracle.check_schedule g resource s in
  Alcotest.(check bool) "oracle flags it too" true
    (List.exists (fun v -> v.Oracle.oracle = "schedule.resource") violations)

let test_validate_accepts_staggered () =
  (* Same graph, conflict resolved by staggering: both checks go green. *)
  let mem offset = Memref.make ~array_id:0 ~stride:1 ~offset in
  let ops =
    [|
      Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ~mem:(mem 0) ();
      Operation.make ~id:1 ~opcode:Opcode.Load ~def:1 ~mem:(mem 1) ();
    |]
  in
  let g = Ddg.create ~num_vregs:2 ~ops ~edges:[] in
  let resource = Resource.of_config (Config.xwy ~x:1 ~y:1 ()) in
  let s = Schedule.make ~ii:2 ~times:[| 0; 1 |] ~cycle_model:cm in
  Alcotest.(check bool) "validate ok" true (Result.is_ok (Schedule.validate g resource s));
  Alcotest.(check int) "oracle clean" 0 (List.length (Oracle.check_schedule g resource s))

(* --- full-suite validate sweep --------------------------------------------- *)

let sweep_config config =
  let resource = Resource.of_config config in
  Array.iter
    (fun loop ->
      let prepared, _ = Wr_widen.Transform.widen loop ~width:config.Config.width in
      let s = (Modulo.run resource ~cycle_model:cm prepared.Loop.ddg).Modulo.schedule in
      (match Schedule.validate prepared.Loop.ddg resource s with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s at %s: %s" loop.Loop.name (Config.label config) msg);
      match Oracle.check_schedule prepared.Loop.ddg resource s with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s at %s: %s" loop.Loop.name (Config.label config)
            (Oracle.to_string vs))
    (Suite.sample 120)

let test_sweep_4w2 () = sweep_config (Config.xwy ~x:4 ~y:2 ())
let test_sweep_8w1 () = sweep_config (Config.xwy ~x:8 ~y:1 ())

(* --- oracles on real pipeline results -------------------------------------- *)

let test_oracle_schedule_clean () =
  List.iter
    (fun (name, loop) ->
      let resource = Resource.of_config (Config.xwy ~x:2 ~y:1 ()) in
      let s = (Modulo.run resource ~cycle_model:cm loop.Loop.ddg).Modulo.schedule in
      match Oracle.check_schedule loop.Loop.ddg resource s with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %s" name (Oracle.to_string vs))
    (K.all ())

let test_oracle_schedule_catches_corruption () =
  (* Collapse a legal schedule to all-zero times: dependences with a
     real delay break, and so does any resource class with more ops
     than slots. *)
  let loop = K.state_equation () in
  let resource = Resource.of_config (Config.xwy ~x:2 ~y:1 ()) in
  let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
  let corrupt =
    Schedule.make ~ii:s.Schedule.ii
      ~times:(Array.map (fun _ -> 0) s.Schedule.times)
      ~cycle_model:cm
  in
  let vs = Oracle.check_schedule loop.Loop.ddg resource corrupt in
  Alcotest.(check bool) "violations found" true (vs <> []);
  Alcotest.(check bool) "a dependence violation among them" true
    (List.exists (fun v -> v.Oracle.oracle = "schedule.dependence") vs)

let test_oracle_alloc_clean_and_file_check () =
  let loop = K.banded_matvec () in
  let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
  let lts = Lifetime.of_schedule loop.Loop.ddg s in
  let a = Alloc.allocate ~ii:s.Schedule.ii lts in
  Alcotest.(check int) "clean on the real allocation" 0
    (List.length (Oracle.check_alloc loop.Loop.ddg s a ~available:(Some a.Alloc.required)));
  (* A file one register too small must trip the fit oracle. *)
  let vs = Oracle.check_alloc loop.Loop.ddg s a ~available:(Some (a.Alloc.required - 1)) in
  Alcotest.(check bool) "too-small file flagged" true
    (List.exists
       (fun v -> v.Oracle.oracle = "alloc.file" || v.Oracle.oracle = "alloc.maxlives")
       vs)

let test_oracle_alloc_catches_wrong_max_lives () =
  (* The oracle counts MaxLives itself, not through
     [Lifetime.max_lives], so an allocation that reports any other
     bound is flagged whatever the allocator computed. *)
  let loop = K.banded_matvec () in
  let s = sched loop (Config.xwy ~x:2 ~y:1 ()) in
  let a = Alloc.allocate ~ii:s.Schedule.ii (Lifetime.of_schedule loop.Loop.ddg s) in
  List.iter
    (fun delta ->
      let wrong = { a with Alloc.max_lives = a.Alloc.max_lives + delta } in
      Alcotest.(check bool)
        (Printf.sprintf "MaxLives off by %+d flagged" delta)
        true
        (List.exists
           (fun v -> v.Oracle.oracle = "alloc.maxlives")
           (Oracle.check_alloc loop.Loop.ddg s wrong ~available:None)))
    [ -1; 1 ]

let test_oracle_widening_clean () =
  List.iter
    (fun (name, loop) ->
      let widened, _ = Wr_widen.Transform.widen loop ~width:2 in
      match Oracle.check_widening ~original:loop ~widened ~width:2 () with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %s" name (Oracle.to_string vs))
    [ ("daxpy", K.daxpy ()); ("triad", K.stream_triad ()); ("horner", K.horner ()) ]

let test_oracle_widening_catches_mismatch () =
  (* Handing the oracle a widening of a different loop must fail: the
     census, the trip count or the interpreter comparison gives it away. *)
  let original = K.daxpy () in
  let widened, _ = Wr_widen.Transform.widen (K.vector_add ()) ~width:2 in
  Alcotest.(check bool) "mismatched pair flagged" true
    (Oracle.check_widening ~original ~widened ~width:2 () <> [])

let test_oracle_spill_clean () =
  let loop = K.banded_matvec () in
  let g = loop.Loop.ddg in
  let r = Option.get (Ddg.op g 0).Operation.def in
  let res = Spill.apply g ~vregs:[ r ] in
  Alcotest.(check int) "spill preserves semantics" 0
    (List.length (Oracle.check_spill ~pre:loop ~post:res.Spill.graph ()))

let test_check_point_kernels () =
  (* End-to-end: every named kernel at a mid-grid point with a small
     file verifies cleanly, whatever path (spill/escalate) it takes. *)
  let config = Config.xwy ~registers:32 ~x:4 ~y:2 () in
  List.iter
    (fun (name, loop) ->
      let report = Oracle.check_point config ~cycle_model:cm ~registers:32 loop in
      match report.Oracle.violations with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %s" name (Oracle.to_string vs))
    (K.all ())

(* --- fuzz harness ----------------------------------------------------------- *)

let test_fuzz_clean_and_deterministic () =
  let run () = Fuzz.run ~seed:0x5EEDL ~cases:60 () in
  let a = run () in
  let b = run () in
  Alcotest.(check string) "same seed, same summary" (Fuzz.summary a) (Fuzz.summary b);
  Alcotest.(check int) "cases" 60 a.Fuzz.cases;
  Alcotest.(check int) "no oracle failures" 0 (List.length a.Fuzz.failures);
  Alcotest.(check int) "every case accounted for" 60 (a.Fuzz.schedulable + a.Fuzz.unschedulable)

let test_fuzz_reproducer_renders () =
  (* A synthetic failure record must render a parseable reproducer even
     though nothing actually failed. *)
  let loop = K.daxpy () in
  let f =
    {
      Fuzz.case = 7;
      loop;
      config = Config.xwy ~registers:32 ~x:2 ~y:2 ();
      cycle_model = cm;
      registers = 32;
      policy = Wr_regalloc.Driver.Spill_only;
      violations = [ { Oracle.oracle = "schedule.dependence"; detail = "synthetic" } ];
    }
  in
  let text = Fuzz.reproducer f in
  Alcotest.(check bool) "names the case" true (contains text "fuzz case 7");
  Alcotest.(check bool) "carries the replay line" true (contains text "widening-cli check");
  Alcotest.(check bool) "carries the violation" true (contains text "schedule.dependence")

let () =
  Alcotest.run "wr_check"
    [
      ( "mrt",
        List.map QCheck_alcotest.to_alcotest [ prop_mrt_matches_naive; prop_mrt_reset_clears ]
      );
      ( "validate",
        [
          Alcotest.test_case "rejects over-subscription" `Quick
            test_validate_rejects_oversubscribed;
          Alcotest.test_case "accepts staggered" `Quick test_validate_accepts_staggered;
          Alcotest.test_case "sample-120 sweep at 4w2" `Slow test_sweep_4w2;
          Alcotest.test_case "sample-120 sweep at 8w1" `Slow test_sweep_8w1;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "schedule clean on kernels" `Quick test_oracle_schedule_clean;
          Alcotest.test_case "schedule catches corruption" `Quick
            test_oracle_schedule_catches_corruption;
          Alcotest.test_case "alloc clean + file check" `Quick
            test_oracle_alloc_clean_and_file_check;
          Alcotest.test_case "alloc wrong MaxLives flagged" `Quick
            test_oracle_alloc_catches_wrong_max_lives;
          Alcotest.test_case "widening clean" `Quick test_oracle_widening_clean;
          Alcotest.test_case "widening catches mismatch" `Quick
            test_oracle_widening_catches_mismatch;
          Alcotest.test_case "spill semantics clean" `Quick test_oracle_spill_clean;
          Alcotest.test_case "check_point on kernels" `Slow test_check_point_kernels;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "clean and deterministic" `Slow test_fuzz_clean_and_deterministic;
          Alcotest.test_case "reproducer renders" `Quick test_fuzz_reproducer_renders;
        ] );
    ]
