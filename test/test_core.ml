(* Integration tests for the study itself (lib/core): analytic rates,
   the evaluation pipeline, and each experiment's headline properties
   on a deterministic subsample of the suite. *)

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Loop = Wr_ir.Loop
module K = Wr_workload.Kernels

let cm = Cycle_model.Cycles_4

let sample = lazy (Wr_workload.Suite.sample 60)

let suite_id = "test-sample60"

(* --- rates ---------------------------------------------------------------- *)

let test_rates_daxpy () =
  let loop = K.daxpy () in
  let r = Core.Rates.of_loop (Config.xwy ~x:1 ~y:1 ()) ~cycle_model:cm loop in
  (* 3 memory ops on one bus dominate. *)
  Alcotest.(check (float 1e-6)) "bus rate" 3.0 r.Core.Rates.bus_rate;
  Alcotest.(check (float 1e-6)) "cycles/iter" 3.0 r.Core.Rates.cycles_per_iteration;
  let r8 = Core.Rates.of_loop (Config.xwy ~x:8 ~y:1 ()) ~cycle_model:cm loop in
  Alcotest.(check (float 1e-6)) "8 buses" (3.0 /. 8.0) r8.Core.Rates.bus_rate

let test_rates_widening_compactable () =
  let loop = K.daxpy () in
  let r = Core.Rates.of_loop (Config.xwy ~x:1 ~y:4 ()) ~cycle_model:cm loop in
  (* Fully compactable: width divides the demand. *)
  Alcotest.(check (float 1e-6)) "bus rate" (3.0 /. 4.0) r.Core.Rates.bus_rate

let test_rates_widening_noncompactable () =
  let loop = K.strided_gather () in
  let r1 = Core.Rates.of_loop (Config.xwy ~x:1 ~y:1 ()) ~cycle_model:cm loop in
  let r8 = Core.Rates.of_loop (Config.xwy ~x:1 ~y:8 ()) ~cycle_model:cm loop in
  (* The strided load and its dependents stay scalar: widening gains
     less than 8x. *)
  Alcotest.(check bool) "some gain" true
    (r8.Core.Rates.cycles_per_iteration < r1.Core.Rates.cycles_per_iteration);
  Alcotest.(check bool) "less than 8x" true
    (r8.Core.Rates.cycles_per_iteration > r1.Core.Rates.cycles_per_iteration /. 8.0)

let test_rates_recurrence_floor () =
  let loop = K.dot_product () in
  List.iter
    (fun (x, y) ->
      let r = Core.Rates.of_loop (Config.xwy ~x ~y ()) ~cycle_model:cm loop in
      Alcotest.(check bool) "floor 4" true (r.Core.Rates.cycles_per_iteration >= 4.0 -. 1e-9))
    [ (1, 1); (8, 1); (1, 8); (4, 4) ]

(* --- evaluate -------------------------------------------------------------- *)

let test_evaluate_daxpy () =
  let loop = K.daxpy () in
  let r = Core.Evaluate.loop_on (Config.xwy ~x:1 ~y:1 ()) ~cycle_model:cm ~registers:64 loop in
  Alcotest.(check bool) "pipelined" true r.Core.Evaluate.pipelined;
  Alcotest.(check int) "ii 3" 3 r.Core.Evaluate.ii

let test_evaluate_fallback () =
  (* 2 registers cannot hold anything: the loop compiles without
     pipelining but still gets a finite cost. *)
  let loop = K.banded_matvec () in
  let r = Core.Evaluate.loop_on (Config.xwy ~x:8 ~y:1 ()) ~cycle_model:cm ~registers:2 loop in
  Alcotest.(check bool) "not pipelined" false r.Core.Evaluate.pipelined;
  Alcotest.(check bool) "finite cost" true (r.Core.Evaluate.cycles > 0.0);
  (* Sequential execution is much slower than the pipelined II=2. *)
  Alcotest.(check bool) "slower than pipelined" true (r.Core.Evaluate.ii > 5)

let test_evaluate_suite_memoized () =
  let loops = Lazy.force sample in
  let c = Config.xwy ~registers:64 ~x:2 ~y:1 () in
  let a = Core.Evaluate.suite_on ~suite_id c ~cycle_model:cm ~registers:64 loops in
  let b = Core.Evaluate.suite_on ~suite_id c ~cycle_model:cm ~registers:64 loops in
  Alcotest.(check bool) "same stats" true (a = b);
  Alcotest.(check int) "all loops" 60 a.Core.Evaluate.loops

let test_evaluate_parallel_deterministic () =
  (* The engine's central contract: a 1-domain and a 4-domain pool
     produce bit-identical aggregates (same float accumulation order,
     same counters) on a 50-loop sample across several grid points. *)
  let loops = Wr_workload.Suite.sample 50 in
  let p1 = Wr_util.Pool.create ~jobs:1 () in
  let p4 = Wr_util.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () ->
      Wr_util.Pool.shutdown p1;
      Wr_util.Pool.shutdown p4)
    (fun () ->
      List.iter
        (fun (x, y, z) ->
          let c = Config.xwy ~registers:z ~x ~y () in
          Core.Evaluate.clear_cache ();
          let seq =
            Core.Evaluate.suite_on ~pool:p1 ~suite_id:"det50" c ~cycle_model:cm ~registers:z
              loops
          in
          Core.Evaluate.clear_cache ();
          let par =
            Core.Evaluate.suite_on ~pool:p4 ~suite_id:"det50" c ~cycle_model:cm ~registers:z
              loops
          in
          Alcotest.(check bool)
            (Printf.sprintf "aggregates bit-identical on %dw%d(%d)" x y z)
            true (seq = par))
        [ (1, 1, 64); (4, 2, 64); (8, 1, 32); (2, 4, 128) ];
      Core.Evaluate.clear_cache ())

(* --- loop-level cache -------------------------------------------------------- *)

let test_loop_cache_returns_same_record () =
  Core.Evaluate.clear_cache ();
  let loop = K.daxpy () in
  let c = Config.xwy ~registers:64 ~x:2 ~y:1 () in
  let before = Core.Evaluate.evaluations () in
  let a =
    (Core.Evaluate.loop_cached ~suite_id:"cache-unit" ~index:0 c ~cycle_model:cm ~registers:64
       loop)
      .Core.Evaluate.result
  in
  Alcotest.(check int) "first call runs the pipeline" (before + 1)
    (Core.Evaluate.evaluations ());
  let b =
    (Core.Evaluate.loop_cached ~suite_id:"cache-unit" ~index:0 c ~cycle_model:cm ~registers:64
       loop)
      .Core.Evaluate.result
  in
  Alcotest.(check bool) "physically the same record" true (a == b);
  Alcotest.(check int) "second call is a pure hit" (before + 1)
    (Core.Evaluate.evaluations ())

let test_loop_cache_shared_across_studies () =
  (* Two studies visiting the same (suite, loop, machine point) share
     the schedule-and-allocate work: after [suite_on] has filled the
     loop cache, per-loop lookups under the same suite id never
     re-invoke the scheduler. *)
  Core.Evaluate.clear_cache ();
  let loops = Lazy.force sample in
  let c = Config.xwy ~registers:64 ~x:2 ~y:1 () in
  let agg = Core.Evaluate.suite_on ~suite_id:"cache-share" c ~cycle_model:cm ~registers:64 loops in
  let n = Core.Evaluate.evaluations () in
  let results =
    Array.mapi
      (fun i loop ->
        (Core.Evaluate.loop_cached ~suite_id:"cache-share" ~index:i c ~cycle_model:cm
           ~registers:64 loop)
          .Core.Evaluate.result)
      loops
  in
  Alcotest.(check int) "no re-evaluations" n (Core.Evaluate.evaluations ());
  let total = Array.fold_left (fun acc r -> acc +. r.Core.Evaluate.cycles) 0.0 results in
  Alcotest.(check (float 1e-9)) "aggregate agrees with cached loops"
    agg.Core.Evaluate.total_cycles total

let with_tmp_dir f =
  let dir = Filename.temp_file "wr-core-test" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

let test_loop_cached_reports_how_it_answered () =
  (* One lookup per point: [loop_cached] says whether the memo, the
     store or a fresh run answered, and whether the result is the
     degraded fallback — on the quarantining call and on every memo hit
     after it. *)
  let module E = Core.Evaluate in
  let loop = K.daxpy () in
  let c = Config.xwy ~registers:64 ~x:2 ~y:2 () in
  let ask () =
    E.loop_cached ~suite_id:"answer-unit" ~index:0 c ~cycle_model:cm ~registers:64 loop
  in
  let expect what source degraded (a : E.answer) =
    Alcotest.(check bool) (what ^ ": source") true (a.E.source = source);
    Alcotest.(check bool) (what ^ ": degraded") degraded a.E.result.E.degraded
  in
  E.clear_cache ();
  with_tmp_dir (fun dir ->
      ignore (E.attach_store (Filename.concat dir "store"));
      Fun.protect ~finally:E.detach_store (fun () ->
          let fresh = ask () in
          expect "first call" E.Fresh false fresh;
          let memo = ask () in
          expect "second call" E.Memo false memo;
          Alcotest.(check bool) "memo hit is the same record" true
            (memo.E.result == fresh.E.result);
          E.clear_cache ();
          let stored = ask () in
          expect "after clear_cache" E.Store false stored;
          Alcotest.(check bool) "store answer equals the fresh one" true
            (stored.E.result = fresh.E.result);
          Alcotest.(check bool) "store answer enters the memo" true
            ((ask ()).E.result == stored.E.result)));
  let module Fault = Wr_util.Fault in
  E.clear_cache ();
  Fault.configure [ { Fault.site = "widen"; prob = 1.0; seed = 1L; action = Fault.Raise } ];
  Fun.protect
    ~finally:(fun () ->
      Fault.configure [];
      E.reset_quarantine ();
      E.clear_cache ())
    (fun () ->
      let degraded = ask () in
      expect "faulted call" E.Fresh true degraded;
      Alcotest.(check bool) "degraded result is unpipelined" false
        degraded.E.result.E.pipelined;
      let again = ask () in
      expect "memo hit on a degraded point" E.Memo true again;
      Alcotest.(check bool) "same degraded record" true (again.E.result == degraded.E.result))

let test_clear_cache_drops_both_levels () =
  Core.Evaluate.clear_cache ();
  let loop = K.daxpy () in
  let c = Config.xwy ~registers:64 ~x:1 ~y:1 () in
  let eval () =
    ignore
      (Core.Evaluate.loop_cached ~suite_id:"cache-clear" ~index:0 c ~cycle_model:cm
         ~registers:64 loop);
    ignore
      (Core.Evaluate.suite_on ~suite_id:"cache-clear" c ~cycle_model:cm ~registers:64
         [| loop |])
  in
  eval ();
  let n = Core.Evaluate.evaluations () in
  (* Warm: both levels answer from the tables. *)
  eval ();
  Alcotest.(check int) "warm caches: no pipeline runs" n (Core.Evaluate.evaluations ());
  Core.Evaluate.clear_cache ();
  eval ();
  Alcotest.(check bool) "cleared: the pipeline runs again" true
    (Core.Evaluate.evaluations () > n)

(* --- peak study (figure 2) -------------------------------------------------- *)

let test_peak_monotone_in_factor () =
  let loops = Lazy.force sample in
  let t = Core.Peak_study.run ~max_factor:32 loops in
  (* Within the pure replication series, speed-up never decreases. *)
  let xw1 =
    List.filter_map
      (fun (_, points) ->
        List.find_opt (fun p -> p.Core.Peak_study.config.Config.width = 1) points)
      t
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "monotone" true
          (b.Core.Peak_study.speedup >= a.Core.Peak_study.speedup -. 1e-9);
        check rest
    | _ -> ()
  in
  check xw1

let test_peak_replication_beats_widening () =
  (* Paper, Section 3.1: under optimal conditions pure replication has
     the best theoretical performance at every factor. *)
  let loops = Lazy.force sample in
  let t = Core.Peak_study.run ~max_factor:32 loops in
  List.iter
    (fun (factor, points) ->
      match points with
      | repl :: rest when factor >= 4 ->
          List.iter
            (fun p ->
              Alcotest.(check bool)
                (Printf.sprintf "x%d: %s <= %s" factor
                   (Config.label_short p.Core.Peak_study.config)
                   (Config.label_short repl.Core.Peak_study.config))
                true
                (p.Core.Peak_study.speedup <= repl.Core.Peak_study.speedup +. 1e-6))
            rest
      | _ -> ())
    t

let test_peak_baseline_is_one () =
  let loops = Lazy.force sample in
  let t = Core.Peak_study.run ~max_factor:2 loops in
  match t with
  | (2, points) :: _ ->
      List.iter
        (fun p -> Alcotest.(check bool) "above 1" true (p.Core.Peak_study.speedup > 1.0))
        points
  | _ -> Alcotest.fail "missing factor 2"

(* --- spill study (figure 3) -------------------------------------------------- *)

let spill_result = lazy (Core.Spill_study.run ~suite_id (Lazy.force sample))

let find_cell t x y z =
  let row =
    List.find
      (fun r ->
        r.Core.Spill_study.config.Config.buses = x && r.Core.Spill_study.config.Config.width = y)
      t
  in
  List.assoc z row.Core.Spill_study.cells

let test_spill_more_registers_never_hurt () =
  let t = Lazy.force spill_result in
  List.iter
    (fun r ->
      let values =
        List.filter_map
          (fun (_, c) -> match c with Core.Spill_study.Speedup s -> Some s | _ -> None)
          r.Core.Spill_study.cells
      in
      let rec check = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool) "monotone in RF" true (b >= a -. 0.02);
            check rest
        | _ -> ()
      in
      check values)
    t

let test_spill_crossover_4w2_vs_8w1 () =
  (* The paper's central observation: with moderate register files the
     widened 4w2 beats the replicated 8w1 despite 8w1's higher peak. *)
  let t = Lazy.force spill_result in
  match (find_cell t 4 2 128, find_cell t 8 1 128) with
  | Core.Spill_study.Speedup s42, Core.Spill_study.Speedup s81 ->
      Alcotest.(check bool)
        (Printf.sprintf "4w2(128)=%.2f > 8w1(128)=%.2f" s42 s81)
        true (s42 > s81)
  | _ -> Alcotest.fail "cells missing"

let test_spill_8w1_32_unschedulable () =
  let t = Lazy.force spill_result in
  match find_cell t 8 1 32 with
  | Core.Spill_study.Not_schedulable -> ()
  | Core.Spill_study.Speedup s -> Alcotest.fail (Printf.sprintf "expected n/a, got %.2f" s)

let test_spill_wide_rf_capacity_effect () =
  (* At 32 registers the widened configurations of factor 4 beat pure
     replication: wide registers hold more values. *)
  let t = Lazy.force spill_result in
  match (find_cell t 2 2 32, find_cell t 4 1 32) with
  | Core.Spill_study.Speedup s22, Core.Spill_study.Speedup s41 ->
      Alcotest.(check bool) (Printf.sprintf "2w2=%.2f >= 4w1=%.2f" s22 s41) true (s22 >= s41)
  | Core.Spill_study.Speedup _, Core.Spill_study.Not_schedulable -> ()
  | _ -> Alcotest.fail "unexpected n/a for 2w2 at 32"

(* --- cost tables -------------------------------------------------------------- *)

let test_cost_tables_render () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " non-empty") true (String.length s > 80))
    [
      ("table1", Core.Cost_tables.table1 ());
      ("table2", Core.Cost_tables.table2 ());
      ("table3", Core.Cost_tables.table3 ());
      ("table4", Core.Cost_tables.table4 ());
      ("table6", Core.Cost_tables.table6 ());
      ("figure4", Core.Cost_tables.figure4 ());
      ("figure6", Core.Cost_tables.figure6 ());
    ]

(* --- implementability (table 5) ------------------------------------------------ *)

let test_implementability_anchors () =
  let rows = Core.Implementability.run () in
  let find x y = List.find (fun r -> r.Core.Implementability.x = x && r.Core.Implementability.y = y) rows in
  let cell r z n =
    (List.find
       (fun (c : Core.Implementability.cell) -> c.Core.Implementability.registers = z && c.Core.Implementability.partitions = n)
       r.Core.Implementability.cells)
      .Core.Implementability.verdict
  in
  (* 1w1 at 32 registers: buildable from the first generation. *)
  (match cell (find 1 1) 32 1 with
  | Core.Implementability.First_at 1998 -> ()
  | _ -> Alcotest.fail "1w1(32:1) should be buildable in 1998");
  (* Partitioning beyond the bus count is not applicable. *)
  (match cell (find 1 1) 32 2 with
  | Core.Implementability.Not_applicable -> ()
  | _ -> Alcotest.fail "1w1 cannot be 2-partitioned");
  (* 16w1 with 256 registers: not buildable in any generation
     considered (paper's '5' symbol). *)
  (match cell (find 16 1) 256 1 with
  | Core.Implementability.Never -> ()
  | _ -> Alcotest.fail "16w1(256:1) should never be implementable")

let test_implementability_configs_nonempty () =
  List.iter
    (fun g ->
      let configs = Core.Implementability.implementable_configs g in
      Alcotest.(check bool) "candidates exist" true (List.length configs > 0))
    Wr_cost.Sia.generations

(* --- code size (figure 7) ------------------------------------------------------- *)

let test_code_size_best_case_series () =
  let t = Core.Code_size_study.run ~suite_id (Lazy.force sample) in
  List.iter
    (fun (factor, entries) ->
      List.iter
        (fun (e : Core.Code_size_study.entry) ->
          let expected =
            float_of_int e.Core.Code_size_study.config.Config.buses /. float_of_int factor
          in
          Alcotest.(check (float 1e-9)) "word ratio" expected e.Core.Code_size_study.best_case)
        entries)
    t

let test_code_size_measured_bounded () =
  let t = Core.Code_size_study.run ~suite_id (Lazy.force sample) in
  List.iter
    (fun (_, entries) ->
      List.iter
        (fun (e : Core.Code_size_study.entry) ->
          Alcotest.(check bool) "measured between best case and 2" true
            (e.Core.Code_size_study.measured >= e.Core.Code_size_study.best_case -. 1e-9
            && e.Core.Code_size_study.measured < 2.0))
        entries)
    t

(* --- trade-off (figures 8 and 9) -------------------------------------------------- *)

let test_tradeoff_point () =
  let loops = Lazy.force sample in
  match Core.Tradeoff.evaluate ~suite_id loops (Config.xwy ~registers:32 ~x:1 ~y:1 ()) with
  | Some p ->
      Alcotest.(check (float 1e-9)) "baseline speedup 1" 1.0 p.Core.Tradeoff.speedup;
      Alcotest.(check (float 1e-9)) "baseline tc 1" 1.0 p.Core.Tradeoff.tc
  | None -> Alcotest.fail "baseline must evaluate"

let test_tradeoff_figure9_nonempty () =
  let loops = Lazy.force sample in
  let results = Core.Tradeoff.figure9 ~suite_id ~top:3 loops in
  Alcotest.(check int) "five generations" 5 (List.length results);
  List.iter
    (fun ((g : Wr_cost.Sia.generation), points) ->
      Alcotest.(check bool)
        (Printf.sprintf "top list at %d" g.Wr_cost.Sia.year)
        true
        (List.length points > 0);
      (* Later generations reach higher speed-ups. *)
      List.iter
        (fun p -> Alcotest.(check bool) "positive speedup" true (p.Core.Tradeoff.speedup > 0.0))
        points)
    results

let test_tradeoff_conclusion_direction () =
  (* 4w2(128) must beat 8w1(128) in performance per area under the
     technology-limited comparison. *)
  let loops = Lazy.force sample in
  let best x y =
    List.filter_map
      (fun n ->
        if x mod n = 0 && n <= x then
          Core.Tradeoff.evaluate ~suite_id loops (Config.xwy ~registers:128 ~partitions:n ~x ~y ())
        else None)
      [ 1; 2; 4; 8 ]
    |> List.sort (fun a b -> compare b.Core.Tradeoff.speedup a.Core.Tradeoff.speedup)
    |> function
    | best :: _ -> best
    | [] -> Alcotest.fail "no point"
  in
  let p42 = best 4 2 and p81 = best 8 1 in
  Alcotest.(check bool)
    (Printf.sprintf "4w2 %.2f > 8w1 %.2f" p42.Core.Tradeoff.speedup p81.Core.Tradeoff.speedup)
    true
    (p42.Core.Tradeoff.speedup > p81.Core.Tradeoff.speedup);
  Alcotest.(check bool) "in less area" true (p42.Core.Tradeoff.area < p81.Core.Tradeoff.area)

(* --- extension studies ------------------------------------------------------ *)

let test_icache_study_ordering () =
  (* At each factor, the widened configuration must fit small caches at
     least as often as the replicated one. *)
  let t = Core.Icache_study.run ~cache_sizes_kb:[ 4 ] (Wr_workload.Suite.sample 40) in
  let share x y =
    (List.find
       (fun (c : Core.Icache_study.cell) ->
         c.Core.Icache_study.config.Config.buses = x
         && c.Core.Icache_study.config.Config.width = y)
       t)
      .Core.Icache_study.over_capacity_share
  in
  Alcotest.(check bool) "1w4 fits more than 4w1" true (share 1 4 <= share 4 1);
  Alcotest.(check bool) "1w8 fits more than 8w1" true (share 1 8 <= share 8 1);
  Alcotest.(check bool) "2w4 fits more than 8w1" true (share 2 4 <= share 8 1)

let test_ablation_rotating_text () =
  let s = Core.Ablation.rotating_file (Wr_workload.Suite.sample 15) in
  Alcotest.(check bool) "renders" true (String.length s > 200)

let test_ablation_levers_text () =
  let s = Core.Ablation.pressure_levers (Wr_workload.Suite.sample 20) in
  Alcotest.(check bool) "renders with policies" true (String.length s > 200)

let table_row table prefix =
  List.find (String.starts_with ~prefix) (String.split_on_char '\n' table)

(* A loop spill-only cannot pipeline is charged spill-only's
   unpipelined fallback, not the combined driver's pipelined schedule
   (which read 1.68 here). *)
let test_ablation_levers_charge_policy_fallback () =
  let s = Core.Ablation.pressure_levers (Wr_workload.Suite.sample 20) in
  Alcotest.(check string) "4w2/32 spill only" "| 4w2/32 |    spill only |     1.07 |    34.9% |"
    (table_row s "| 4w2/32 |    spill only")

(* Each generator draw is priced from its own loops, whatever ran
   earlier in the process: the 0.5 draw shares loop names and sizes
   with the 1.0 draw, and used to answer its compactability (1w8 read
   5.48 after it). *)
let test_ablation_compact_rows_independent () =
  let row probs =
    table_row (Core.Ablation.compactability ~num_loops:30 ~stride1_probs:probs ()) "| 1.00"
  in
  let after_half = row [ 0.5; 1.0 ] in
  let alone = row [ 1.0 ] in
  Alcotest.(check string) "same row after the 0.5 draw" alone after_half;
  Alcotest.(check string) "the 1.0 draw's own row"
    "| 1.00          |     6.82 |     6.80 |     6.72 |      14.12 |" alone

let () =
  Alcotest.run "core"
    [
      ( "rates",
        [
          Alcotest.test_case "daxpy" `Quick test_rates_daxpy;
          Alcotest.test_case "widening compactable" `Quick test_rates_widening_compactable;
          Alcotest.test_case "widening noncompactable" `Quick test_rates_widening_noncompactable;
          Alcotest.test_case "recurrence floor" `Quick test_rates_recurrence_floor;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "daxpy" `Quick test_evaluate_daxpy;
          Alcotest.test_case "fallback" `Quick test_evaluate_fallback;
          Alcotest.test_case "memoized" `Quick test_evaluate_suite_memoized;
          Alcotest.test_case "parallel determinism" `Slow test_evaluate_parallel_deterministic;
        ] );
      ( "loop_cache",
        [
          Alcotest.test_case "same record, no re-run" `Quick test_loop_cache_returns_same_record;
          Alcotest.test_case "shared across studies" `Slow test_loop_cache_shared_across_studies;
          Alcotest.test_case "clear drops both levels" `Quick test_clear_cache_drops_both_levels;
          Alcotest.test_case "reports memo, store or fresh" `Quick
            test_loop_cached_reports_how_it_answered;
        ] );
      ( "peak_study",
        [
          Alcotest.test_case "monotone in factor" `Slow test_peak_monotone_in_factor;
          Alcotest.test_case "replication peaks highest" `Slow test_peak_replication_beats_widening;
          Alcotest.test_case "baseline" `Slow test_peak_baseline_is_one;
        ] );
      ( "spill_study",
        [
          Alcotest.test_case "monotone in RF" `Slow test_spill_more_registers_never_hurt;
          Alcotest.test_case "4w2 beats 8w1 at 128" `Slow test_spill_crossover_4w2_vs_8w1;
          Alcotest.test_case "8w1/32 unschedulable" `Slow test_spill_8w1_32_unschedulable;
          Alcotest.test_case "wide RF capacity" `Slow test_spill_wide_rf_capacity_effect;
        ] );
      ("cost_tables", [ Alcotest.test_case "render" `Quick test_cost_tables_render ]);
      ( "implementability",
        [
          Alcotest.test_case "anchors" `Quick test_implementability_anchors;
          Alcotest.test_case "candidates" `Quick test_implementability_configs_nonempty;
        ] );
      ( "code_size",
        [
          Alcotest.test_case "best case series" `Slow test_code_size_best_case_series;
          Alcotest.test_case "measured bounded" `Slow test_code_size_measured_bounded;
        ] );
      ( "tradeoff",
        [
          Alcotest.test_case "baseline point" `Slow test_tradeoff_point;
          Alcotest.test_case "figure 9" `Slow test_tradeoff_figure9_nonempty;
          Alcotest.test_case "conclusion direction" `Slow test_tradeoff_conclusion_direction;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "icache ordering" `Slow test_icache_study_ordering;
          Alcotest.test_case "ablation rotating" `Slow test_ablation_rotating_text;
          Alcotest.test_case "ablation levers" `Slow test_ablation_levers_text;
          Alcotest.test_case "ablation levers charge the policy's fallback" `Slow
            test_ablation_levers_charge_policy_fallback;
          Alcotest.test_case "ablation compact rows independent of earlier draws" `Quick
            test_ablation_compact_rows_independent;
        ] );
    ]
