(* Benchmark harness: regenerates every table and figure of the paper,
   with CSVs, paper notes and the study's engine checks.  Speed is
   measured by perfbench/ (see BENCHMARK.json), not here.

   Usage:
     dune exec bench/main.exe                 -- all experiments, full suite
     dune exec bench/main.exe fig3            -- one experiment
     dune exec bench/main.exe all -s 200      -- subsampled suite (faster)
     dune exec bench/main.exe fig3 --jobs 4   -- evaluation pool of 4 domains
     dune exec bench/main.exe fig3 --verify   -- check every point with the oracles
     dune exec bench/main.exe report LEDGER   -- ledger dashboard (also diff, validate)
     dune exec bench/main.exe -- --help       -- every option

   Every run setting is one of these options; the environment sets
   none of them (WR_FAULT's fault injection aside). *)

open Cmdliner
module Config = Wr_machine.Config
module B = Core.Bench_schema
module Run_options = Wr_cli.Run_options

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let experiments =
  [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "fig2"; "fig3"; "fig4";
    "fig6"; "fig7"; "fig8"; "fig9"; "conclusion"; "ablation-compact"; "ablation-levers";
    "ablation-rotating"; "icache"; "traffic"; "dcache"; "balance";
    "endtoend"; "gap"; "fuzz"; "profile" ]

(* Exit codes (documented in the README): 0 success, 1 usage error,
   2 runtime failure (mismatch, oracle violation, uncaught exception —
   the OCaml runtime itself exits 2 on the latter), 3 completed with
   quarantined (degraded) points. *)
let usage () =
  prerr_string
    "usage: main.exe [EXPERIMENT] [OPTION]...   (see main.exe --help)\n\
     \       main.exe report LEDGER\n\
     \       main.exe diff OLD NEW [--threshold PCT]\n\
     \       main.exe validate BENCH.json...\n";
  exit 1

(* ------------------------------------------------------------------ *)
(* Ledger and schema tool modes: positional file arguments, handled
   before the experiment CLI.  [report] renders one run's ledger as a
   dashboard; [diff] joins two ledgers (or two BENCH_*.json artifacts
   of the same kind) and exits 2 iff a regression-class divergence
   survives the threshold; [validate] checks BENCH artifacts against
   the wr-bench/%s envelope. *)

let diff_threshold rest =
  (* A percentage (default 0: any cycles change counts); a malformed or
     negative value is a usage error, not a silent gate on 0. *)
  match rest with
  | [] -> 0.0
  | [ "--threshold"; v ] -> (
      match float_of_string_opt (String.trim v) with
      | Some t when t >= 0.0 -> t
      | _ ->
          Printf.eprintf "diff: invalid --threshold %S (expected a non-negative percentage)\n" v;
          exit 1)
  | _ -> usage ()

let load_any path =
  (* Ledgers and bench artifacts are both strict JSON; dispatch on
     which loader accepts the file. *)
  match Core.Provenance.load path with
  | Ok records -> `Ledger records
  | Error ledger_err -> (
      match Core.Bench_schema.load_file path with
      | Ok j -> `Bench j
      | Error bench_err ->
          Printf.eprintf "%s: neither a ledger (%s) nor a bench artifact (%s)\n" path
            ledger_err bench_err;
          exit 2)

let () =
  match Array.to_list Sys.argv with
  | _ :: "report" :: [ path ] -> (
      match Core.Provenance.load path with
      | Ok records ->
          print_string (Core.Observatory.report records);
          exit 0
      | Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2)
  | _ :: "report" :: _ -> usage ()
  | _ :: "diff" :: old_path :: new_path :: rest ->
      let threshold_pct = diff_threshold rest in
      let ds =
        match (load_any old_path, load_any new_path) with
        | `Ledger o, `Ledger n -> Core.Observatory.diff ~threshold_pct o n
        | `Bench o, `Bench n -> (
            match Core.Observatory.diff_bench o n with
            | Ok ds -> ds
            | Error msg ->
                Printf.eprintf "diff: %s\n" msg;
                exit 2)
        | _ ->
            Printf.eprintf "diff: %s and %s are not artifacts of the same kind\n" old_path
              new_path;
            exit 2
      in
      print_string (Core.Observatory.render_diff ds);
      exit (if Core.Observatory.has_regressions ds then 2 else 0)
  | _ :: "diff" :: _ -> usage ()
  | _ :: "validate" :: (_ :: _ as paths) ->
      let failed = ref false in
      List.iter
        (fun path ->
          match Result.bind (Core.Bench_schema.load_file path) Core.Bench_schema.validate with
          | Ok kind -> Printf.printf "%s: ok (%s, kind %s)\n" path Core.Bench_schema.version kind
          | Error msg ->
              failed := true;
              Printf.printf "%s: INVALID — %s\n" path msg)
        paths;
      exit (if !failed then 2 else 0)
  | _ :: [ "validate" ] -> usage ()
  | _ -> ()

let ( run_options,
      selected,
      sample_size,
      csv_dir,
      fuzz_cases,
      fuzz_seed,
      backend_diff ) =
  let open Term.Syntax in
  let experiment =
    let ids = "all" :: experiments in
    let doc = "Experiment id: " ^ String.concat ", " ids ^ "." in
    Arg.(value & pos 0 (enum (List.map (fun x -> (x, x)) ids)) "all"
         & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"DIR" ~doc:"Write each experiment's table as DIR/ID.csv.")
  in
  let cases =
    Arg.(value & opt Run_options.positive 200
         & info [ "cases" ] ~docv:"N" ~doc:"Number of fuzz cases.")
  in
  let seed =
    Arg.(value & opt int64 0x5EEDL & info [ "fuzz-seed" ] ~docv:"SEED" ~doc:"Fuzz seed.")
  in
  let backend_diff =
    Arg.(value & flag
         & info [ "backend-diff" ]
             ~doc:"With $(b,fuzz): schedule every case with both backends and compare.")
  in
  let term =
    let+ opts = Run_options.term
    and+ id = experiment
    and+ sample = Run_options.sample
    and+ csv = csv
    and+ cases = cases
    and+ seed = seed
    and+ diff = backend_diff in
    (opts, id, sample, csv, cases, seed, diff)
  in
  let man =
    [
      `S Manpage.s_description;
      `P "The ledger and artifact tools take positional files instead: $(b,report) LEDGER, \
          $(b,diff) OLD NEW [--threshold PCT] and $(b,validate) BENCH.json...";
      `P "$(b,--backend) selects the scheduler of every experiment that schedules; \
          $(b,gap) and $(b,fuzz --backend-diff) compare the two backends, so they run both.";
    ]
  in
  let info = Cmd.info "main.exe" ~doc:"Regenerate the paper's tables and figures" ~man in
  match Cmd.eval_value (Cmd.v info term) with
  | Ok (`Ok args) -> args
  | Ok (`Help | `Version) -> exit 0
  | Error (`Parse | `Term) -> exit 1
  | Error `Exn -> exit 2

let () = Run_options.start ~out:stdout run_options

let effective_jobs () =
  match run_options.Run_options.jobs with Some j -> j | None -> Wr_util.Pool.default_jobs ()

(* Failures detected mid-run (simulation mismatches, fuzz oracle
   violations) defer the exit-2 to process end so the run's trace,
   metrics, and ledger still get written first. *)
let deferred_failures : string list ref = ref []

let defer_failure msg = deferred_failures := msg :: !deferred_failures

(* CSV export: one file per experiment, for downstream plotting. *)
let write_csv name header rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat dir (name ^ ".csv") in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (String.concat "," header ^ "\n");
          List.iter (fun row -> output_string oc (String.concat "," row ^ "\n")) rows);
      Printf.printf "  [csv] wrote %s (%d rows)\n%!" path (List.length rows)

let loops, suite_id = Run_options.suite sample_size

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)

let paper_note s = print_string ("NOTE: " ^ s ^ "\n")

let run_experiment id =
  Printf.printf "==================================================================\n";
  Printf.printf "=== %s\n==================================================================\n%!" id;
  let started = Unix.gettimeofday () in
  (match id with
  | "table1" ->
      print_string (Core.Cost_tables.table1 ());
      paper_note "Paper: Table 1 is input data (SIA 1994 roadmap); reproduced exactly."
  | "table2" ->
      print_string (Core.Cost_tables.table2 ());
      paper_note
        "Paper: cells 50x41 .. 568x257; the piecewise-linear model is anchored on the five \
         published cells (exact)."
  | "table3" ->
      print_string (Core.Cost_tables.table3 ());
      paper_note "Paper: 598 / 375 / 215 x10^6 lambda^2 - reproduced within 1%."
  | "table4" ->
      print_string (Core.Cost_tables.table4 ());
      write_csv "table4"
        [ "buses"; "width"; "registers"; "model"; "paper" ]
        (List.map
           (fun ((x, y, z), model, paper) ->
             [
               string_of_int x; string_of_int y; string_of_int z;
               Printf.sprintf "%.4f" model; Printf.sprintf "%.2f" paper;
             ])
           (Core.Cost_tables.table4_pairs ()));
      paper_note
        "Paper: 60 relative access times; fitted model reproduces them at 3.6% rms (max 8.9%)."
  | "table5" ->
      print_string (Core.Implementability.to_text (Core.Implementability.run ()));
      print_string "With the conservative 10% area budget instead:\n";
      print_string (Core.Implementability.to_text (Core.Implementability.run ~budget:0.10 ()));
      paper_note
        "Paper: Table 5 symbols; same 20%-of-die rule, same grid.  Cell-model extrapolation \
         shifts a few borderline entries by one generation."
  | "table6" ->
      print_string (Core.Cost_tables.table6 ());
      paper_note "Paper: Table 6 is input data (latency adaptation); reproduced exactly."
  | "fig2" ->
      let t = Core.Peak_study.run loops in
      print_string (Core.Peak_study.to_text t);
      write_csv "fig2" Core.Csv_export.fig2_header (Core.Csv_export.fig2_rows t);
      paper_note
        "Paper shape: Xw1 saturates near 10, 1wY near 5, 2wY in between; Xw2 tracks Xw1 \
         closely."
  | "fig3" ->
      let t = Core.Spill_study.run ~suite_id loops in
      print_string (Core.Spill_study.to_text t);
      write_csv "fig3" Core.Csv_export.fig3_header (Core.Csv_export.fig3_rows t);
      let fams =
        Core.Spill_study.run_families ~suite_id (Wr_workload.Suite.families_for ~sample:sample_size)
      in
      List.iter
        (fun (name, ft) ->
          Printf.printf "---- family %s ----\n%s" name (Core.Spill_study.to_text ft))
        fams;
      write_csv "fig3_families" Core.Csv_export.fig3_families_header
        (Core.Csv_export.fig3_families_rows fams);
      paper_note
        "Paper shape: 8w1/32 unschedulable; 4w2 beats 8w1 at 64 and 128 registers; 1w2 \
         saturates by 64 registers."
  | "fig4" ->
      print_string (Core.Cost_tables.figure4 ());
      paper_note "Paper: area of RF+FPUs against the 10-20% SIA bands."
  | "fig6" ->
      print_string (Core.Cost_tables.figure6 ());
      paper_note
        "Paper shape: area grows (exponential-ish), access time falls (logarithmic-ish); \
         2-partitioning is the sweet spot."
  | "fig7" ->
      print_string (Core.Code_size_study.to_text (Core.Code_size_study.run ~suite_id loops));
      paper_note "Paper: the 1 / 0.5 / 0.25 / 0.125 best-case series."
  | "fig8" ->
      print_string (Core.Tradeoff.figure8 ~suite_id loops);
      paper_note
        "Paper shape: (a) small files win once cycle time is charged; (b) replication gains \
         but at exploding area; (c) widening gains cheaply then saturates; (d) the mixed \
         configurations win the factor-8 group."
  | "fig9" ->
      let t = Core.Tradeoff.figure9 ~suite_id loops in
      print_string (Core.Tradeoff.figure9_text t);
      write_csv "fig9" Core.Csv_export.fig9_header (Core.Csv_export.fig9_rows t);
      let fams =
        Core.Tradeoff.figure9_families ~suite_id (Wr_workload.Suite.families_for ~sample:sample_size)
      in
      List.iter
        (fun (name, ft) ->
          Printf.printf "---- family %s ----\n%s" name (Core.Tradeoff.figure9_text ft))
        fams;
      write_csv "fig9_families" Core.Csv_export.fig9_families_header
        (Core.Csv_export.fig9_families_rows fams);
      paper_note
        "Paper shape: top-five lists are dominated by small replication x widening mixes; \
         the most aggressive configurations never appear."
  | "conclusion" ->
      print_string (Core.Tradeoff.conclusion ~suite_id loops);
      paper_note "Paper: 4w2(128) = 1.66x the performance of 8w1(128) in 81% of the area."
  | "ablation-compact" ->
      print_string (Core.Ablation.compactability ());
      paper_note
        "Beyond the paper: sensitivity of the Figure 2 series to the workload's stride-1 fraction — widening collapses on strided code, replication barely moves."
  | "ablation-levers" ->
      print_string (Core.Ablation.pressure_levers (Wr_workload.Suite.sample 150));
      paper_note
        "Beyond the paper: the two MICRO-29 register-pressure levers in isolation; II escalation carries most of the benefit on this workload, spilling adds bus traffic."
  | "ablation-rotating" ->
      print_string (Core.Ablation.rotating_file (Wr_workload.Suite.sample 80));
      paper_note
        "Beyond the paper: the wands model prices a rotating register file; a conventional file (modulo variable expansion) needs ~1.3-1.5x the registers and up to 12x kernel code growth."
  | "icache" ->
      print_string (Core.Icache_study.to_text (Core.Icache_study.run (Wr_workload.Suite.sample 200)));
      paper_note
        "Beyond the paper (predicted in its Section 2): at equal peak capability the \
         replication-heavy machines' wide words and large MVE unrolls overflow small \
         instruction caches far more often than the widened machines."
  | "traffic" ->
      print_string (Core.Traffic_study.to_text (Core.Traffic_study.run (Wr_workload.Suite.sample 200)));
      paper_note
        "Beyond the paper (its Section 3.2 caveat, quantified): spill code's extra memory \
         operations as a share of program traffic — the wide register file's capacity keeps \
         the widened machines' spill traffic low.";
  | "dcache" ->
      print_string
        (Core.Dcache_study.to_text (Core.Dcache_study.run (Wr_workload.Suite.sample 120)));
      paper_note
        "Beyond the paper: replaying each schedule's real memory trace (spill slots \
         included) through a direct-mapped L1 — spill code's cache pollution on top of the \
         bus slots the paper counts.";
  | "balance" ->
      print_string (Core.Balance_study.to_text (Core.Balance_study.run loops));
      paper_note
        "The paper's footnote 1, reproduced: 1 bus + 2 FPUs is the best 3-slot split, and 2:1 \
         stays within ~7% of the best at larger budgets (our synthetic mix is slightly \
         memory-heavier than the Perfect Club's, drifting the optimum toward 1.4:1).";
  | "endtoend" ->
      (* Cycle-level validation: schedule + MVE allocation + simulation
         against the reference interpreter, bit for bit. *)
      let sample = Wr_workload.Suite.sample 60 in
      let configs = [ (1, 1); (2, 2); (4, 2); (2, 4) ] in
      let checked = ref 0 and failed = ref 0 in
      Array.iter
        (fun loop ->
          List.iter
            (fun (x, y) ->
              incr checked;
              match
                Wr_vliw.Sim.check_against_reference loop (Config.xwy ~x ~y ()) ~iterations:5
              with
              | Ok _ -> ()
              | Error msg ->
                  incr failed;
                  Printf.printf "  MISMATCH %s on %dw%d: %s\n" loop.Wr_ir.Loop.name x y msg)
            configs)
        sample;
      Printf.printf
        "End-to-end validation: %d (loop, config) points simulated cycle-by-cycle, %d \
         mismatches against the reference interpreter.\n"
        !checked !failed;
      if !failed > 0 then
        defer_failure (Printf.sprintf "endtoend: %d simulation mismatch(es)" !failed);
      paper_note
        "Beyond the paper: every schedule is executed on a cycle-level simulator with MVE \
         register assignment and compared bit-for-bit with sequential semantics."
  | "gap" ->
      (* HRMS-vs-optimal study: the exact branch-and-bound backend
         refines the heuristic schedule of every (family, loop, config)
         point and reports the II gap.  BENCH_gap.json is always
         written so CI can assert gap >= 0 on every row and that at
         least one point was proved optimal. *)
      let families = Wr_workload.Suite.families_for ~sample:sample_size in
      let t0 = Unix.gettimeofday () in
      let t = Core.Gap_study.run families in
      let wall = Unix.gettimeofday () -. t0 in
      print_string (Core.Gap_study.to_text t);
      write_csv "gap" Core.Csv_export.gap_header (Core.Csv_export.gap_rows t);
      let path = "BENCH_gap.json" in
      B.write_file path
        (B.envelope ~kind:"gap"
           [
             ("suite", B.str suite_id);
             ("points", B.int t.Core.Gap_study.points);
             ("proved_optimal", B.int t.Core.Gap_study.proved_optimal);
             ("improved", B.int t.Core.Gap_study.improved);
             ("timeout", B.int t.Core.Gap_study.fallback);
             ("gap_total", B.int t.Core.Gap_study.gap_total);
             ("max_gap", B.int t.Core.Gap_study.max_gap);
             ("nodes_total", B.int t.Core.Gap_study.nodes_total);
             ("wall_s", B.float ~fmt:(Printf.sprintf "%.3f") wall);
             ( "rows",
               B.List
                 (List.map
                    (fun (r : Core.Gap_study.row) ->
                      B.Obj
                        [
                          ("family", B.str r.Core.Gap_study.family);
                          ("loop", B.str r.Core.Gap_study.loop_name);
                          ("config", B.str (Config.label_short r.Core.Gap_study.config));
                          ("ops", B.int r.Core.Gap_study.ops);
                          ("mii", B.int r.Core.Gap_study.mii);
                          ("heur_ii", B.int r.Core.Gap_study.heur_ii);
                          ("exact_ii", B.int r.Core.Gap_study.exact_ii);
                          ("gap", B.int r.Core.Gap_study.gap);
                          ( "status",
                            B.str (Core.Gap_study.status_string r.Core.Gap_study.status) );
                          ("nodes", B.int r.Core.Gap_study.nodes);
                          ("evictions", B.int r.Core.Gap_study.evictions);
                        ])
                    t.Core.Gap_study.rows) );
           ]);
      Printf.printf "[json] wrote %s\n%!" path;
      paper_note
        "Beyond the paper: branch-and-bound lower bounds on the II quantify how close the \
         HRMS-style heuristic sits to optimal on this workload."
  | "fuzz" when backend_diff ->
      (* Differential bug hunt: every seeded case scheduled by both the
         heuristic and the exact backend.  Bugs (oracle failures, exact
         II above heuristic, exact II below MII) fail the run with a
         reproducer; exact < heuristic with both schedules valid is an
         optimality-gap lead, logged but benign. *)
      Printf.printf "backend-diff fuzzing %d cases (seed %#Lx)\n%!" fuzz_cases fuzz_seed;
      let stats =
        Wr_check.Fuzz.run_backend_diff
          ~on_case:(fun i ->
            if (i + 1) mod 50 = 0 then Printf.printf "  ... %d cases done\n%!" (i + 1))
          ~seed:fuzz_seed ~cases:fuzz_cases ()
      in
      Printf.printf "%s\n" (Wr_check.Fuzz.diff_summary stats);
      List.iter
        (fun d ->
          Printf.printf "---- gap lead ----\n%s\n" (Wr_check.Fuzz.diff_reproducer d))
        stats.Wr_check.Fuzz.dgaps;
      List.iter
        (fun d ->
          Printf.printf "---- reproducer ----\n%s\n" (Wr_check.Fuzz.diff_reproducer d))
        stats.Wr_check.Fuzz.dbug_cases;
      if stats.Wr_check.Fuzz.dbug_cases <> [] then
        defer_failure
          (Printf.sprintf "fuzz --backend-diff: %d bug case(s)"
             (List.length stats.Wr_check.Fuzz.dbug_cases));
      paper_note
        "Engine check: the exact backend cross-examines the heuristic on every case — any \
         heuristic II the exact search beats is a logged optimality gap, any invalid or \
         worse exact schedule is a bug."
  | "fuzz" ->
      (* Randomized end-to-end verification: seeded (generator loop x
         design-space point) pairs through the full
         schedule -> allocate -> spill -> reschedule pipeline under
         every Wr_check oracle; a failure prints a Text_format
         reproducer and fails the run. *)
      Printf.printf "fuzzing %d cases (seed %#Lx)\n%!" fuzz_cases fuzz_seed;
      let stats =
        Wr_check.Fuzz.run
          ~on_case:(fun i ->
            if (i + 1) mod 50 = 0 then Printf.printf "  ... %d cases done\n%!" (i + 1))
          ~seed:fuzz_seed ~cases:fuzz_cases ()
      in
      Printf.printf "%s\n" (Wr_check.Fuzz.summary stats);
      List.iter
        (fun f ->
          Printf.printf "---- reproducer ----\n%s\n" (Wr_check.Fuzz.reproducer f))
        stats.Wr_check.Fuzz.failures;
      if stats.Wr_check.Fuzz.failures <> [] then
        defer_failure
          (Printf.sprintf "fuzz: %d case(s) violated an oracle"
             (List.length stats.Wr_check.Fuzz.failures));
      paper_note
        "Engine check: every case re-verified by the independent invariant oracles \
         (dependences, reservation table, wands allocation, spill semantics)."
  | "profile" ->
      (* Per-stage profile of the full evaluation pipeline: run the
         fig3 study (the heaviest exerciser of schedule + allocate +
         spill + retry) with telemetry on, then break down where the
         time and the retries went.  --trace/--metrics dump the same
         run's raw data at exit. *)
      let module Obs = Wr_obs.Obs in
      Obs.set_enabled true;
      Core.Evaluate.clear_cache ();
      Obs.reset ();
      let t0 = Unix.gettimeofday () in
      let table = Core.Spill_study.run ~suite_id loops in
      let wall = Unix.gettimeofday () -. t0 in
      ignore table;
      let snap = Obs.snapshot () in
      let counter name =
        Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)
      in
      Printf.printf "Pipeline profile: fig3 study, %d loops, %d jobs, %.2fs wall\n\n"
        (Array.length loops) (effective_jobs ()) wall;
      Printf.printf "%-18s %9s %10s %10s %10s\n" "stage" "spans" "total_s" "mean_ms"
        "max_ms";
      List.iter
        (fun (name, st) ->
          Printf.printf "%-18s %9d %10.3f %10.3f %10.3f\n" name st.Obs.span_count
            (float_of_int st.Obs.span_total_ns /. 1e9)
            (float_of_int st.Obs.span_total_ns /. 1e6 /. float_of_int st.Obs.span_count)
            (float_of_int st.Obs.span_max_ns /. 1e6))
        snap.Obs.spans;
      Printf.printf
        "(stages nest and run concurrently: the study's one eval/suite batch fans out a task \
         per loop, whose points share one widen per width and their first probe per \
         machine shape, and eval/loop contains sched/modulo, alloc and spill/apply — totals are \
         per-stage CPU time, not wall time)\n\n";
      let loop_spans =
        List.filter (fun e -> e.Obs.ev_name = "eval/loop") (Obs.events ())
      in
      let slowest =
        List.sort (fun a b -> compare b.Obs.ev_dur_ns a.Obs.ev_dur_ns) loop_spans
      in
      Printf.printf "Top 10 slowest (loop, machine point) evaluations:\n";
      List.iteri
        (fun i e ->
          if i < 10 then
            Printf.printf "  %8.2f ms  %-24s %s\n"
              (float_of_int e.Obs.ev_dur_ns /. 1e6)
              (Option.value ~default:"?" (List.assoc_opt "loop" e.Obs.ev_args))
              (Option.value ~default:"?" (List.assoc_opt "config" e.Obs.ev_args)))
        slowest;
      Printf.printf "\nII escalation above the scheduler's first attempt (per Modulo.run):\n";
      (match List.assoc_opt "sched/ii_minus_start" snap.Obs.histograms with
      | None | Some [] -> Printf.printf "  (no scheduler runs recorded)\n"
      | Some bins ->
          let total = List.fold_left (fun acc (_, c) -> acc + c) 0 bins in
          List.iter
            (fun (v, c) ->
              Printf.printf "  +%-3d %7d  (%5.1f%%)\n" v c
                (100.0 *. float_of_int c /. float_of_int total))
            bins);
      let rate (s : Core.Evaluate.cache_stats) =
        let t = s.Core.Evaluate.hits + s.Core.Evaluate.misses in
        if t = 0 then 0.0 else 100.0 *. float_of_int s.Core.Evaluate.hits /. float_of_int t
      in
      let ls = Core.Evaluate.cache_stats `Loop in
      let ss = Core.Evaluate.cache_stats `Suite in
      Printf.printf "\nCache hit rates:\n";
      Printf.printf "  suite-level: %d hits / %d misses (%.1f%%)\n" ss.Core.Evaluate.hits
        ss.Core.Evaluate.misses (rate ss);
      Printf.printf "  loop-level:  %d hits / %d misses (%.1f%%)\n" ls.Core.Evaluate.hits
        ls.Core.Evaluate.misses (rate ls);
      Printf.printf "\nScheduler and spill totals:\n";
      List.iter
        (fun name -> Printf.printf "  %-24s %d\n" name (counter name))
        [ "eval/evaluations"; "sched/runs"; "sched/attempts"; "sched/evictions";
          "sched/forces"; "sched/budget_exhausted"; "driver/probes"; "spill/vregs_spilled";
          "spill/stores_added"; "spill/loads_added"; "spill/reloads_memoized" ];
      (* The exact backend's search counters only tick under
         --backend exact (or after a gap run); suppress the section
         when the heuristic handled everything. *)
      if counter "search/at_ii" > 0 then begin
        Printf.printf "\nExact-backend search totals:\n";
        List.iter
          (fun name -> Printf.printf "  %-24s %d\n" name (counter name))
          [ "search/runs"; "search/at_ii"; "search/nodes"; "search/phase1_probes";
            "search/phase2_probes"; "search/prune_resource"; "search/prune_window";
            "search/prune_backtrack"; "search/exhausted"; "exact/nodes"; "exact/improved" ];
        match List.assoc_opt "search/nodes_per_attempt" snap.Obs.histograms with
        | None | Some [] -> ()
        | Some bins ->
            Printf.printf "  nodes per II attempt (>1024 clamped into the overflow bin):\n";
            List.iter (fun (v, c) -> Printf.printf "    %5d %7d\n" v c) bins
      end;
      Printf.printf "\nPool utilization (%d jobs):\n" (effective_jobs ());
      if snap.Obs.lanes = [] then
        Printf.printf "  (no pool tasks: single-domain run executes inline)\n"
      else
        List.iter
          (fun lane ->
            let v name =
              Option.value ~default:0 (List.assoc_opt name lane.Obs.lane_counters)
            in
            Printf.printf "  lane %d: %d tasks, busy %.2fs (%.0f%% of wall), idle %.2fs\n"
              lane.Obs.lane_id (v "pool/tasks_run")
              (float_of_int (v "pool/busy_ns") /. 1e9)
              (100.0 *. float_of_int (v "pool/busy_ns") /. 1e9 /. wall)
              (float_of_int (v "pool/idle_ns") /. 1e9))
          snap.Obs.lanes;
      paper_note
        "Engine profile: the paper's figures aggregate exactly these per-loop events \
         (II escalations, spills, retries); this table is the raw distribution."
  | _ -> usage ());
  Printf.printf "[%s generated in %.1fs]\n" id (Unix.gettimeofday () -. started);
  print_newline ()

let () =
  Printf.printf "Widening-resources study bench harness (suite: %s, %d loops, %d jobs)\n\n%!"
    suite_id (Array.length loops) (effective_jobs ());
  Printf.printf "%s\n" (Wr_workload.Suite.statistics loops);
  (* gap, fuzz and profile are explicit-only modes: gap runs a
     branch-and-bound search per point and writes BENCH_gap.json, fuzz
     is a verification pass, and profile re-runs fig3 under tracing —
     none is a figure of the paper. *)
  if selected = "all" then
    List.iter run_experiment
      (List.filter (fun e -> e <> "gap" && e <> "fuzz" && e <> "profile") experiments)
  else run_experiment selected;
  Run_options.finish ~out:stdout run_options;
  (match List.rev !deferred_failures with
  | [] -> ()
  | fs ->
      List.iter (fun msg -> Printf.eprintf "%s\n" msg) fs;
      exit 2);
  (* Quarantine report: every point that degraded to the unpipelined
     fallback instead of killing the run, named precisely enough to
     reproduce (suite, loop, machine point).  Exit 3 distinguishes
     "completed but degraded" from success and from hard failure. *)
  match Core.Evaluate.quarantined () with
  | [] -> ()
  | qs ->
      Printf.printf "\nQuarantined points (%d): degraded to the unpipelined fallback\n"
        (List.length qs);
      Printf.printf "%-10s %6s %-24s %-12s %5s %6s  %s\n" "suite" "index" "loop" "config"
        "regs" "model" "reason";
      List.iter
        (fun (q : Core.Evaluate.quarantine_record) ->
          Printf.printf "%-10s %6d %-24s %-12s %5d %6d  %s\n" q.Core.Evaluate.q_suite
            q.Core.Evaluate.q_index q.Core.Evaluate.q_loop q.Core.Evaluate.q_config
            q.Core.Evaluate.q_registers q.Core.Evaluate.q_cycle_model
            q.Core.Evaluate.q_reason)
        qs;
      exit 3
