(* Command-line interface to the widening-resources study.

   widening-cli experiment fig2          reproduce a figure/table
   widening-cli schedule daxpy -c 4w2(128:2)
   widening-cli configs -g 0.18          implementable configurations
   widening-cli workload                 suite statistics
   widening-cli dot dot_product          DOT dump of a kernel *)

open Cmdliner

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop

(* --store falls back to WR_STORE so a warm cache can follow a user
   across invocations without repeating the flag. *)
let store_or_env store =
  match store with
  | Some _ as s -> s
  | None -> ( match Sys.getenv_opt "WR_STORE" with Some "" | None -> None | s -> s)

let suite_of_sample sample =
  match sample with
  | None -> (Wr_workload.Suite.perfect_club_like (), "full")
  | Some n -> (Wr_workload.Suite.sample n, Printf.sprintf "sample%d" n)

(* --- experiment ------------------------------------------------------- *)

let experiment_ids =
  [
    "table1"; "table2"; "table3"; "table4"; "table5"; "table6"; "fig2"; "fig3"; "fig4";
    "fig6"; "fig7"; "fig8"; "fig9"; "conclusion"; "ablation-compact"; "ablation-levers";
    "ablation-rotating"; "ablation-ordering"; "icache"; "traffic"; "dcache"; "balance"; "all";
  ]

let run_experiment id sample jobs trace metrics strict store budget backend ledger =
  let store = store_or_env store in
  Option.iter Wr_sched.Backend.set backend;
  Option.iter Wr_util.Pool.set_default_jobs jobs;
  if trace <> None || metrics <> None then Wr_obs.Obs.set_enabled true;
  if ledger <> None then Core.Provenance.set_capture true;
  if strict then Core.Evaluate.set_strict true;
  Core.Evaluate.set_loop_budget_ms budget;
  Option.iter
    (fun dir ->
      match Core.Evaluate.attach_store dir with
      | r ->
          Printf.eprintf "[store] %s: %d entries in %d segment(s)%s%s\n%!" dir
            r.Core.Store.entries r.Core.Store.segments
            (if r.Core.Store.quarantined_segments > 0 then
               Printf.sprintf ", %d quarantined" r.Core.Store.quarantined_segments
             else "")
            (if r.Core.Store.truncated_bytes > 0 then
               Printf.sprintf ", %d torn byte(s) truncated" r.Core.Store.truncated_bytes
             else "")
      | exception Core.Store.Locked msg ->
          prerr_endline msg;
          exit 2)
    store;
  let loops, suite_id = suite_of_sample sample in
  let print = print_string in
  let dispatch = function
    | "table1" -> print (Core.Cost_tables.table1 ())
    | "table2" -> print (Core.Cost_tables.table2 ())
    | "table3" -> print (Core.Cost_tables.table3 ())
    | "table4" -> print (Core.Cost_tables.table4 ())
    | "table5" -> print (Core.Implementability.to_text (Core.Implementability.run ()))
    | "table6" -> print (Core.Cost_tables.table6 ())
    | "fig2" -> print (Core.Peak_study.to_text (Core.Peak_study.run loops))
    | "fig3" -> print (Core.Spill_study.to_text (Core.Spill_study.run ~suite_id loops))
    | "fig4" -> print (Core.Cost_tables.figure4 ())
    | "fig6" -> print (Core.Cost_tables.figure6 ())
    | "fig7" -> print (Core.Code_size_study.to_text (Core.Code_size_study.run ~suite_id loops))
    | "fig8" -> print (Core.Tradeoff.figure8 ~suite_id loops)
    | "fig9" -> print (Core.Tradeoff.figure9_text (Core.Tradeoff.figure9 ~suite_id loops))
    | "conclusion" -> print (Core.Tradeoff.conclusion ~suite_id loops)
    | "ablation-compact" -> print (Core.Ablation.compactability ())
    | "ablation-levers" -> print (Core.Ablation.pressure_levers (Wr_workload.Suite.sample 150))
    | "ablation-rotating" -> print (Core.Ablation.rotating_file (Wr_workload.Suite.sample 80))
    | "ablation-ordering" ->
        print (Core.Ablation.scheduler_orderings (Wr_workload.Suite.sample 150))
    | "icache" -> print (Core.Icache_study.to_text (Core.Icache_study.run loops))
    | "traffic" -> print (Core.Traffic_study.to_text (Core.Traffic_study.run loops))
    | "balance" -> print (Core.Balance_study.to_text (Core.Balance_study.run loops))
    | "dcache" ->
        print (Core.Dcache_study.to_text (Core.Dcache_study.run (Wr_workload.Suite.sample 120)))
    | id -> Printf.eprintf "unknown experiment %s\n" id
  in
  if id = "all" then
    List.iter
      (fun e ->
        if e <> "all" then begin
          dispatch e;
          print_newline ()
        end)
      experiment_ids
  else dispatch id;
  Option.iter
    (fun path ->
      Wr_obs.Obs.write_trace path;
      Printf.eprintf "[trace] wrote %s\n" path)
    trace;
  Option.iter
    (fun path ->
      Wr_obs.Obs.write_metrics path;
      Printf.eprintf "[metrics] wrote %s\n" path)
    metrics;
  Option.iter
    (fun path ->
      Core.Provenance.write path;
      Printf.eprintf "[ledger] wrote %s (%d points)\n" path
        (List.length (Core.Provenance.records ())))
    ledger;
  Option.iter
    (fun dir ->
      let s = Core.Evaluate.cache_stats `Store in
      Printf.eprintf "[store] %s: %d entries, %d hits, %d misses, %d appended\n%!" dir
        (Core.Evaluate.store_entries ()) s.Core.Evaluate.hits s.Core.Evaluate.misses
        (Core.Evaluate.store_appended ());
      Core.Evaluate.detach_store ())
    store;
  (* Completed-with-quarantine is exit 3 (see README "Exit codes"):
     distinct from success and from hard failure, so CI can tell a
     degraded sweep from a crashed one. *)
  match Core.Evaluate.quarantined () with
  | [] -> ()
  | qs ->
      Printf.eprintf "\nQuarantined points (%d): degraded to the unpipelined fallback\n"
        (List.length qs);
      List.iter
        (fun (q : Core.Evaluate.quarantine_record) ->
          Printf.eprintf "  %s loop %d (%s) on %s regs=%d model=%d: %s\n"
            q.Core.Evaluate.q_suite q.Core.Evaluate.q_index q.Core.Evaluate.q_loop
            q.Core.Evaluate.q_config q.Core.Evaluate.q_registers
            q.Core.Evaluate.q_cycle_model q.Core.Evaluate.q_reason)
        qs;
      exit 3

let sample_arg =
  let doc = "Evaluate on a deterministic N-loop subsample of the 1180-loop suite." in
  Arg.(value & opt (some int) None & info [ "s"; "sample" ] ~docv:"N" ~doc)

let jobs_arg =
  let doc =
    "Size of the domain pool used for parallel evaluation (also the WR_JOBS environment \
     variable; defaults to the number of cores).  The results are bit-identical for any \
     value; 1 forces fully sequential evaluation."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "JOBS must be a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let trace_arg =
  let doc =
    "Enable pipeline telemetry and write a Chrome trace-event JSON file (load it in \
     chrome://tracing or https://ui.perfetto.dev): one lane per domain, spans for every \
     pipeline stage (widen, schedule, allocate, spill, verify, pool tasks)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Enable pipeline telemetry and write a flat JSON snapshot of every counter, histogram \
     and span aggregate (scheduler attempts/evictions, spill rounds, cache hit rates, pool \
     utilization)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let strict_arg =
  let doc =
    "Fail fast: a loop evaluation that raises aborts the run instead of degrading the point \
     to the unpipelined fallback (also the WR_STRICT environment variable)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let budget_arg =
  let doc =
    "Wall-clock budget per loop evaluation in milliseconds, enforced cooperatively at \
     scheduler and spill boundaries; an overrun degrades the point to the unpipelined \
     fallback and quarantines it."
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "budget must be a positive integer (milliseconds)")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(value & opt (some positive) None & info [ "loop-budget-ms" ] ~docv:"MS" ~doc)

let backend_arg =
  let doc =
    "Modulo-scheduler backend: $(b,heuristic) (the HRMS-style default) or $(b,exact) \
     (branch-and-bound refinement of the heuristic schedule).  Also the WR_SCHED_BACKEND \
     environment variable."
  in
  let backend_conv =
    let parse s =
      match Wr_sched.Backend.of_string s with
      | Some k -> Ok k
      | None -> Error (`Msg "BACKEND must be heuristic or exact")
    in
    Arg.conv
      (parse, fun fmt k -> Format.pp_print_string fmt (Wr_sched.Backend.to_string k))
  in
  Arg.(value & opt (some backend_conv) None & info [ "backend" ] ~docv:"BACKEND" ~doc)

let ledger_arg =
  let doc =
    "Record one provenance record per evaluated point (content hash, II vs MII, backend, \
     spill traffic, oracle verdict, quarantine tag) and write them as a checksummed run \
     ledger at FILE — the input of $(b,bench) $(b,report)/$(b,diff).  Byte-identical for \
     any --jobs; per-point wall times are opt-in via WR_LEDGER_WALL=1."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let store_arg =
  let doc =
    "Consult and append to a persistent content-addressed result store at DIR: evaluation \
     points already present (keyed by provenance hash and scheduler backend) are answered \
     from the store without re-evaluation, and every fresh clean evaluation is appended.  \
     Re-running an interrupted run on the same DIR resumes it, with output byte-identical \
     to an uninterrupted run.  The store is crash-safe (checksummed append-only segments; \
     torn tails and corrupt segments are recovered on open) and single-writer (a stale lock \
     from a killed process is broken automatically)."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let experiment_cmd =
  let id =
    let doc = "Experiment id: " ^ String.concat ", " experiment_ids ^ "." in
    Arg.(required & pos 0 (some (enum (List.map (fun x -> (x, x)) experiment_ids))) None
         & info [] ~docv:"EXPERIMENT" ~doc)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Reproduce one of the paper's tables or figures")
    Term.(const run_experiment $ id $ sample_arg $ jobs_arg $ trace_arg $ metrics_arg
          $ strict_arg $ store_arg $ budget_arg $ backend_arg $ ledger_arg)

(* --- schedule --------------------------------------------------------- *)

let find_kernel name =
  match List.assoc_opt name (Wr_workload.Kernels.all ()) with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %s (available: %s)" name
           (String.concat ", " (List.map fst (Wr_workload.Kernels.all ()))))

let run_schedule kernel config_str verbose backend =
  Option.iter Wr_sched.Backend.set backend;
  match (find_kernel kernel, Config.parse config_str) with
  | Error e, _ -> prerr_endline e; exit 1
  | _, Error e -> prerr_endline e; exit 1
  | Ok loop, Ok cfg ->
      let tc = Wr_cost.Access_time.relative cfg in
      let cm = Wr_cost.Access_time.cycle_model_of cfg in
      let prepared, stats = Wr_widen.Transform.widen loop ~width:cfg.Config.width in
      Printf.printf "kernel %s on %s: Tc=%.2f, %s\n" kernel (Config.label cfg) tc
        (Cycle_model.to_string cm);
      Format.printf "%a@." Wr_widen.Transform.pp_stats stats;
      (match
         Wr_regalloc.Driver.run (Resource.of_config cfg) ~cycle_model:cm
           ~registers:cfg.Config.registers prepared.Loop.ddg
       with
      | Wr_regalloc.Driver.Scheduled s ->
          Printf.printf "II=%d (MII=%d), stages=%d, registers=%d (MaxLives=%d), spill=%d+%d\n"
            s.Wr_regalloc.Driver.schedule.Wr_sched.Schedule.ii s.Wr_regalloc.Driver.mii
            (Wr_sched.Schedule.stage_count s.Wr_regalloc.Driver.schedule)
            s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.required
            s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.max_lives
            s.Wr_regalloc.Driver.stores_added s.Wr_regalloc.Driver.loads_added;
          if verbose then
            print_string
              (Wr_sched.Schedule.kernel_view prepared.Loop.ddg (Resource.of_config cfg)
                 s.Wr_regalloc.Driver.schedule)
      | Wr_regalloc.Driver.Unschedulable msg ->
          Printf.printf "unschedulable: %s\n" msg)

let schedule_cmd =
  let kernel =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")
  in
  let config =
    Arg.(value & opt string "4w2(128:2)"
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc:"Configuration, e.g. 4w2(128:2).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full kernel schedule.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Software-pipeline one kernel on a configuration")
    Term.(const run_schedule $ kernel $ config $ verbose $ backend_arg)

(* --- configs ---------------------------------------------------------- *)

let run_configs lambda =
  match Wr_cost.Sia.by_lambda lambda with
  | None -> Printf.eprintf "no SIA generation with lambda=%.2f\n" lambda
  | Some g ->
      Printf.printf "Implementable configurations at %s (20%% budget):\n" (Wr_cost.Sia.label g);
      List.iter
        (fun c ->
          Printf.printf "  %-14s area=%7.0fe6 l^2 (%4.1f%% die)  Tc=%.2f (%s)\n"
            (Config.label c)
            (Wr_cost.Area.total_area c /. 1e6)
            (100.0 *. Wr_cost.Area.chip_fraction c g)
            (Wr_cost.Access_time.relative c)
            (Cycle_model.to_string (Wr_cost.Access_time.cycle_model_of c)))
        (Core.Implementability.implementable_configs g)

let configs_cmd =
  let lambda =
    Arg.(value & opt float 0.25
         & info [ "g"; "lambda" ] ~docv:"UM" ~doc:"Feature size: 0.25, 0.18, 0.13, 0.10 or 0.07.")
  in
  Cmd.v
    (Cmd.info "configs" ~doc:"List implementable configurations for a technology")
    Term.(const run_configs $ lambda)

(* --- file --------------------------------------------------------------- *)

let file_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Loop source file.")
  in
  let config =
    Arg.(value & opt (some string) None
         & info [ "c"; "config" ] ~docv:"CONFIG"
             ~doc:"Also software-pipeline each loop on this configuration.")
  in
  let run path config_str =
    let source = In_channel.with_open_text path In_channel.input_all in
    match Wr_ir.Text_format.parse source with
    | Error e ->
        (* The file exists but its content is bad: a runtime failure
           (2), not a usage error (1). *)
        Printf.eprintf "%s: %s
" path e;
        exit 2
    | Ok loops ->
        Printf.printf "%s: %d loop(s)
" path (List.length loops);
        List.iter
          (fun (l : Loop.t) ->
            Printf.printf "  %s: %d ops, trip %d, weight %g%s
" l.Loop.name (Loop.num_ops l)
              l.Loop.trip_count l.Loop.weight
              (if Wr_ir.Ddg.has_recurrence l.Loop.ddg then " (recurrence)" else ""))
          loops;
        match config_str with
        | None -> ()
        | Some cs -> (
            match Config.parse cs with
            | Error e ->
                prerr_endline e;
                exit 1
            | Ok cfg ->
                let cm = Wr_cost.Access_time.cycle_model_of cfg in
                List.iter
                  (fun (l : Loop.t) ->
                    let wide, _ = Wr_widen.Transform.widen l ~width:cfg.Config.width in
                    match
                      Wr_regalloc.Driver.run (Resource.of_config cfg) ~cycle_model:cm
                        ~registers:cfg.Config.registers wide.Loop.ddg
                    with
                    | Wr_regalloc.Driver.Scheduled s ->
                        Printf.printf "  %s on %s: II=%d (MII=%d), %d registers
" l.Loop.name
                          (Config.label cfg) s.Wr_regalloc.Driver.schedule.Wr_sched.Schedule.ii
                          s.Wr_regalloc.Driver.mii
                          s.Wr_regalloc.Driver.alloc.Wr_regalloc.Alloc.required
                    | Wr_regalloc.Driver.Unschedulable m ->
                        Printf.printf "  %s on %s: unschedulable (%s)
" l.Loop.name
                          (Config.label cfg) m)
                  loops)
  in
  Cmd.v
    (Cmd.info "file" ~doc:"Parse loops from a text file and optionally schedule them")
    Term.(const run $ path $ config)

(* --- check -------------------------------------------------------------- *)

let check_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:"Kernel name, or a .wr loop file path (e.g. a fuzz reproducer).")
  in
  let config =
    Arg.(value & opt string "4w2(128)"
         & info [ "c"; "config" ] ~docv:"CONFIG"
             ~doc:"Configuration to verify on, e.g. 4w2(64); the register count in \
                   parentheses is the file size used.")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration's access \
                   time implies.")
  in
  let policy =
    let values =
      [ ("combined", Wr_regalloc.Driver.Combined);
        ("spill", Wr_regalloc.Driver.Spill_only);
        ("escalate", Wr_regalloc.Driver.Escalate_only) ]
    in
    Arg.(value & opt (enum values) Wr_regalloc.Driver.Combined
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Register-pressure policy: combined, spill or escalate.")
  in
  let run target config_str cycles policy =
    let loops =
      if Sys.file_exists target then begin
        let source = In_channel.with_open_text target In_channel.input_all in
        match Wr_ir.Text_format.parse source with
        | Ok loops -> loops
        | Error e -> prerr_endline e; exit 2
      end
      else
        match find_kernel target with
        | Ok loop -> [ loop ]
        | Error e -> prerr_endline e; exit 1
    in
    match Config.parse config_str with
    | Error e -> prerr_endline e; exit 1
    | Ok cfg ->
        let cm =
          match cycles with
          | None -> Wr_cost.Access_time.cycle_model_of cfg
          | Some n -> (
              match Cycle_model.of_cycles n with
              | Some m -> m
              | None ->
                  Printf.eprintf "--cycles must be 1..4, got %d\n" n;
                  exit 1)
        in
        let registers = cfg.Config.registers in
        let failed = ref false in
        List.iter
          (fun (l : Loop.t) ->
            let r = Wr_check.Oracle.check_point cfg ~cycle_model:cm ~registers ~policy l in
            let status =
              if not r.Wr_check.Oracle.schedulable then "unschedulable (nothing to verify)"
              else
                Printf.sprintf "II=%d%s"
                  (Option.value ~default:0 r.Wr_check.Oracle.ii)
                  (if r.Wr_check.Oracle.spilled then ", spill code verified" else "")
            in
            match r.Wr_check.Oracle.violations with
            | [] ->
                Printf.printf "  %-24s %s on %s (%s): all oracles passed\n" l.Loop.name
                  status (Config.label cfg)
                  (Cycle_model.to_string cm)
            | vs ->
                failed := true;
                Printf.printf "  %-24s %s on %s (%s): %d VIOLATION(S)\n%s\n" l.Loop.name
                  status (Config.label cfg)
                  (Cycle_model.to_string cm)
                  (List.length vs)
                  (Wr_check.Oracle.to_string vs))
          loops;
        if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify the full pipeline (widen, schedule, allocate, spill) on a kernel or \
             loop file with the independent invariant oracles")
    Term.(const run $ target $ config $ cycles $ policy)

(* --- codegen / simulate -------------------------------------------------- *)

let prepare_for kernel config_str =
  match (find_kernel kernel, Config.parse config_str) with
  | Error e, _ | _, Error e ->
      prerr_endline e;
      exit 1
  | Ok loop, Ok cfg ->
      let wide, _ = Wr_widen.Transform.widen loop ~width:cfg.Config.width in
      let g = wide.Loop.ddg in
      let r =
        Wr_sched.Backend.run (Resource.of_config cfg) ~cycle_model:Cycle_model.Cycles_4 g
      in
      (loop, wide, g, r.Wr_sched.Modulo.schedule, cfg)

let codegen_cmd =
  let kernel =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")
  in
  let config =
    Arg.(value & opt string "2w2(64)"
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc:"Configuration, e.g. 2w2(64).")
  in
  let full =
    Arg.(value & opt (some int) None
         & info [ "full" ] ~docv:"N"
             ~doc:"Emit the complete flat program for N iterations (prologue/kernel/drain) \
                   instead of the steady-state kernel.")
  in
  let run kernel config_str full =
    let _, _, g, s, cfg = prepare_for kernel config_str in
    let a = Wr_vliw.Codegen.allocate g s in
    (match full with
    | Some n -> print_string (Wr_vliw.Codegen.emit_program g s a cfg ~iterations:n)
    | None -> print_string (Wr_vliw.Codegen.emit g s a cfg));
    let counts = Wr_vliw.Codegen.word_counts g s a cfg in
    Printf.printf
      "
; prologue %d words, kernel %d words, epilogue %d words; %d filled / %d nop slots
"
      counts.Wr_vliw.Codegen.prologue_words counts.Wr_vliw.Codegen.kernel_words
      counts.Wr_vliw.Codegen.epilogue_words counts.Wr_vliw.Codegen.filled_slots
      counts.Wr_vliw.Codegen.nop_slots
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the MVE-unrolled VLIW kernel for a kernel/configuration")
    Term.(const run $ kernel $ config $ full)

let simulate_cmd =
  let kernel =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name.")
  in
  let config =
    Arg.(value & opt string "2w2(64)"
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc:"Configuration, e.g. 2w2(64).")
  in
  let iters =
    Arg.(value & opt int 20 & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Wide iterations.")
  in
  let run kernel config_str iterations =
    match (find_kernel kernel, Config.parse config_str) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok loop, Ok cfg -> (
        match Wr_vliw.Sim.check_against_reference loop cfg ~iterations with
        | Ok sim ->
            Printf.printf
              "simulated %d wide iterations on %s: %d cycles (steady-state model %d), %d                instances issued
               memory image matches the reference interpreter bit-for-bit.
"
              iterations (Config.label cfg) sim.Wr_vliw.Sim.cycles
              sim.Wr_vliw.Sim.kernel_cycles sim.Wr_vliw.Sim.issued
        | Error msg ->
            Printf.printf "MISMATCH: %s
" msg;
            exit 2)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Cycle-level simulation of a kernel, validated against the interpreter")
    Term.(const run $ kernel $ config $ iters)

(* --- workload / dot ---------------------------------------------------- *)

let workload_cmd =
  let run sample =
    let loops, _ = suite_of_sample sample in
    print_string (Wr_workload.Suite.statistics loops)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Print aggregate statistics of the loop suite")
    Term.(const run $ sample_arg)

let dot_cmd =
  let kernel =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"KERNEL" ~doc:"Kernel name, or a .wr loop file path.")
  in
  let run kernel =
    if Sys.file_exists kernel then begin
      let source = In_channel.with_open_text kernel In_channel.input_all in
      match Wr_ir.Text_format.parse source with
      | Ok loops -> List.iter (fun l -> print_string (Wr_ir.Dot.of_loop l)) loops
      | Error e -> prerr_endline e; exit 2
    end
    else
      match find_kernel kernel with
      | Ok loop -> print_string (Wr_ir.Dot.of_loop loop)
      | Error e -> prerr_endline e; exit 1
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump a kernel's (or .wr file's) dependence graph as Graphviz DOT")
    Term.(const run $ kernel)

(* --- serve / query / store ---------------------------------------------- *)

let socket_arg =
  let doc = "Listen on (serve) or connect to (query) a Unix-domain socket at PATH." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (serve) or connect to (query) TCP port N." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let host_arg =
  let doc = "Host for --port (bind address for serve, server address for query)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint_of socket port host =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ ->
      prerr_endline "--socket and --port are mutually exclusive";
      exit 1
  | None, None ->
      prerr_endline "one of --socket PATH or --port N is required";
      exit 1

let run_serve socket port host store queue_max budget_ms jobs ledger metrics trace strict
    loop_budget backend =
  let store = store_or_env store in
  Option.iter Wr_sched.Backend.set backend;
  Option.iter Wr_util.Pool.set_default_jobs jobs;
  if strict then Core.Evaluate.set_strict true;
  Core.Evaluate.set_loop_budget_ms loop_budget;
  let listen = endpoint_of socket port host in
  let cfg =
    {
      Wr_serve.Server.listen;
      queue_max;
      request_budget_ms = budget_ms;
      store;
      ledger;
      metrics;
      trace;
    }
  in
  match Wr_serve.Server.run cfg with
  | () -> ()
  | exception Core.Store.Locked msg ->
      prerr_endline msg;
      exit 2
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "serve: %s: %s %s\n" (Unix.error_message e) fn arg;
      exit 2

let serve_cmd =
  let queue_max =
    let doc =
      "Admission bound: at most N requests outstanding (queued or evaluating); requests \
       beyond that are shed immediately with an explicit busy reply, so memory stays \
       bounded under any offered load."
    in
    Arg.(value & opt int Wr_serve.Server.default_queue_max
         & info [ "queue-max" ] ~docv:"N" ~doc)
  in
  let budget_ms =
    let doc =
      "Default per-request deadline in milliseconds (a request's own deadline_ms field \
       overrides it); an overrun degrades the point through the quarantine path and the \
       reply says so."
    in
    Arg.(value & opt (some int) None & info [ "request-budget-ms" ] ~docv:"MS" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the design-space query daemon: concurrent study/point queries over a \
             Unix or TCP socket, with duplicate-request coalescing, bounded admission \
             with explicit load shedding, per-request deadlines, and an optional \
             crash-safe persistent result store for zero-re-evaluation warm starts. \
             SIGTERM/SIGINT drain gracefully.")
    Term.(const run_serve $ socket_arg $ port_arg $ host_arg $ store_arg $ queue_max
          $ budget_ms $ jobs_arg $ ledger_arg $ metrics_arg $ trace_arg $ strict_arg
          $ budget_arg $ backend_arg)

let query_ops = [ ("point", `Point); ("suite", `Suite); ("health", `Health); ("shutdown", `Shutdown) ]

let run_query op socket port host suite index config_str cycles registers deadline_ms id
    timeout_ms retries base_ms max_ms =
  let module P = Wr_serve.Protocol in
  let module J = Core.Bench_schema in
  let target = (endpoint_of socket port host :> Wr_serve.Client.target) in
  let line =
    match op with
    | `Health -> P.req_health ?id ()
    | `Shutdown -> P.req_shutdown ?id ()
    | `Point ->
        P.req_eval ?id ?registers ?cycles ?deadline_ms ~suite ~index ~config:config_str ()
    | `Suite -> P.req_suite ?id ?registers ?cycles ?deadline_ms ~suite ~config:config_str ()
  in
  (* Seed the backoff jitter from the pid so a herd of concurrent
     clients retrying against a busy server desynchronizes. *)
  let seed = Int64.of_int (Unix.getpid ()) in
  match
    Wr_serve.Client.query target ~timeout_ms ~attempts:retries ~base_ms ~max_ms ~seed line
  with
  | Error (Wr_serve.Client.Busy msg) ->
      Printf.eprintf "query: still busy after %d attempt(s): %s\n" retries msg;
      (* 4 = busy-after-retries (see README "Exit codes"): retryable by
         the caller, distinct from a hard failure. *)
      exit 4
  | Error e ->
      Printf.eprintf "query: %s\n" (Wr_serve.Client.error_message e);
      exit 2
  | Ok reply -> (
      (match J.member "result" reply with
      | Some r -> print_endline (J.to_string r)
      | None -> print_endline (J.to_string reply));
      match op with
      | `Point | `Suite ->
          let field k =
            match J.member k reply with
            | Some (J.Str v) -> v
            | Some (J.Bool b) -> string_of_bool b
            | _ -> "-"
          in
          Printf.eprintf "[query] source=%s degraded=%s coalesced=%s\n" (field "source")
            (field "degraded") (field "coalesced")
      | `Health | `Shutdown -> ())

let query_cmd =
  let op =
    let doc =
      "Operation: $(b,point) (evaluate one suite point), $(b,suite) (aggregate over the \
       whole suite), $(b,health) (server metrics, cache hit rates, queue depth), or \
       $(b,shutdown) (graceful drain)."
    in
    Arg.(required & pos 0 (some (enum query_ops)) None & info [] ~docv:"OP" ~doc)
  in
  let suite =
    Arg.(value & opt string "full"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Suite id: $(b,full) or $(b,sampleN) (e.g. sample50).")
  in
  let index =
    Arg.(value & opt int 0 & info [ "i"; "index" ] ~docv:"N" ~doc:"Loop index for point.")
  in
  let config =
    Arg.(value & opt string "4w2(64)"
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc:"Configuration, e.g. 4w2(64).")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration implies.")
  in
  let registers =
    Arg.(value & opt (some int) None
         & info [ "registers" ] ~docv:"N"
             ~doc:"Register file size; defaults to the configuration's.")
  in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline; an overrun degrades the point server-side.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed back in the reply.")
  in
  let timeout =
    Arg.(value & opt int 30000
         & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Socket connect/read timeout per attempt.")
  in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ] ~docv:"N"
             ~doc:"Total attempts on busy replies or connection failures (jittered \
                   exponential backoff between them); 1 disables retrying.")
  in
  let base =
    Arg.(value & opt int 100
         & info [ "backoff-base-ms" ] ~docv:"MS" ~doc:"First retry delay before jitter.")
  in
  let cap =
    Arg.(value & opt int 2000
         & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Retry delay ceiling before jitter.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running widening-serve daemon.  Prints the result JSON to stdout and \
             reply metadata (cache source, degradation, coalescing) to stderr.  Exit 0 on \
             success, 2 on a definitive server or connection error, 4 when the server was \
             still shedding load after every retry.")
    Term.(const run_query $ op $ socket_arg $ port_arg $ host_arg $ suite $ index $ config
          $ cycles $ registers $ deadline $ id $ timeout $ retries $ base $ cap)

let store_cmd =
  let action =
    let doc = "$(b,stat) (report segments/entries/recovery) or $(b,compact) (rewrite as \
               one sorted, deduplicated segment — the canonical byte-comparable form)." in
    Arg.(required & pos 0 (some (enum [ ("stat", `Stat); ("compact", `Compact) ])) None
         & info [] ~docv:"ACTION" ~doc)
  in
  let dir =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  let run action dir =
    match Core.Store.open_dir dir with
    | exception Core.Store.Locked msg ->
        prerr_endline msg;
        exit 2
    | t, r ->
        Printf.printf "%s: %d entries in %d segment(s)\n" dir r.Core.Store.entries
          r.Core.Store.segments;
        if r.Core.Store.quarantined_segments > 0 then
          Printf.printf "  recovery: %d corrupt segment(s) quarantined\n"
            r.Core.Store.quarantined_segments;
        if r.Core.Store.truncated_bytes > 0 then
          Printf.printf "  recovery: %d torn byte(s) truncated\n" r.Core.Store.truncated_bytes;
        (match action with
        | `Stat -> ()
        | `Compact ->
            Core.Store.compact t;
            Printf.printf "compacted to 1 segment (%d entries)\n" (Core.Store.length t));
        Core.Store.close t
  in
  Cmd.v
    (Cmd.info "store" ~doc:"Inspect or compact a persistent result store directory")
    Term.(const run $ action $ dir)

let () =
  let info =
    Cmd.info "widening-cli" ~version:"1.0.0"
      ~doc:"Replication vs. widening design-space study (Lopez et al., MICRO 1998)"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           experiment_cmd; schedule_cmd; configs_cmd; workload_cmd; dot_cmd; codegen_cmd;
           simulate_cmd; file_cmd; check_cmd; serve_cmd; query_cmd; store_cmd;
         ])
  in
  (* Standardized exit codes: cmdliner reports its own parse/usage
     errors as 124 (and internal errors as 125); fold both into the
     1 = usage, 2 = runtime-failure convention the other entry points
     use. *)
  let code = if code = Cmd.Exit.cli_error then 1
             else if code = Cmd.Exit.internal_error then 2
             else code in
  exit code
