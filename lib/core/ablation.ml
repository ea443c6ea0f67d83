module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop
module Schedule = Wr_sched.Schedule
module Driver = Wr_regalloc.Driver
module Table = Wr_util.Table

let cm = Cycle_model.Cycles_4

(* --- compactability sensitivity ---------------------------------------- *)

let compactability ?(stride1_probs = [ 0.5; 0.7; 0.85; 0.95; 1.0 ]) ?(num_loops = 300) () =
  let speedups p =
    let params =
      {
        Wr_workload.Generator.default with
        Wr_workload.Generator.stride1_prob = p;
        num_loops;
        (* A distinct seed per point would conflate sampling noise with
           the knob; share the seed so only the strides move. *)
      }
    in
    let loops = Wr_workload.Generator.generate params in
    let peak = Peak_study.run ~max_factor:32 loops in
    let find factor x y =
      let _, points = List.find (fun (f, _) -> f = factor) peak in
      (List.find
         (fun (pt : Peak_study.point) ->
           pt.Peak_study.config.Config.buses = x && pt.Peak_study.config.Config.width = y)
         points)
        .Peak_study.speedup
    in
    (find 8 8 1, find 8 2 4, find 8 1 8, find 32 1 32)
  in
  let rows =
    List.map
      (fun p ->
        let s81, s24, s18, s132 = speedups p in
        [
          Printf.sprintf "%.2f" p;
          Printf.sprintf "%.2f" s81;
          Printf.sprintf "%.2f" s24;
          Printf.sprintf "%.2f" s18;
          Printf.sprintf "%.2f" s132;
        ])
      stride1_probs
  in
  Table.render
    ~title:
      "Ablation: peak speed-up vs stride-1 fraction (widening lives and dies on compactable \
       memory; replication barely moves)"
    ~headers:[ "stride-1 prob"; "8w1 (x8)"; "2w4 (x8)"; "1w8 (x8)"; "1w32 (x32)" ]
    rows

(* --- register-pressure levers ------------------------------------------- *)

let pressure_levers loops =
  (* Every loop, the baseline's included, goes through the same
     pipeline under the policy, so a loop the policy cannot pipeline is
     charged that policy's unpipelined fallback. *)
  let evaluate policy (x, y) registers =
    let config = Config.xwy ~registers ~x ~y () in
    let cycles = ref 0.0 and fallback_weight = ref 0.0 and total_weight = ref 0.0 in
    Array.iter
      (fun (loop : Loop.t) ->
        let r = Evaluate.loop_on ~policy config ~cycle_model:cm ~registers loop in
        cycles := !cycles +. r.Evaluate.cycles;
        total_weight := !total_weight +. loop.Loop.weight;
        if not r.Evaluate.pipelined then fallback_weight := !fallback_weight +. loop.Loop.weight)
      loops;
    (!cycles, 100.0 *. !fallback_weight /. Stdlib.max 1e-9 !total_weight)
  in
  let baseline, _ = evaluate Driver.Combined (1, 1) 256 in
  let rows =
    List.concat_map
      (fun (x, y) ->
        List.concat_map
          (fun registers ->
            List.map
              (fun (name, policy) ->
                let cycles, fallback = evaluate policy (x, y) registers in
                [
                  Printf.sprintf "%dw%d/%d" x y registers;
                  name;
                  Printf.sprintf "%.2f" (baseline /. cycles);
                  Printf.sprintf "%.1f%%" fallback;
                ])
              [
                ("spill only", Driver.Spill_only);
                ("escalate only", Driver.Escalate_only);
                ("combined", Driver.Combined);
              ])
          [ 32; 64 ])
      [ (4, 2); (8, 1) ]
  in
  Table.render
    ~title:
      "Ablation: the two register-pressure levers (speed-up vs 1w1/256; fallback = weight \
       compiled without pipelining)"
    ~headers:[ "config"; "policy"; "speed-up"; "fallback" ]
    rows

(* --- rotating vs conventional register file ------------------------------ *)

let rotating_file loops =
  let evaluate (x, y) =
    let config = Config.xwy ~x ~y () in
    let resource = Resource.of_config config in
    let wands_total = ref 0 and rotating_total = ref 0 and mve_total = ref 0 in
    let unrolls = ref [] in
    let counted = ref 0 in
    Array.iter
      (fun (loop : Loop.t) ->
        let wide, _ = Wr_widen.Transform.widen loop ~width:y in
        let g = wide.Loop.ddg in
        let r = Wr_sched.Backend.run resource ~cycle_model:cm g in
        let s = r.Wr_sched.Modulo.schedule in
        let lts = Wr_regalloc.Lifetime.of_schedule g s in
        let wands = Wr_regalloc.Alloc.allocate ~ii:s.Schedule.ii lts in
        let rotating = Wr_vliw.Rotating.allocate g s in
        let mve = Wr_vliw.Codegen.allocate g s in
        incr counted;
        wands_total := !wands_total + wands.Wr_regalloc.Alloc.required;
        rotating_total := !rotating_total + rotating.Wr_vliw.Rotating.num_rotating;
        mve_total := !mve_total + mve.Wr_vliw.Codegen.live_in_base;
        unrolls := float_of_int mve.Wr_vliw.Codegen.unroll :: !unrolls)
      loops;
    let n = float_of_int (Stdlib.max 1 !counted) in
    ( float_of_int !wands_total /. n,
      float_of_int !rotating_total /. n,
      float_of_int !mve_total /. n,
      Wr_util.Stats.mean (Array.of_list !unrolls) )
  in
  let rows =
    List.map
      (fun (x, y) ->
        let wands, rotating, mve, unroll = evaluate (x, y) in
        [
          Printf.sprintf "%dw%d" x y;
          Printf.sprintf "%.1f" wands;
          Printf.sprintf "%.1f" rotating;
          Printf.sprintf "%.1f" mve;
          Printf.sprintf "%.2fx" (mve /. Stdlib.max 1e-9 rotating);
          Printf.sprintf "%.2fx" unroll;
        ])
      [ (1, 1); (2, 1); (1, 2); (4, 1); (2, 2); (8, 1); (4, 2) ]
  in
  Table.render
    ~title:
      "Ablation: register files — wands model vs actual rotating packing vs conventional \
       (MVE), mean registers per loop and the kernel unrolling MVE needs"
    ~headers:
      [ "config"; "wands model"; "rotating"; "MVE"; "MVE/rotating"; "kernel growth" ]
    rows
