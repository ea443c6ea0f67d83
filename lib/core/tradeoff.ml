module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Sia = Wr_cost.Sia
module Area = Wr_cost.Area
module Access_time = Wr_cost.Access_time
module Table = Wr_util.Table

type point = {
  config : Config.t;
  tc : float;
  cycle_model : Cycle_model.t;
  total_cycles : float;
  speedup : float;
  area : float;
}

let baseline =
  {
    Evaluate.config = Config.xwy ~registers:32 ~partitions:1 ~x:1 ~y:1 ();
    cycle_model = Cycle_model.Cycles_4;
    registers = 32;
  }

(* The baseline's wall-clock time (its Tc is 1), from its aggregate. *)
let baseline_wallclock agg =
  if not (Evaluate.acceptable agg) then
    if Evaluate.quarantined_count () = 0 then
      failwith "Tradeoff: the 1w1(32:1) baseline must pipeline nearly every loop"
    else
      (* Under supervision a quarantined baseline point is expected: the
         study completes and reports the degraded points instead of
         aborting. *)
      Printf.eprintf
        "warning: tradeoff baseline 1w1(32:1) has %.0f%% fallback weight from degraded \
         (quarantined) loops; speedups are computed against the degraded baseline\n\
         %!"
        (100.0 *. agg.Evaluate.unpipelined_weight);
  agg.Evaluate.total_cycles

(* Every configuration with the baseline, in one batch.  Each
   candidate's cycle time is priced once, and its latency model derived
   from it. *)
let evaluate_all ~suite_id loops configs =
  let priced =
    List.map
      (fun (c : Config.t) ->
        let tc = Access_time.relative c in
        (c, tc, Cycle_model.of_relative_cycle_time tc))
      configs
  in
  let points =
    List.map
      (fun (c, _, cycle_model) ->
        { Evaluate.config = c; cycle_model; registers = c.Config.registers })
      priced
  in
  match Evaluate.suites_on ~suite_id (baseline :: points) loops with
  | [] -> assert false
  | base :: aggs ->
      let base = baseline_wallclock base in
      List.map2
        (fun (config, tc, cycle_model) agg ->
          if not (Evaluate.acceptable agg) then None
          else
            Some
              {
                config;
                tc;
                cycle_model;
                total_cycles = agg.Evaluate.total_cycles;
                speedup = base /. (agg.Evaluate.total_cycles *. tc);
                area = Area.total_area config;
              })
        priced aggs

let evaluate ?(suite_id = "suite") loops c = List.hd (evaluate_all ~suite_id loops [ c ])

let panel ~suite_id ~title loops configs =
  let rows =
    List.map2
      (fun (c : Config.t) -> function
        | Some p ->
            [
              Config.label p.config;
              Printf.sprintf "%.2f" p.tc;
              Cycle_model.to_string p.cycle_model;
              Printf.sprintf "%.2f" p.speedup;
              Printf.sprintf "%.0f" (p.area /. 1e6);
            ]
        | None -> [ Config.label c; "-"; "-"; "n/a"; "-" ])
      configs
      (evaluate_all ~suite_id loops configs)
  in
  Table.render ~title
    ~headers:[ "config"; "Tc"; "latency model"; "speed-up"; "area (x10^6 l^2)" ]
    rows

let figure8 ?(suite_id = "suite") loops =
  let a =
    panel ~suite_id ~title:"Figure 8a: register file size (1w1)" loops
      (List.map (fun z -> Config.xwy ~registers:z ~x:1 ~y:1 ()) [ 32; 64; 128; 256 ])
  in
  let b =
    panel ~suite_id ~title:"Figure 8b: pure replication, 128-RF, fully partitioned" loops
      (List.map
         (fun x -> Config.xwy ~registers:128 ~partitions:x ~x ~y:1 ())
         [ 1; 2; 4; 8 ])
  in
  let c =
    panel ~suite_id ~title:"Figure 8c: pure widening, 128-RF" loops
      (List.map (fun y -> Config.xwy ~registers:128 ~x:1 ~y ()) [ 1; 2; 4; 8 ])
  in
  let d =
    panel ~suite_id ~title:"Figure 8d: factor-8 configurations, 128-RF" loops
      [
        Config.xwy ~registers:128 ~partitions:8 ~x:8 ~y:1 ();
        Config.xwy ~registers:128 ~partitions:4 ~x:4 ~y:2 ();
        Config.xwy ~registers:128 ~partitions:2 ~x:2 ~y:4 ();
        Config.xwy ~registers:128 ~partitions:1 ~x:1 ~y:8 ();
      ]
  in
  String.concat "\n" [ a; b; c; d ]

let figure9 ?(suite_id = "suite") ?(top = 5) loops =
  let candidates =
    List.map (fun g -> (g, Implementability.implementable_configs g)) Sia.generations
  in
  (* Every generation's candidates in one batch; a configuration an
     earlier generation could already build is answered by the batch's
     first copy of it. *)
  let points = evaluate_all ~suite_id loops (List.concat_map snd candidates) in
  let _, results =
    List.fold_left_map
      (fun points (g, configs) ->
        let mine, rest = Wr_util.Lists.split_at (List.length configs) points in
        (* Candidates keep their order, so the stable sort is
           deterministic. *)
        let ranked =
          List.sort (fun a b -> compare b.speedup a.speedup) (List.filter_map Fun.id mine)
        in
        (rest, (g, fst (Wr_util.Lists.split_at top ranked))))
      points candidates
  in
  results

(* Per-family cut of Figure 9; same suite-id convention as
   Spill_study.run_families (the synthetic family shares the main run's
   cache, other families evaluate under a derived id). *)
let figure9_families ?(suite_id = "suite") ?top families =
  List.map
    (fun (name, loops) ->
      let sid = if name = "synthetic" then suite_id else suite_id ^ ":" ^ name in
      (name, figure9 ~suite_id:sid ?top loops))
    families

let figure9_text results =
  String.concat "\n"
    (List.map
       (fun ((g : Sia.generation), points) ->
         Table.render
           ~title:(Printf.sprintf "Figure 9: top configurations at %s" (Sia.label g))
           ~headers:[ "config"; "Tc"; "latency model"; "speed-up"; "% die area" ]
           (List.map
              (fun p ->
                [
                  Config.label p.config;
                  Printf.sprintf "%.2f" p.tc;
                  Cycle_model.to_string p.cycle_model;
                  Printf.sprintf "%.2f" p.speedup;
                  Printf.sprintf "%.1f" (100.0 *. p.area /. g.Sia.lambda2_per_chip);
                ])
              points))
       results)

let conclusion ?(suite_id = "suite") loops =
  let best_partition x y =
    let candidates =
      List.filter_map
        (fun n ->
          if n > x || x mod n <> 0 then None
          else Some (Config.xwy ~registers:128 ~partitions:n ~x ~y ()))
        [ 1; 2; 4; 8 ]
      |> evaluate_all ~suite_id loops
      |> List.filter_map Fun.id
    in
    match List.sort (fun a b -> compare b.speedup a.speedup) candidates with
    | best :: _ -> Some best
    | [] -> None
  in
  match (best_partition 4 2, best_partition 8 1) with
  | Some p42, Some p81 ->
      Printf.sprintf
        "Conclusion check: %s speed-up %.2f, area %.0fe6 | %s speed-up %.2f, area %.0fe6\n\
         -> 4w2 achieves %.2fx the performance of 8w1 in %.0f%% of the area (paper: 1.66x in \
         81%%).\n"
        (Config.label p42.config) p42.speedup (p42.area /. 1e6) (Config.label p81.config)
        p81.speedup (p81.area /. 1e6)
        (p42.speedup /. p81.speedup)
        (100.0 *. p42.area /. p81.area)
  | _ -> "Conclusion check: one of the configurations could not be scheduled.\n"
