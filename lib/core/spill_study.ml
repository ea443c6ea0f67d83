module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model

type cell = Speedup of float | Not_schedulable

type row = { config : Config.t; cells : (int * cell) list }

type t = row list

let cycle_model = Cycle_model.Cycles_4

let grid = [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4); (8, 1); (4, 2); (2, 4); (1, 8) ]

let run ?(registers = [ 32; 64; 128; 256 ]) ?(suite_id = "suite") loops =
  let point ~x ~y z =
    { Evaluate.config = Config.xwy ~registers:z ~x ~y (); cycle_model; registers = z }
  in
  (* One batch: the baseline, then every cell row by row, so each loop
     is widened once per width and scheduled once per datapath for all
     of its register files. *)
  let base, aggs =
    match
      Evaluate.suites_on ~suite_id
        (point ~x:1 ~y:1 256
        :: List.concat_map (fun (x, y) -> List.map (point ~x ~y) registers) grid)
        loops
    with
    | base :: aggs -> (base, aggs)
    | [] -> assert false
  in
  if base.Evaluate.unpipelined > 0 then
    if Evaluate.quarantined_count () = 0 then
      failwith "Spill_study: baseline 1w1/256 must pipeline every loop"
    else
      (* Under supervision a quarantined baseline point is expected: the
         study completes and reports the degraded points instead of
         aborting. *)
      Printf.eprintf
        "warning: spill study baseline 1w1/256 has %d degraded (quarantined) loops; speedups \
         are computed against the degraded baseline\n\
         %!"
        base.Evaluate.unpipelined;
  let cell z agg =
    if not (Evaluate.acceptable agg) then (z, Not_schedulable)
    else (z, Speedup (base.Evaluate.total_cycles /. agg.Evaluate.total_cycles))
  in
  snd
    (List.fold_left_map
       (fun aggs (x, y) ->
         let row, rest = Wr_util.Lists.split_at (List.length registers) aggs in
         (rest, { config = Config.xwy ~x ~y (); cells = List.map2 cell registers row }))
       aggs grid)

(* Per-family cut of the same table.  The synthetic family of a bench
   run is the very loop array the main figure ran on, so it keeps the
   main run's suite id (and therefore hits the evaluation cache); other
   families get a derived id of their own. *)
let run_families ?registers ?(suite_id = "suite") families =
  List.map
    (fun (name, loops) ->
      let sid = if name = "synthetic" then suite_id else suite_id ^ ":" ^ name in
      (name, run ?registers ~suite_id:sid loops))
    families

let to_text t =
  let registers = match t with [] -> [] | r :: _ -> List.map fst r.cells in
  let headers = "config" :: List.map (fun z -> Printf.sprintf "%d-RF" z) registers in
  let rows =
    List.map
      (fun r ->
        Config.label_short r.config
        :: List.map
             (fun (_, c) ->
               match c with
               | Speedup s -> Printf.sprintf "%.2f" s
               | Not_schedulable -> "n/a")
             r.cells)
      t
  in
  Wr_util.Table.render
    ~title:"Figure 3: speed-up with spill code (baseline 1w1 256-RF, 4-cycle model)" ~headers
    rows
