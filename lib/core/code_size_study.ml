module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Code_size = Wr_cost.Code_size

type entry = { config : Config.t; best_case : float; measured : float }

type t = (int * entry list) list

let cycle_model = Cycle_model.Cycles_4

(* Static code: one kernel per loop — no trip counts, no weights.
   Loops are scheduled independently in parallel; the sum folds the
   order-preserving map output sequentially, keeping the total
   deterministic for any pool size.  Schedules come from the loop-level
   cache, so the base configuration of each factor group (evaluated
   both as the divisor and as its own table row) is scheduled once. *)
let total_bits ~suite_id config loops =
  let indexed = Array.mapi (fun i loop -> (i, loop)) loops in
  Wr_util.Stats.sum
    (Wr_util.Pool.parallel_map indexed ~f:(fun (i, loop) ->
         let r =
           (Evaluate.loop_cached ~suite_id ~index:i config ~cycle_model
              ~registers:1_000_000 loop)
             .Evaluate.result
         in
         float_of_int (Code_size.loop_code_bits config ~ii:r.Evaluate.ii)))

let run ?(suite_id = "suite") loops =
  List.map
    (fun factor ->
      let rec splits x acc = if x = 0 then List.rev acc else splits (x / 2) (x :: acc) in
      let configs =
        List.map (fun x -> Config.xwy ~x ~y:(factor / x) ()) (splits factor [])
      in
      let base_bits, base_words =
        match configs with
        | base :: _ -> (total_bits ~suite_id base loops, Code_size.word_bits base)
        | [] -> (1.0, 1)
      in
      ( factor,
        Wr_util.Pool.parallel_list_map configs ~f:(fun c ->
            {
              config = c;
              (* The paper's Figure 7: at equal peak performance the
                 compactable best case needs the same number of
                 instructions, so code shrinks by the word-length
                 ratio. *)
              best_case = float_of_int (Code_size.word_bits c) /. float_of_int base_words;
              (* Our scheduler's actual kernels: non-compactable work
                 inflates the narrow machines' II and eats part of the
                 advantage. *)
              measured = total_bits ~suite_id c loops /. base_bits;
            }) ))
    [ 2; 4; 8 ]

let to_text t =
  let rows =
    List.concat_map
      (fun (_, es) ->
        List.map
          (fun e ->
            [
              Config.label_short e.config;
              Printf.sprintf "%.3f" e.best_case;
              Printf.sprintf "%.3f" e.measured;
            ])
          es)
      t
  in
  Wr_util.Table.render
    ~title:
      "Figure 7: relative code size vs the Xw1 of each factor group (best case = paper's \
       equal-instruction-count assumption; measured = scheduled kernels)"
    ~headers:[ "config"; "best case"; "measured" ]
    rows
  ^ Wr_util.Table.bar_chart ~title:"best case (paper's Figure 7)"
      (List.concat_map
         (fun (_, es) ->
           List.map (fun e -> (Config.label_short e.config, e.best_case)) es)
         t)
