module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model

type point = { config : Config.t; speedup : float }

type t = (int * point list) list

let cycle_model = Cycle_model.Cycles_4

(* Each loop is analyzed once per run, in parallel, at every width of
   the grid; the sums fold in loop order, so the totals are
   bit-identical for any pool size. *)
let run ?(max_factor = 128) loops =
  let rec factors f = if f > max_factor then [] else f :: factors (2 * f) in
  let analyses =
    Wr_util.Pool.parallel_map loops ~f:(Rates.analyze ~cycle_model ~widths:(1 :: factors 2))
  in
  let total_cycles config =
    Wr_util.Stats.sum (Array.map (Rates.loop_cycles config) analyses)
  in
  let base = total_cycles (Config.xwy ~x:1 ~y:1 ()) in
  Wr_util.Pool.parallel_list_map (factors 2) ~f:(fun factor ->
      let rec splits x acc = if x = 0 then List.rev acc else splits (x / 2) (x :: acc) in
      let xs = splits factor [] in
      let points =
        List.map
          (fun x ->
            let config = Config.xwy ~x ~y:(factor / x) () in
            { config; speedup = base /. total_cycles config })
          xs
      in
      (factor, points))

let to_text t =
  let headers = [ "factor"; "configs: speed-up (replication-heavy first)" ] in
  let rows =
    List.map
      (fun (factor, points) ->
        [
          Printf.sprintf "x%d" factor;
          String.concat "  "
            (List.map
               (fun p -> Printf.sprintf "%s=%.2f" (Config.label_short p.config) p.speedup)
               points);
        ])
      t
  in
  let table = Wr_util.Table.render ~title:"Figure 2: peak speed-up (infinite registers)" ~headers rows in
  let series name f =
    ( name,
      List.filter_map
        (fun (factor, points) ->
          List.find_opt (fun p -> f p.config) points
          |> Option.map (fun p -> (log (float_of_int factor) /. log 2.0, p.speedup)))
        t )
  in
  let chart =
    Wr_util.Table.series_chart ~title:"log2(factor) vs speed-up"
      ~series:
        [
          series "pure replication Xw1" (fun c -> c.Config.width = 1);
          series "pure widening 1wY" (fun c -> c.Config.buses = 1);
          series "balanced (X=Y or closest)" (fun c ->
              let x = c.Config.buses and y = c.Config.width in
              x = y || x = 2 * y);
        ]
      ()
  in
  table ^ "\n" ^ chart
