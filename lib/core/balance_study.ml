module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model

type point = { buses : int; fpus : int; ratio : float; relative_cycles : float }

type t = (int * point list) list

let cycle_model = Cycle_model.Cycles_4

let run ?(slot_budgets = [ 3; 6; 12 ]) loops =
  let analyses = Array.map (Rates.analyze ~cycle_model ~widths:[ 1 ]) loops in
  List.map
    (fun budget ->
      let splits =
        List.filter_map
          (fun buses ->
            let fpus = budget - buses in
            if buses >= 1 && fpus >= 1 then Some (buses, fpus) else None)
          (List.init budget (fun i -> i + 1))
      in
      let cycles_of (buses, fpus) =
        let config = Config.make ~buses ~fpus ~width:1 ~registers:256 () in
        Wr_util.Stats.sum (Array.map (Rates.loop_cycles config) analyses)
      in
      let raw = List.map (fun s -> (s, cycles_of s)) splits in
      let best = List.fold_left (fun acc (_, c) -> Stdlib.min acc c) infinity raw in
      ( budget,
        List.map
          (fun ((buses, fpus), cycles) ->
            {
              buses;
              fpus;
              ratio = float_of_int fpus /. float_of_int buses;
              relative_cycles = cycles /. best;
            })
          raw ))
    slot_budgets

let to_text t =
  String.concat "\n"
    (List.map
       (fun (budget, points) ->
         Wr_util.Table.render
           ~title:
             (Printf.sprintf
                "Extension: bus/FPU balance at %d issue slots (cycles relative to the best \
                 split; the paper fixes FPUs = 2 x buses)"
                budget)
           ~headers:[ "buses"; "fpus"; "fpus/bus"; "relative cycles" ]
           (List.map
              (fun p ->
                [
                  string_of_int p.buses;
                  string_of_int p.fpus;
                  Printf.sprintf "%.1f" p.ratio;
                  Printf.sprintf "%.3f%s" p.relative_cycles
                    (if p.relative_cycles < 1.0005 then "  <- best" else "");
                ])
              points))
       t)
