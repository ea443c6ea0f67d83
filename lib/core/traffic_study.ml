module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Loop = Wr_ir.Loop
module Ddg = Wr_ir.Ddg
module Opcode = Wr_ir.Opcode

type cell = {
  config : Config.t;
  registers : int;
  spilled_loops : float;
  slowed_loops : float;
  failed_loops : float;
  traffic_overhead : float;
}

type t = cell list

let cm = Cycle_model.Cycles_4

let grid = [ (2, 1); (4, 1); (2, 2); (8, 1); (4, 2); (2, 4); (1, 8) ]

(* Per-loop outcome on one configuration: how the allocator responded
   and the loop's contributions to program and spill traffic. *)
type loop_response = {
  r_spilled : bool;
  r_slowed : bool;
  r_failed : bool;
  r_program : float;
  r_spill : float;
}

(* The schedule-and-allocate outcome comes through the loop-level cache
   ({!Evaluate.loop_cached}), so grid cells that share a machine point
   with other studies in the same process reuse their work; the spill
   and slowdown classification reads the cached result's fields. *)
let classify ~suite_id ~index config ~registers:z (loop : Loop.t) =
  (* Program traffic in scalar words per source execution. *)
  let mem_ops = Ddg.scalar_count_class loop.Loop.ddg Opcode.Bus in
  let r_program = float_of_int (mem_ops * loop.Loop.trip_count) *. loop.Loop.weight in
  let r =
    (Evaluate.loop_cached ~suite_id ~index config ~cycle_model:cm ~registers:z loop)
      .Evaluate.result
  in
  let spill_static = r.Evaluate.spill_stores + r.Evaluate.spill_loads in
  if not r.Evaluate.pipelined then
    { r_spilled = false; r_slowed = false; r_failed = true; r_program; r_spill = 0.0 }
  else if spill_static > 0 then
    {
      r_spilled = true;
      r_slowed = false;
      r_failed = false;
      r_program;
      r_spill = float_of_int (spill_static * r.Evaluate.trip_count) *. loop.Loop.weight;
    }
  else
    {
      r_spilled = false;
      r_slowed = r.Evaluate.ii > r.Evaluate.mii;
      r_failed = false;
      r_program;
      r_spill = 0.0;
    }

let run ?(registers = [ 32; 64; 128 ]) ?(suite_id = "traffic") loops =
  (* Grid cells in parallel; within a cell the loops are classified in
     parallel and the responses folded in input order, keeping the
     traffic sums bit-identical for any pool size. *)
  List.concat
    (Wr_util.Pool.parallel_list_map grid ~f:(fun (x, y) ->
      List.map
        (fun z ->
          let config = Config.xwy ~registers:z ~x ~y () in
          let indexed = Array.mapi (fun i loop -> (i, loop)) loops in
          let responses =
            Wr_util.Pool.parallel_map indexed ~f:(fun (i, loop) ->
                classify ~suite_id ~index:i config ~registers:z loop)
          in
          let spilled = ref 0 and slowed = ref 0 and failed = ref 0 in
          let program_traffic = ref 0.0 and spill_traffic = ref 0.0 in
          Array.iter
            (fun r ->
              if r.r_spilled then incr spilled;
              if r.r_slowed then incr slowed;
              if r.r_failed then incr failed;
              program_traffic := !program_traffic +. r.r_program;
              spill_traffic := !spill_traffic +. r.r_spill)
            responses;
          let n = float_of_int (Stdlib.max 1 (Array.length responses)) in
          {
            config;
            registers = z;
            spilled_loops = float_of_int !spilled /. n;
            slowed_loops = float_of_int !slowed /. n;
            failed_loops = float_of_int !failed /. n;
            traffic_overhead = !spill_traffic /. Stdlib.max 1.0 !program_traffic;
          })
        registers))

let to_text t =
  let registers = List.sort_uniq compare (List.map (fun c -> c.registers) t) in
  let headers =
    "config"
    :: List.concat_map
         (fun z ->
           [
             Printf.sprintf "%d-RF spill/slow/fail" z; Printf.sprintf "%d-RF traffic" z;
           ])
         registers
  in
  let rows =
    List.map
      (fun (x, y) ->
        Printf.sprintf "%dw%d" x y
        :: List.concat_map
             (fun z ->
               match
                 List.find_opt
                   (fun c ->
                     c.config.Config.buses = x && c.config.Config.width = y
                     && c.registers = z)
                   t
               with
               | Some c ->
                   [
                     Printf.sprintf "%.0f/%.0f/%.0f%%" (100.0 *. c.spilled_loops)
                       (100.0 *. c.slowed_loops) (100.0 *. c.failed_loops);
                     Printf.sprintf "+%.1f%%" (100.0 *. c.traffic_overhead);
                   ]
               | None -> [ "-"; "-" ])
             registers)
      grid
  in
  Wr_util.Table.render
    ~title:
      "Extension: register-pressure responses (loops that spill / slow down / fail per RF \
       size) and spill memory traffic vs program traffic, execution-weighted"
    ~headers rows
