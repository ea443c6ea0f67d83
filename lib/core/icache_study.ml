module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop
module Schedule = Wr_sched.Schedule
module Codegen = Wr_vliw.Codegen
module Icache = Wr_cost.Icache
module Code_size = Wr_cost.Code_size

type cell = {
  config : Config.t;
  cache_kb : int;
  over_capacity_share : float;
  mean_overhead : float;
}

type t = cell list

let cm = Cycle_model.Cycles_4

let grid = [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4); (8, 1); (4, 2); (2, 4); (1, 8) ]

(* Static footprint and steady-state cost of one loop on one machine. *)
let footprint (x, y) (loop : Loop.t) =
  let config = Config.xwy ~x ~y () in
  let wide, _ = Wr_widen.Transform.widen loop ~width:y in
  let g = wide.Loop.ddg in
  let r = Wr_sched.Backend.run (Resource.of_config config) ~cycle_model:cm g in
  let s = r.Wr_sched.Modulo.schedule in
  let a = Codegen.allocate g s in
  let counts = Codegen.word_counts g s a config in
  let words =
    counts.Codegen.prologue_words + counts.Codegen.kernel_words + counts.Codegen.epilogue_words
  in
  let code_bytes = words * Code_size.word_bits config / 8 in
  let kernel_passes =
    Stdlib.max 1 (wide.Loop.trip_count / Stdlib.max 1 a.Codegen.unroll)
  in
  let kernel_cycles = s.Schedule.ii * wide.Loop.trip_count in
  (code_bytes, kernel_passes, kernel_cycles)

let run ?(cache_sizes_kb = [ 4; 8; 16; 32 ]) loops =
  (* Scheduling + codegen per loop dominates; fan it out per machine,
     and over machines (nested maps on the shared pool are safe). *)
  List.concat
    (Wr_util.Pool.parallel_list_map grid ~f:(fun (x, y) ->
      let stats = Wr_util.Pool.parallel_map loops ~f:(footprint (x, y)) in
      List.map
        (fun kb ->
          let cache = Icache.make ~size_bytes:(kb * 1024) () in
          let over = ref 0 in
          let total_stalls = ref 0.0 and total_compute = ref 0.0 in
          Array.iter
            (fun (code_bytes, kernel_passes, kernel_cycles) ->
              if not (Icache.resident cache ~code_bytes) then incr over;
              total_stalls :=
                !total_stalls
                +. float_of_int (Icache.fetch_stall_cycles cache ~code_bytes ~kernel_passes);
              total_compute := !total_compute +. float_of_int kernel_cycles)
            stats;
          let n = float_of_int (Stdlib.max 1 (Array.length loops)) in
          {
            config = Config.xwy ~x ~y ();
            cache_kb = kb;
            over_capacity_share = float_of_int !over /. n;
            mean_overhead = !total_stalls /. Stdlib.max 1.0 !total_compute;
          })
        cache_sizes_kb))

let to_text t =
  let cache_sizes = List.sort_uniq compare (List.map (fun c -> c.cache_kb) t) in
  let headers =
    "config"
    :: List.concat_map
         (fun kb -> [ Printf.sprintf "%dKB !fit" kb; Printf.sprintf "%dKB stall" kb ])
         cache_sizes
  in
  let configs =
    List.sort_uniq compare (List.map (fun c -> Config.label_short c.config) t)
  in
  (* Preserve grid order rather than alphabetical. *)
  let ordered =
    List.filter
      (fun label -> List.mem label configs)
      (List.map (fun (x, y) -> Printf.sprintf "%dw%d" x y) grid)
  in
  let rows =
    List.map
      (fun label ->
        label
        :: List.concat_map
             (fun kb ->
               match
                 List.find_opt
                   (fun c -> Config.label_short c.config = label && c.cache_kb = kb)
                   t
               with
               | Some c ->
                   [
                     Printf.sprintf "%.0f%%" (100.0 *. c.over_capacity_share);
                     Printf.sprintf "%.1f%%" (100.0 *. c.mean_overhead);
                   ]
               | None -> [ "-"; "-" ])
             cache_sizes)
      ordered
  in
  Wr_util.Table.render
    ~title:
      "Extension: instruction-cache pressure of the static code (share of loops over \
       capacity; aggregate fetch-stall overhead vs compute cycles)"
    ~headers rows
