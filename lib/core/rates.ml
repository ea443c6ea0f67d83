module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Loop = Wr_ir.Loop

type t = {
  rec_rate : float;
  bus_rate : float;
  fpu_rate : float;
  cycles_per_iteration : float;
}

(* The configuration-independent half of a loop's rates: its
   recurrence rate depends only on the graph and the cycle model, and
   its compactable operations only on the width, yet the grid queries
   them for every configuration.  A study computes them once per loop
   per run; nothing is kept between runs, so a loop is only ever
   answered from its own analysis. *)
type analysis = {
  loop : Loop.t;
  cycle_model : Cycle_model.t;
  recurrence : float;
  compactable : (int * bool array) list;  (* by width *)
}

let analyze ~cycle_model ~widths (l : Loop.t) =
  {
    loop = l;
    cycle_model;
    recurrence = Wr_sched.Mii.rec_rate ~cycle_model l.Loop.ddg;
    compactable =
      List.map
        (fun width ->
          (width, (Wr_widen.Compact.analyze ~width l.Loop.ddg).Wr_widen.Compact.compactable))
        widths;
  }

(* Figure 2 is a limits study: perfect scheduling with unbounded
   unrolling hides the II >= 1 quantization, so the cost per source
   iteration is the continuous rate — compactable work needs 1/Y of a
   slot on a width-Y machine, everything else a full slot, and
   recurrences impose their cycle ratio regardless of resources.  (The
   finite-register experiments in Evaluate use the real scheduler on
   the non-unrolled body instead.) *)
let of_analysis (c : Config.t) a =
  let cycle_model = a.cycle_model in
  let g = a.loop.Loop.ddg in
  let compactable = List.assoc c.Config.width a.compactable in
  let y = float_of_int c.Config.width in
  let bus = ref 0.0 and fpu = ref 0.0 in
  Array.iter
    (fun (o : Operation.t) ->
      let occ = float_of_int (Cycle_model.occupancy cycle_model o.Operation.opcode) in
      let demand = if compactable.(o.Operation.id) then occ /. y else occ in
      match Opcode.resource_class o.Operation.opcode with
      | Opcode.Bus -> bus := !bus +. demand
      | Opcode.Fpu -> fpu := !fpu +. demand)
    (Ddg.ops g);
  let bus_rate = !bus /. float_of_int c.Config.buses in
  let fpu_rate = !fpu /. float_of_int c.Config.fpus in
  let rec_rate = a.recurrence in
  let cycles_per_iteration =
    Stdlib.max 1e-6 (Stdlib.max rec_rate (Stdlib.max bus_rate fpu_rate))
  in
  { rec_rate; bus_rate; fpu_rate; cycles_per_iteration }

let of_loop c ~cycle_model l = of_analysis c (analyze ~cycle_model ~widths:[ c.Config.width ] l)

let loop_cycles c a =
  let r = of_analysis c a in
  r.cycles_per_iteration *. float_of_int a.loop.Loop.trip_count *. a.loop.Loop.weight
