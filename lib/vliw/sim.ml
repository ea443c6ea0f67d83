module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Loop = Wr_ir.Loop
module Schedule = Wr_sched.Schedule
module Cycle_model = Wr_machine.Cycle_model
module Config = Wr_machine.Config
module Resource = Wr_machine.Resource

type mapping = { total_registers : int; physical : vreg:int -> iteration:int -> int }

let mve_mapping (a : Codegen.allocation) =
  {
    total_registers = a.Codegen.total_registers;
    physical = (fun ~vreg ~iteration -> Codegen.physical_of_instance a ~vreg ~iteration);
  }

let rotating_mapping (a : Rotating.allocation) =
  {
    total_registers = a.Rotating.total_registers;
    physical = (fun ~vreg ~iteration -> Rotating.physical_of_instance a ~vreg ~iteration);
  }

type result = {
  cycles : int;
  kernel_cycles : int;
  memory : Interp.memory_image;
  issued : int;
}

exception Hazard of string

let hazard fmt = Printf.ksprintf (fun s -> raise (Hazard s)) fmt

let apply_unary opc a =
  let f =
    match opc with
    | Opcode.Fneg -> fun x -> -.x
    | Opcode.Fabs -> Float.abs
    | Opcode.Fsqrt -> fun x -> sqrt (Float.abs x)
    | Opcode.Fcopy -> fun x -> x
    | _ -> invalid_arg "Sim: not unary"
  in
  Array.map f a

let apply_binary opc a b =
  let f =
    match opc with
    | Opcode.Fadd -> ( +. )
    | Opcode.Fsub -> ( -. )
    | Opcode.Fmul -> ( *. )
    | Opcode.Fdiv -> ( /. )
    | _ -> invalid_arg "Sim: not binary"
  in
  Array.init (Array.length a) (fun k -> f a.(k) b.(k))

let run g (s : Schedule.t) (a : mapping) (c : Config.t) ~iterations =
  if iterations < 0 then invalid_arg "Sim.run: negative iterations";
  let n = Ddg.num_ops g in
  let ii = s.Schedule.ii in
  let cm = s.Schedule.cycle_model in
  let operands = Array.init n (fun v -> Array.of_list (Ddg.operands g v)) in
  (* Physical register file: vectors, initialized to the prehistory
     constant (length-1 vectors broadcast on read). *)
  let regs = Array.make (Stdlib.max 1 a.total_registers) [| Interp.prehistory |] in
  (* Live-ins are architectural state set up before the loop;
     first-use order matches Interp's enumeration. *)
  let live_in_position = ref 0 in
  let live_in_seen = Hashtbl.create 8 in
  Array.iter
    (fun (o : Operation.t) ->
      List.iter
        (fun r ->
          if Ddg.def_site g r = None then begin
            let phys = a.physical ~vreg:r ~iteration:0 in
            if not (Hashtbl.mem live_in_seen phys) then begin
              Hashtbl.add live_in_seen phys ();
              regs.(phys) <- [| Interp.live_in_value !live_in_position |];
              incr live_in_position
            end
          end)
        o.Operation.uses)
    (Ddg.ops g);
  let memory : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let read_memory arr addr =
    match Hashtbl.find_opt memory (arr, addr) with
    | Some v -> v
    | None -> if addr < 0 then Interp.prehistory else Interp.initial_memory_value arr addr
  in
  (* Pending effects, bucketed by cycle. *)
  let reg_writes : (int, (int * float array) list) Hashtbl.t = Hashtbl.create 256 in
  let mem_writes : (int, (int * int * float) list) Hashtbl.t = Hashtbl.create 256 in
  let push tbl t x = Hashtbl.replace tbl t (x :: Option.value ~default:[] (Hashtbl.find_opt tbl t)) in
  (* Structural hazard tracking: unit-cycles in use, per class. *)
  let bus_use : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let fpu_use : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let reserve tbl slots cls_name t occ =
    for k = t to t + occ - 1 do
      let u = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      if u > slots then hazard "%s over-subscribed at cycle %d (%d > %d)" cls_name k u slots;
      Hashtbl.replace tbl k u
    done
  in
  (* Register-file port tracking: the area/timing models price
     2 reads + 1 write per FPU and 1 read + 1 write per bus; the
     executed program must fit those ports cycle by cycle. *)
  let read_ports = Config.read_ports c and write_ports = Config.write_ports c in
  let port_reads : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let port_writes : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let use_ports tbl limit what t k =
    let u = k + Option.value ~default:0 (Hashtbl.find_opt tbl t) in
    if u > limit then hazard "register %s ports over-subscribed at cycle %d (%d > %d)" what t u limit;
    Hashtbl.replace tbl t u
  in
  let span = if n = 0 then 0 else Schedule.span s in
  let t_max = if iterations = 0 then 0 else ((iterations - 1) * ii) + span + 40 in
  let issued = ref 0 in
  let last_effect = ref 0 in
  let operand_value ~lanes (x : Ddg.operand) ~iteration =
    (* A carried use of an iteration before the first reads the value
       the compiler's prologue set up — the prehistory constant.  This
       must not go through the register file: on a rotating file the
       physical register of a never-written instance is shared with
       other (dead) values and would expose stale data. *)
    if Ddg.def_site g x.Ddg.reg <> None && iteration - x.Ddg.distance < 0 then
      Array.make lanes Interp.prehistory
    else begin
    let phys = a.physical ~vreg:x.Ddg.reg ~iteration:(iteration - x.Ddg.distance) in
    let vec = regs.(phys) in
    match x.Ddg.lane with
    | Some k ->
        if Array.length vec = 1 then [| vec.(0) |]
        else if k < Array.length vec then [| vec.(k) |]
        else hazard "lane %d out of range of r%d" k phys
    | None ->
        if Array.length vec = lanes then vec
        else if Array.length vec = 1 then Array.make lanes vec.(0)
        else hazard "width mismatch reading r%d" phys
    end
  in
  for t = 0 to t_max do
    (* 1. Write-backs scheduled for this cycle land before issue. *)
    (match Hashtbl.find_opt reg_writes t with
    | Some ws ->
        List.iter (fun (r, v) -> regs.(r) <- v) (List.rev ws);
        Hashtbl.remove reg_writes t
    | None -> ());
    (match Hashtbl.find_opt mem_writes t with
    | Some ws ->
        List.iter (fun (arr, addr, v) -> Hashtbl.replace memory (arr, addr) v) (List.rev ws);
        Hashtbl.remove mem_writes t
    | None -> ());
    (* 2. Issue every instance scheduled at this cycle. *)
    for u = 0 to n - 1 do
      let d = t - s.Schedule.times.(u) in
      if d >= 0 && d mod ii = 0 then begin
        let iteration = d / ii in
        if iteration < iterations then begin
          let o = Ddg.op g u in
          incr issued;
          let occ = Cycle_model.occupancy cm o.Operation.opcode in
          (match Opcode.resource_class o.Operation.opcode with
          | Opcode.Bus -> reserve bus_use c.Config.buses "bus" t occ
          | Opcode.Fpu -> reserve fpu_use c.Config.fpus "fpu" t occ);
          (* Port usage: operand reads at issue, result write at
             write-back.  Fma's addend arrives on the FPU's dedicated
             accumulator port — the priced file has two general read
             ports per FPU, so only the two multiplicands contend for
             them. *)
          let port_uses =
            match o.Operation.opcode with
            | Opcode.Fma -> 2
            | _ -> List.length o.Operation.uses
          in
          use_ports port_reads read_ports "read" t port_uses;
          (match o.Operation.def with
          | Some _ ->
              use_ports port_writes write_ports "write"
                (t + Cycle_model.latency_of_op cm o.Operation.opcode)
                1
          | None -> ());
          let lanes = o.Operation.lanes in
          let latency = Cycle_model.latency_of_op cm o.Operation.opcode in
          match o.Operation.opcode with
          | Opcode.Load ->
              let m = Option.get o.Operation.mem in
              let base = Memref.address_at m ~iteration in
              let vec = Array.init lanes (fun k -> read_memory m.Memref.array_id (base + k)) in
              let dst = a.physical ~vreg:(Option.get o.Operation.def) ~iteration in
              push reg_writes (t + latency) (dst, vec);
              last_effect := Stdlib.max !last_effect (t + latency)
          | Opcode.Store ->
              let m = Option.get o.Operation.mem in
              let base = Memref.address_at m ~iteration in
              let data = operand_value ~lanes operands.(u).(0) ~iteration in
              Array.iteri
                (fun k x -> push mem_writes (t + 1) (m.Memref.array_id, base + k, x))
                data;
              last_effect := Stdlib.max !last_effect (t + 1)
          | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv) as opc ->
              let x = operand_value ~lanes operands.(u).(0) ~iteration in
              let y = operand_value ~lanes operands.(u).(1) ~iteration in
              let dst = a.physical ~vreg:(Option.get o.Operation.def) ~iteration in
              push reg_writes (t + latency) (dst, apply_binary opc x y);
              last_effect := Stdlib.max !last_effect (t + latency)
          | (Opcode.Fneg | Opcode.Fabs | Opcode.Fsqrt | Opcode.Fcopy) as opc ->
              let x = operand_value ~lanes operands.(u).(0) ~iteration in
              let dst = a.physical ~vreg:(Option.get o.Operation.def) ~iteration in
              push reg_writes (t + latency) (dst, apply_unary opc x);
              last_effect := Stdlib.max !last_effect (t + latency)
          | Opcode.Fma ->
              let x = operand_value ~lanes operands.(u).(0) ~iteration in
              let y = operand_value ~lanes operands.(u).(1) ~iteration in
              let z = operand_value ~lanes operands.(u).(2) ~iteration in
              let dst = a.physical ~vreg:(Option.get o.Operation.def) ~iteration in
              push reg_writes (t + latency)
                (dst, Array.init lanes (fun k -> Float.fma x.(k) y.(k) z.(k)));
              last_effect := Stdlib.max !last_effect (t + latency)
        end
      end
    done
  done;
  (* Flush any effects past t_max (drain). *)
  let flush tbl apply =
    let times = Hashtbl.fold (fun t _ acc -> t :: acc) tbl [] in
    List.iter
      (fun t ->
        match Hashtbl.find_opt tbl t with
        | Some ws ->
            List.iter apply (List.rev ws);
            Hashtbl.remove tbl t
        | None -> ())
      (List.sort compare times)
  in
  flush reg_writes (fun (r, v) -> regs.(r) <- v);
  flush mem_writes (fun (arr, addr, v) -> Hashtbl.replace memory (arr, addr) v);
  let memory_image =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) memory [])
  in
  {
    cycles = !last_effect + 1;
    kernel_cycles = ii * iterations;
    memory = memory_image;
    issued = !issued;
  }

let check_against_reference ?(file = `Conventional) (loop : Loop.t) (c : Config.t) ~iterations =
  let wide, _ = Wr_widen.Transform.widen loop ~width:c.Config.width in
  let g = wide.Loop.ddg in
  let cm = Cycle_model.Cycles_4 in
  let sched =
    (Wr_sched.Backend.run (Resource.of_config c) ~cycle_model:cm g).Wr_sched.Modulo.schedule
  in
  let sched = { sched with Schedule.cycle_model = cm } in
  let alloc =
    match file with
    | `Conventional -> mve_mapping (Codegen.allocate g sched)
    | `Rotating -> rotating_mapping (Rotating.allocate g sched)
  in
  match run g sched alloc c ~iterations with
  | exception Hazard msg -> Error ("hazard: " ^ msg)
  | sim ->
      let reference = Interp.run ~iterations wide in
      let sim_image = { Interp.memory = sim.memory; loads = 0; stores = 0; flops = 0 } in
      if Interp.equal_memory reference sim_image then Ok sim
      else begin
        let diffs = Interp.diff_memory reference sim_image in
        Error
          (Printf.sprintf "%d memory locations differ (first: %s)" (List.length diffs)
             (match diffs with
             | ((arr, addr), l, r) :: _ ->
                 Printf.sprintf "A%d[%d] ref=%s sim=%s" arr addr
                   (match l with Some v -> string_of_float v | None -> "-")
                   (match r with Some v -> string_of_float v | None -> "-")
             | [] -> "?"))
      end
