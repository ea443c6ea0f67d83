module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Schedule = Wr_sched.Schedule
module Lifetime = Wr_regalloc.Lifetime
module Config = Wr_machine.Config

type allocation = {
  unroll : int;
  base : int array;
  period : int array;
  live_in_base : int;
  live_in_of : (int, int) Hashtbl.t;
  total_registers : int;
}

let rec next_pow2 n k = if k >= n then k else next_pow2 n (2 * k)

let allocate g (s : Schedule.t) =
  let ii = s.Schedule.ii in
  let lifetimes = Lifetime.of_schedule g s in
  let nv = Ddg.num_vregs g in
  let base = Array.make nv (-1) and period = Array.make nv 0 in
  (* Period per defined vreg: smallest power of two >= ceil(L/II), so
     every period divides the common unroll degree. *)
  let unroll = ref 1 in
  List.iter
    (fun (lt : Lifetime.t) ->
      let k = (Lifetime.length lt + ii - 1) / ii in
      let k = next_pow2 (Stdlib.max 1 k) 1 in
      period.(lt.Lifetime.vreg) <- k;
      if k > !unroll then unroll := k)
    lifetimes;
  let next = ref 0 in
  List.iter
    (fun (lt : Lifetime.t) ->
      base.(lt.Lifetime.vreg) <- !next;
      next := !next + period.(lt.Lifetime.vreg))
    (List.sort (fun (a : Lifetime.t) b -> compare a.Lifetime.vreg b.Lifetime.vreg) lifetimes);
  let live_in_base = !next in
  let live_in_of = Hashtbl.create 8 in
  (* First-use order, as everywhere else. *)
  Array.iter
    (fun (o : Operation.t) ->
      List.iter
        (fun r ->
          if Ddg.def_site g r = None && not (Hashtbl.mem live_in_of r) then begin
            Hashtbl.add live_in_of r !next;
            incr next
          end)
        o.Operation.uses)
    (Ddg.ops g);
  {
    unroll = !unroll;
    base;
    period;
    live_in_base;
    live_in_of;
    total_registers = !next;
  }

let physical_of_instance a ~vreg ~iteration =
  match Hashtbl.find_opt a.live_in_of vreg with
  | Some r -> r
  | None ->
      if a.base.(vreg) < 0 then invalid_arg "Codegen.physical_of_instance: dead vreg";
      a.base.(vreg) + (((iteration mod a.period.(vreg)) + a.period.(vreg)) mod a.period.(vreg))

type counts = {
  prologue_words : int;
  kernel_words : int;
  epilogue_words : int;
  nop_slots : int;
  filled_slots : int;
}

let word_counts g (s : Schedule.t) a (c : Config.t) =
  let ii = s.Schedule.ii in
  let stages = Schedule.stage_count s in
  let kernel_words = a.unroll * ii in
  (* Fill: stages-1 iterations start before steady state; drain: the
     same number finish after it.  Each ramp word is one instruction
     word of the same width. *)
  let prologue_words = (stages - 1) * ii in
  let epilogue_words = Stdlib.max 0 (Schedule.span s - ii) in
  let slots_per_word = c.Config.buses + c.Config.fpus in
  let total_words = prologue_words + kernel_words + epilogue_words in
  (* Slot occupancy: kernel packs every op once per unrolled copy;
     ramps hold partial iterations — count ramp slots as the triangular
     sum of per-stage ops. *)
  let ops_per_iteration = Ddg.num_ops g in
  let kernel_filled = ops_per_iteration * a.unroll in
  let ramp_filled =
    (* Prologue issues iterations 0..stages-2 partially; by symmetry the
       epilogue drains the same amount. *)
    let per_stage = Array.make stages 0 in
    Array.iter
      (fun (o : Operation.t) ->
        let st = Schedule.stage s o.Operation.id in
        per_stage.(st) <- per_stage.(st) + 1)
      (Ddg.ops g);
    let acc = ref 0 in
    for k = 0 to stages - 2 do
      (* Iteration starting at kernel instance k has its first k+1
         stages executed in the prologue. *)
      for st = 0 to k do
        acc := !acc + per_stage.(st)
      done
    done;
    2 * !acc
  in
  let filled_slots = kernel_filled + ramp_filled in
  let nop_slots = (total_words * slots_per_word) - filled_slots in
  { prologue_words; kernel_words; epilogue_words; nop_slots; filled_slots = kernel_filled + ramp_filled }
  |> fun x -> { x with nop_slots = Stdlib.max 0 nop_slots }

let mnemonic (o : Operation.t) =
  let base = Opcode.to_string o.Operation.opcode in
  if o.Operation.lanes > 1 then Printf.sprintf "%s.w%d" base o.Operation.lanes else base

let emit g (s : Schedule.t) a (c : Config.t) =
  let ii = s.Schedule.ii in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "; kernel for %s: II=%d, unroll=%d, %d physical registers (%d for live-ins)\n"
       (Config.label c) ii a.unroll a.total_registers
       (a.total_registers - a.live_in_base));
  (* Instances: (word, slot text).  Kernel copy m holds the body of
     iteration class m; op u of class m sits in word
     (time(u) + m*II) mod (unroll*II). *)
  let words = Array.make (a.unroll * ii) [] in
  for m = a.unroll - 1 downto 0 do
    Array.iter
      (fun (o : Operation.t) ->
        let u = o.Operation.id in
        let w = (s.Schedule.times.(u) + (m * ii)) mod (a.unroll * ii) in
        let operand k r =
          let x = List.nth (Ddg.operands g u) k in
          let reg =
            match x.Ddg.producer with
            | None -> physical_of_instance a ~vreg:r ~iteration:m
            | Some _ -> physical_of_instance a ~vreg:r ~iteration:(m - x.Ddg.distance)
          in
          match x.Ddg.lane with
          | None -> Printf.sprintf "r%d" reg
          | Some lane -> Printf.sprintf "r%d[%d]" reg lane
        in
        let dst =
          match o.Operation.def with
          | Some r -> Printf.sprintf "r%d <- " (physical_of_instance a ~vreg:r ~iteration:m)
          | None -> ""
        in
        let srcs = List.mapi operand o.Operation.uses in
        let mem =
          match o.Operation.mem with
          | Some mr ->
              [ Printf.sprintf "A%d[%d*i%+d]" mr.Memref.array_id mr.Memref.stride mr.Memref.offset ]
          | None -> []
        in
        let text =
          Printf.sprintf "%s%s %s" dst (mnemonic o) (String.concat ", " (srcs @ mem))
        in
        words.(w) <- text :: words.(w))
      (Ddg.ops g)
  done;
  Array.iteri
    (fun w slots ->
      Buffer.add_string buf
        (Printf.sprintf "%4d: %s\n" w
           (if slots = [] then "nop" else String.concat "  ||  " slots)))
    words;
  Buffer.contents buf
