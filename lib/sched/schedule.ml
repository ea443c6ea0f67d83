module Ddg = Wr_ir.Ddg
module Dependence = Wr_ir.Dependence
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource

type t = { ii : int; times : int array; cycle_model : Cycle_model.t }

let make ~ii ~times ~cycle_model =
  if ii <= 0 then invalid_arg "Schedule.make: ii must be positive";
  Array.iter (fun t -> if t < 0 then invalid_arg "Schedule.make: negative time") times;
  { ii; times; cycle_model }

let stage_count t =
  if Array.length t.times = 0 then 0
  else 1 + (Array.fold_left Stdlib.max 0 t.times / t.ii)

let stage t i = t.times.(i) / t.ii

let span t =
  if Array.length t.times = 0 then 0
  else
    let mx = Array.fold_left Stdlib.max t.times.(0) t.times in
    let mn = Array.fold_left Stdlib.min t.times.(0) t.times in
    mx - mn + 1

let validate g resource t =
  let n = Ddg.num_ops g in
  if Array.length t.times <> n then Error "schedule length mismatch"
  else begin
    let dep_error = ref None in
    List.iter
      (fun (e : Dependence.t) ->
        let src = Ddg.op g e.src in
        let d =
          Dependence.delay_rule e.kind
            ~producer_latency:(Cycle_model.latency_of_op t.cycle_model src.Operation.opcode)
        in
        if t.times.(e.dst) < t.times.(e.src) + d - (t.ii * e.distance) then
          match !dep_error with
          | None ->
              dep_error :=
                Some
                  (Printf.sprintf "dependence violated: op%d@%d -> op%d@%d (delay %d, dist %d, ii %d)"
                     e.src t.times.(e.src) e.dst t.times.(e.dst) d e.distance t.ii)
          | Some _ -> ())
      (Ddg.edges g);
    match !dep_error with
    | Some msg -> Error msg
    | None ->
        (* Rebuild the reservation table and look for over-subscription.
           [Mrt.can_place] is queried before every [Mrt.place], so a
           failure here is a genuine capacity violation — an
           [Invalid_argument] escaping [place] would indicate misuse of
           the table (bad II, negative occupancy), not an illegal
           schedule, and is deliberately left to propagate. *)
        let mrt = Mrt.create ~ii:t.ii resource in
        let res_error = ref None in
        Array.iter
          (fun (o : Operation.t) ->
            let cls = Opcode.resource_class o.Operation.opcode in
            let occupancy = Cycle_model.occupancy t.cycle_model o.Operation.opcode in
            let time = t.times.(o.Operation.id) in
            if Mrt.can_place mrt cls ~time ~occupancy then
              Mrt.place mrt cls ~time ~occupancy
            else
              match !res_error with
              | None ->
                  res_error :=
                    Some
                      (Printf.sprintf
                         "resource over-subscribed: op%d (%s, occupancy %d) at time %d \
                          exceeds the %d %s slot(s) of kernel slot %d (II %d)"
                         o.Operation.id
                         (Opcode.to_string o.Operation.opcode)
                         occupancy time
                         (Resource.slots resource cls)
                         (match cls with Opcode.Bus -> "bus" | Opcode.Fpu -> "FPU")
                         (((time mod t.ii) + t.ii) mod t.ii)
                         t.ii)
              | Some _ -> ())
          (Ddg.ops g);
        (match !res_error with Some msg -> Error msg | None -> Ok ())
  end

(* Steady state launches one iteration per II; the last iteration
   retires [span] cycles after its launch, so a T-trip execution takes
   (T-1)*II + span — which degenerates correctly at the edges the
   plain II*T accounting got wrong: 0 trips cost 0 (II*T said 0 too,
   but only by accident of multiplication), and a single trip costs the
   full fill+drain span of one iteration, not one II. *)
let cycles t ~trip_count =
  if trip_count < 0 then
    invalid_arg (Printf.sprintf "Schedule.cycles: negative trip_count %d" trip_count)
  else if trip_count = 0 || Array.length t.times = 0 then 0
  else ((trip_count - 1) * t.ii) + span t

let kernel_view g resource t =
  let buf = Buffer.create 1024 in
  let bus_cap = Resource.slots resource Opcode.Bus in
  let fpu_cap = Resource.slots resource Opcode.Fpu in
  Buffer.add_string buf
    (Printf.sprintf "kernel: II=%d, %d stages, %d/%d bus/FPU slots per cycle\n" t.ii
       (stage_count t) bus_cap fpu_cap);
  for slot = 0 to t.ii - 1 do
    let here =
      List.filter
        (fun (o : Operation.t) -> t.times.(o.Operation.id) mod t.ii = slot)
        (Array.to_list (Ddg.ops g))
    in
    let count cls =
      List.length
        (List.filter
           (fun (o : Operation.t) -> Opcode.resource_class o.Operation.opcode = cls)
           here)
    in
    Buffer.add_string buf
      (Printf.sprintf "  slot %2d [bus %d/%d, fpu %d/%d]: %s\n" slot (count Opcode.Bus)
         bus_cap (count Opcode.Fpu) fpu_cap
         (String.concat "; "
            (List.map
               (fun (o : Operation.t) ->
                 Printf.sprintf "op%d:%s(s%d)" o.Operation.id
                   (Opcode.to_string o.Operation.opcode)
                   (t.times.(o.Operation.id) / t.ii))
               here)))
  done;
  Buffer.contents buf

let pp fmt t =
  Format.fprintf fmt "@[<v>schedule: II=%d, stages=%d@," t.ii (stage_count t);
  Array.iteri
    (fun i time ->
      Format.fprintf fmt "  op%d @ %d (slot %d, stage %d)@," i time (time mod t.ii)
        (time / t.ii))
    t.times;
  Format.fprintf fmt "@]"
