module Ddg = Wr_ir.Ddg
module Dependence = Wr_ir.Dependence
module Operation = Wr_ir.Operation
module Schedule = Wr_sched.Schedule
module Cycle_model = Wr_machine.Cycle_model

type t = { vreg : int; def_op : int; start : int; stop : int }

let length t = t.stop - t.start

let of_schedule g (s : Schedule.t) =
  let lifetimes = ref [] in
  for r = Ddg.num_vregs g - 1 downto 0 do
    match Ddg.def_site g r with
    | None -> ()  (* live-in: not a loop variant *)
    | Some d ->
        let start = s.Schedule.times.(d) in
        let latency =
          Cycle_model.latency_of_op s.Schedule.cycle_model (Ddg.op g d).Operation.opcode
        in
        (* Last read: flow successors of the defining operation that
           read this register, at their issue time plus II per
           iteration of dependence distance. *)
        let last_read =
          List.fold_left
            (fun acc (e : Dependence.t) ->
              if e.kind = Dependence.Flow then
                let dst = Ddg.op g e.dst in
                if List.mem r dst.Operation.uses then
                  Stdlib.max acc (s.Schedule.times.(e.dst) + (s.Schedule.ii * e.distance))
                else acc
              else acc)
            (-1) (Ddg.succs g d)
        in
        let stop = if last_read < 0 then start + latency else last_read + 1 in
        let stop = Stdlib.max stop (start + 1) in
        lifetimes := { vreg = r; def_op = d; start; stop } :: !lifetimes
  done;
  !lifetimes

let max_lives ~ii lifetimes =
  if ii <= 0 then invalid_arg "Lifetime.max_lives: ii must be positive";
  (* Whole wraps cover every slot alike, so they add one scalar; the
     residual arcs go through a difference array over the II slots. *)
  let delta = Array.make (ii + 1) 0 in
  let wraps =
    List.fold_left
      (fun wraps lt ->
        let len = length lt in
        let rem = len mod ii in
        if rem > 0 then begin
          let base = ((lt.start mod ii) + ii) mod ii in
          let stop = base + rem in
          delta.(base) <- delta.(base) + 1;
          if stop <= ii then delta.(stop) <- delta.(stop) - 1
          else begin
            delta.(0) <- delta.(0) + 1;
            delta.(stop - ii) <- delta.(stop - ii) - 1
          end
        end;
        wraps + (len / ii))
      0 lifetimes
  in
  let live = ref 0 and peak = ref 0 in
  for s = 0 to ii - 1 do
    live := !live + delta.(s);
    if !live > !peak then peak := !live
  done;
  Stdlib.max 0 (wraps + !peak)

let pp fmt t =
  Format.fprintf fmt "v%d: [%d, %d) by op%d (len %d)" t.vreg t.start t.stop t.def_op (length t)
