module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Dependence = Wr_ir.Dependence
module Loop = Wr_ir.Loop

type stats = {
  width : int;
  original_ops : int;
  wide_ops : int;
  compactable_ops : int;
  scalar_copies : int;
}

let pp_stats fmt s =
  Format.fprintf fmt "width=%d: %d ops -> %d (%d packed, %d scalar copies)" s.width
    s.original_ops s.wide_ops s.compactable_ops s.scalar_copies

let operand_sources g = Array.init (Ddg.num_ops g) (fun v -> Ddg.operands g v)

(* Shared replication machinery: copy every operation [y] times; the
   operations flagged in [wide] are packed into one wide operation
   instead (their [y] copies merge).  [widen] passes the compactability
   analysis; [unroll] passes all-false. *)
let replicate (loop : Loop.t) ~y ~wide ~suffix =
  let g = loop.Loop.ddg in
  let n = Ddg.num_ops g in
  begin
    (* Assign new node ids: one node for a packed op, [y] for the
       copies of a scalar op. *)
    let node_base = Array.make n 0 in
    let next_node = ref 0 in
    for u = 0 to n - 1 do
      node_base.(u) <- !next_node;
      next_node := !next_node + if wide.(u) then 1 else y
    done;
    let node_of u j = if wide.(u) then node_base.(u) else node_base.(u) + j in
    (* Assign new vregs: defs first, then live-ins (one wide register
       per live-in: the invariant value is broadcast). *)
    let next_vreg = ref 0 in
    let fresh () =
      let v = !next_vreg in
      incr next_vreg;
      v
    in
    let def_vreg = Array.make n [||] in
    for u = 0 to n - 1 do
      match (Ddg.op g u).Operation.def with
      | None -> ()
      | Some _ ->
          def_vreg.(u) <- (if wide.(u) then [| fresh () |] else Array.init y (fun _ -> fresh ()))
    done;
    let live_in_vreg = Hashtbl.create 8 in
    let live_in r =
      match Hashtbl.find_opt live_in_vreg r with
      | Some v -> v
      | None ->
          let v = fresh () in
          Hashtbl.add live_in_vreg r v;
          v
    in
    let sources = operand_sources g in
    (* Uses of copy [j] of operation [v] (or of the packed op when
       [j = -1], in which case scalar producers are impossible by the
       compactability closure). *)
    (* Operands of copy [j] of operation [v] (packed op when [j = -1]):
       the register read plus, when a scalar copy reads a packed
       producer, which lane of the wide register holds its value.  An
       operand that already selected a lane in the source graph (this
       graph was itself widened) keeps its selection: its producer's
       copies preserve their lane layout. *)
    let uses_of v j =
      List.map
        (fun (o : Ddg.operand) ->
          match o.Ddg.producer with
          | None -> (live_in o.Ddg.reg, o.Ddg.lane)
          | Some u ->
              if wide.(u) then
                if j < 0 then (def_vreg.(u).(0), None)
                else
                  let lane = ((j - o.Ddg.distance) mod y + y) mod y in
                  (def_vreg.(u).(0), Some lane)
              else begin
                assert (j >= 0);
                let lane = ((j - o.Ddg.distance) mod y + y) mod y in
                (def_vreg.(u).(lane), o.Ddg.lane)
              end)
        sources.(v)
    in
    let new_ops = Array.make !next_node None in
    for u = 0 to n - 1 do
      let o = Ddg.op g u in
      if wide.(u) then begin
        let mem =
          Option.map
            (fun (m : Memref.t) ->
              (* Stride-1 accesses widen: one access per wide iteration
                 covering [y] consecutive words. *)
              Memref.make ~array_id:m.Memref.array_id ~stride:(m.Memref.stride * y)
                ~offset:m.Memref.offset)
            o.Operation.mem
        in
        let id = node_of u 0 in
        let operands = uses_of u (-1) in
        new_ops.(id) <-
          Some
            (Operation.make ~id ~opcode:o.Operation.opcode
               ?def:(match o.Operation.def with Some _ -> Some def_vreg.(u).(0) | None -> None)
               ~uses:(List.map fst operands)
               ~lane_sel:(List.map snd operands)
               ?mem ~lanes:y ())
      end
      else
        for j = 0 to y - 1 do
          let mem =
            Option.map
              (fun (m : Memref.t) ->
                Memref.make ~array_id:m.Memref.array_id ~stride:(m.Memref.stride * y)
                  ~offset:(m.Memref.offset + (m.Memref.stride * j)))
              o.Operation.mem
          in
          let id = node_of u j in
          let operands = uses_of u j in
          new_ops.(id) <-
            Some
              (Operation.make ~id ~opcode:o.Operation.opcode
                 ?def:
                   (match o.Operation.def with
                   | Some _ -> Some def_vreg.(u).(j)
                   | None -> None)
                 ~uses:(List.map fst operands)
                 ~lane_sel:(List.map snd operands)
                 ?mem ~lanes:o.Operation.lanes ())
        done
    done;
    let ops = Array.map Option.get new_ops in
    (* Edges: member edges merged per (src, dst, kind) with the minimum
       (binding) distance. *)
    let merged : (int * int * Dependence.kind, int) Hashtbl.t = Hashtbl.create 64 in
    let add src dst kind dd =
      let key = (src, dst, kind) in
      match Hashtbl.find_opt merged key with
      | Some old -> if dd < old then Hashtbl.replace merged key dd
      | None -> Hashtbl.add merged key dd
    in
    List.iter
      (fun (e : Dependence.t) ->
        for j = 0 to y - 1 do
          let j' = (j + e.distance) mod y in
          let dd = (j + e.distance) / y in
          add (node_of e.src j) (node_of e.dst j') e.kind dd
        done)
      (Ddg.edges g);
    let edges =
      Hashtbl.fold
        (fun (src, dst, kind) distance acc -> Dependence.make ~src ~dst ~kind ~distance :: acc)
        merged []
    in
    let ddg = Ddg.create ~num_vregs:!next_vreg ~ops ~edges in
    let trip_count = Stdlib.max 1 ((loop.Loop.trip_count + y - 1) / y) in
    Loop.make
      ~name:(loop.Loop.name ^ suffix)
      ~ddg ~trip_count ~weight:loop.Loop.weight ()
  end

let widen (loop : Loop.t) ~width:y =
  if y < 1 then invalid_arg "Transform.widen: width must be >= 1";
  let g = loop.Loop.ddg in
  let n = Ddg.num_ops g in
  let analysis = Compact.analyze ~width:y g in
  let compactable_ops = analysis.Compact.num_compactable in
  if y = 1 then
    ( loop,
      { width = 1; original_ops = n; wide_ops = n; compactable_ops; scalar_copies = 0 } )
  else
    let loop' =
      replicate loop ~y ~wide:analysis.Compact.compactable
        ~suffix:(Printf.sprintf "@w%d" y)
    in
    let scalar_copies = (n - compactable_ops) * y in
    ( loop',
      {
        width = y;
        original_ops = n;
        wide_ops = compactable_ops + scalar_copies;
        compactable_ops;
        scalar_copies;
      } )

let unroll (loop : Loop.t) ~factor =
  if factor < 1 then invalid_arg "Transform.unroll: factor must be >= 1";
  if factor = 1 then loop
  else
    let n = Ddg.num_ops loop.Loop.ddg in
    replicate loop ~y:factor ~wide:(Array.make n false)
      ~suffix:(Printf.sprintf "@u%d" factor)
