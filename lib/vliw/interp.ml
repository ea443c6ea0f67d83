module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Dependence = Wr_ir.Dependence
module Loop = Wr_ir.Loop

type memory_image = ((int * int) * float) list

type result = { memory : memory_image; loads : int; stores : int; flops : int }

let empty_result = { memory = []; loads = 0; stores = 0; flops = 0 }

let prehistory = 1.5

(* Deterministic initial contents of memory word (array, addr >= 0):
   a value in [1, 2) that differs across words, so lane or address
   mix-ups change the result. *)
let initial_memory_value array_id addr =
  let h = Hashtbl.hash (array_id, addr, "mem") land 0xFFFFF in
  1.0 +. (float_of_int h /. 1048576.0)

let live_in_value position =
  let h = Hashtbl.hash (position, "livein") land 0xFFFFF in
  1.0 +. (float_of_int h /. 1048576.0)

(* Evaluation order within an iteration: topological on the
   distance-0 edges (which include the same-iteration memory ordering
   edges), ties by operation id.  Reloads inserted by spilling have
   high ids but must run before their consumers, so plain id order is
   not enough. *)
let intra_iteration_order g =
  let n = Ddg.num_ops g in
  let indegree = Array.make n 0 in
  let succs0 = Array.make n [] in
  List.iter
    (fun (e : Dependence.t) ->
      if e.distance = 0 then begin
        indegree.(e.dst) <- indegree.(e.dst) + 1;
        succs0.(e.src) <- e.dst :: succs0.(e.src)
      end)
    (Ddg.edges g);
  let module IS = Set.Make (Int) in
  let ready = ref IS.empty in
  for v = 0 to n - 1 do
    if indegree.(v) = 0 then ready := IS.add v !ready
  done;
  let order = Array.make n 0 in
  for k = 0 to n - 1 do
    match IS.min_elt_opt !ready with
    | None -> invalid_arg "Interp: distance-0 cycle (invalid graph)"
    | Some v ->
        ready := IS.remove v !ready;
        order.(k) <- v;
        List.iter
          (fun w ->
            indegree.(w) <- indegree.(w) - 1;
            if indegree.(w) = 0 then ready := IS.add w !ready)
          succs0.(v)
  done;
  order

let unary_fn = function
  | Opcode.Fneg -> fun x -> -.x
  | Opcode.Fabs -> Float.abs
  | Opcode.Fsqrt -> fun x -> sqrt (Float.abs x)  (* total: synthetic data may go negative *)
  | Opcode.Fcopy -> fun x -> x
  | _ -> invalid_arg "Interp: not a unary opcode"

let binary_fn = function
  | Opcode.Fadd -> ( +. )
  | Opcode.Fsub -> ( -. )
  | Opcode.Fmul -> ( *. )
  | Opcode.Fdiv -> ( /. )
  | _ -> invalid_arg "Interp: not a binary opcode"

(* --- reference engine --------------------------------------------------

   The original straight-line interpreter: per-operand float-array
   allocation, a polymorphic Hashtbl for memory, side tables rebuilt on
   every call.  Retained verbatim (plus [Fma]) as the semantic anchor
   the flat kernel below is differentially tested against. *)

let run_reference ?iterations (loop : Loop.t) =
  let g = loop.Loop.ddg in
  let n = Ddg.num_ops g in
  let iterations = match iterations with Some i -> i | None -> loop.Loop.trip_count in
  if iterations < 0 then invalid_arg "Interp.run: negative iteration count";
  if iterations = 0 then empty_result
  else begin
    let order = intra_iteration_order g in
    let operands = Array.init n (fun v -> Array.of_list (Ddg.operands g v)) in
    (* Live-in values, keyed in first-use order (scanning operations in
       id order matches how the transforms renumber live-ins). *)
    let live_ins = Hashtbl.create 8 in
    Array.iter
      (fun (o : Operation.t) ->
        List.iter
          (fun r ->
            if Ddg.def_site g r = None && not (Hashtbl.mem live_ins r) then
              Hashtbl.add live_ins r (live_in_value (Hashtbl.length live_ins)))
          o.Operation.uses)
      (Ddg.ops g);
    (* Value store: values.(op) is a circular buffer over iterations
       (depth = max carried distance + 1), one float array (lanes) per
       slot; [None] marks prehistory. *)
    let max_distance =
      List.fold_left (fun acc (e : Dependence.t) -> Stdlib.max acc e.distance) 0 (Ddg.edges g)
    in
    let depth = max_distance + 1 in
    let values = Array.init n (fun _ -> Array.make depth None) in
    let memory : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
    let loads = ref 0 and stores = ref 0 and flops = ref 0 in
    let read_memory array_id addr =
      incr loads;
      match Hashtbl.find_opt memory (array_id, addr) with
      | Some v -> v
      | None -> if addr < 0 then prehistory else initial_memory_value array_id addr
    in
    let write_memory array_id addr v =
      incr stores;
      Hashtbl.replace memory (array_id, addr) v
    in
    (* Value of the operand [x] of an op with [lanes] lanes at iteration
       [iter]. *)
    let operand_value ~lanes iter (x : Ddg.operand) =
      let producer_vector =
        match x.Ddg.producer with
        | None -> [| Hashtbl.find live_ins x.Ddg.reg |]
        | Some p ->
            let src_iter = iter - x.Ddg.distance in
            if src_iter < 0 then
              [| prehistory |]  (* any lane of the prehistory is the constant *)
            else begin
              match values.(p).(src_iter mod depth) with
              | Some v -> v
              | None -> invalid_arg "Interp: read of value not yet computed (invalid order)"
            end
      in
      match x.Ddg.lane with
      | Some k ->
          if Array.length producer_vector = 1 then [| producer_vector.(0) |]
          else if k < Array.length producer_vector then [| producer_vector.(k) |]
          else invalid_arg "Interp: lane out of range"
      | None ->
          if Array.length producer_vector = lanes then producer_vector
          else if Array.length producer_vector = 1 then Array.make lanes producer_vector.(0)
          else invalid_arg "Interp: operand width mismatch"
    in
    for iter = 0 to iterations - 1 do
      Array.iter
        (fun v ->
          let o = Ddg.op g v in
          let lanes = o.Operation.lanes in
          let result =
            match o.Operation.opcode with
            | Opcode.Load ->
                let m = Option.get o.Operation.mem in
                let base = Memref.address_at m ~iteration:iter in
                Some (Array.init lanes (fun k -> read_memory m.Memref.array_id (base + k)))
            | Opcode.Store ->
                let m = Option.get o.Operation.mem in
                let base = Memref.address_at m ~iteration:iter in
                let data = operand_value ~lanes iter operands.(v).(0) in
                Array.iteri (fun k x -> write_memory m.Memref.array_id (base + k) x) data;
                None
            | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv) as opc ->
                let f = binary_fn opc in
                let a = operand_value ~lanes iter operands.(v).(0) in
                let b = operand_value ~lanes iter operands.(v).(1) in
                flops := !flops + lanes;
                Some (Array.init lanes (fun k -> f a.(k) b.(k)))
            | Opcode.Fma ->
                let a = operand_value ~lanes iter operands.(v).(0) in
                let b = operand_value ~lanes iter operands.(v).(1) in
                let c = operand_value ~lanes iter operands.(v).(2) in
                flops := !flops + lanes;
                Some (Array.init lanes (fun k -> Float.fma a.(k) b.(k) c.(k)))
            | (Opcode.Fneg | Opcode.Fabs | Opcode.Fsqrt | Opcode.Fcopy) as opc ->
                let f = unary_fn opc in
                let a = operand_value ~lanes iter operands.(v).(0) in
                flops := !flops + lanes;
                Some (Array.map f a)
          in
          match result with
          | Some vec -> values.(v).(iter mod depth) <- Some vec
          | None -> ())
        order
    done;
    let memory =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) memory [])
    in
    { memory; loads = !loads; stores = !stores; flops = !flops }
  end

(* --- flat kernel -------------------------------------------------------

   [compile] lowers a dependence graph once into a scalar micro-op tape
   (one micro-op per lane of each operation, in intra-iteration
   topological order) over dense [int] arrays, with every operand
   resolved at compile time to a (value slot, iteration distance) pair.
   [run_plan] then executes the tape with no per-iteration allocation:

   - Values live in one flat [float array] of [depth + 1] phases of
     [n_slots] scalar slots, where [depth] is the circular-buffer depth
     (max carried distance + 1).  Phase [(iter - d) mod depth] holds the
     values produced [d] iterations ago; the extra phase at the end is
     a constant block pre-filled with the prehistory value, and
     [pbase.(d)] is pointed at it whenever [iter < d] — so prehistory
     reads cost nothing in the steady state and the inner loop has no
     per-operand branch at all.
   - Live-in values are written into their slot in every real phase up
     front, so a live-in read is an ordinary distance-0 slot read.
   - Memory is a set of per-array arenas.  Every access is affine
     ([stride * iter + offset], offset pre-adjusted per lane), so the
     exact address range of a run is known from the plan and the
     iteration count; in-range arrays get a dense [float array] plus a
     state byte per word (untouched / read-initialized / written), and
     pathologically large ranges spill over to a Hashtbl keyed by
     address with identical semantics.

   Indices are validated once at the end of [compile] ([validate]), so
   the [unsafe_get]/[unsafe_set] in the inner loop are in bounds by
   construction. *)

(* Micro-opcode encoding on the tape. *)
let uop_load = 0
let uop_store = 1
let uop_fadd = 2
let uop_fsub = 3
let uop_fmul = 4
let uop_fdiv = 5
let uop_fsqrt = 6
let uop_fneg = 7
let uop_fabs = 8
let uop_fcopy = 9
let uop_fma = 10

type plan = {
  source : Loop.t;  (** the loop this plan was compiled from *)
  n_micro : int;
  code : int array;  (** micro-opcode per tape entry *)
  dst : int array;  (** destination slot (stores: unused 0) *)
  src1 : int array;  (** first source slot *)
  d1 : int array;  (** first source iteration distance *)
  src2 : int array;
  d2 : int array;
  src3 : int array;
  d3 : int array;
  m_arena : int array;  (** arena index for memory micro-ops, -1 otherwise *)
  m_stride : int array;
  m_offset : int array;  (** per-lane offset: memref offset + lane *)
  n_slots : int;  (** scalar value slots per phase *)
  depth : int;  (** circular-buffer depth = max carried distance + 1 *)
  live_in_slots : int array;
  live_in_vals : float array;
  arena_ids : int array;  (** program array id per arena, ascending *)
  loads_per_iter : int;
  stores_per_iter : int;
  flops_per_iter : int;
}

let validate p =
  let bad msg = invalid_arg ("Interp.compile: internal validation failed: " ^ msg) in
  let n = p.n_micro in
  if
    Array.length p.code <> n || Array.length p.dst <> n || Array.length p.src1 <> n
    || Array.length p.d1 <> n || Array.length p.src2 <> n || Array.length p.d2 <> n
    || Array.length p.src3 <> n || Array.length p.d3 <> n || Array.length p.m_arena <> n
    || Array.length p.m_stride <> n || Array.length p.m_offset <> n
  then bad "tape arrays disagree on length";
  let slot_ok s = s >= 0 && s < p.n_slots in
  let dist_ok d = d >= 0 && d < p.depth in
  for j = 0 to n - 1 do
    let c = p.code.(j) in
    if c < uop_load || c > uop_fma then bad "unknown micro-opcode";
    if c <> uop_store && not (slot_ok p.dst.(j)) then bad "destination slot out of range";
    if c <> uop_load && (not (slot_ok p.src1.(j)) || not (dist_ok p.d1.(j))) then
      bad "first operand out of range";
    if not (slot_ok p.src2.(j)) || not (dist_ok p.d2.(j)) then bad "second operand out of range";
    if not (slot_ok p.src3.(j)) || not (dist_ok p.d3.(j)) then bad "third operand out of range";
    if c = uop_load || c = uop_store then begin
      if p.m_arena.(j) < 0 || p.m_arena.(j) >= Array.length p.arena_ids then
        bad "arena index out of range"
    end
  done;
  Array.iter (fun s -> if not (slot_ok s) then bad "live-in slot out of range") p.live_in_slots;
  if Array.length p.live_in_slots <> Array.length p.live_in_vals then bad "live-in tables disagree"

let compile (loop : Loop.t) =
  let g = loop.Loop.ddg in
  let n = Ddg.num_ops g in
  let order = intra_iteration_order g in
  let ops = Ddg.ops g in
  (* Scalar slot assignment: [lanes] consecutive slots per
     value-producing operation, then one per live-in. *)
  let slot_base = Array.make n (-1) in
  let next_slot = ref 0 in
  Array.iter
    (fun (o : Operation.t) ->
      if o.Operation.opcode <> Opcode.Store then begin
        slot_base.(o.Operation.id) <- !next_slot;
        next_slot := !next_slot + o.Operation.lanes
      end)
    ops;
  (* Live-ins in first-use order over id-ordered operations — the same
     enumeration as the reference engine, so values agree. *)
  let live_slot = Hashtbl.create 8 in
  let live_rev = ref [] in
  Array.iter
    (fun (o : Operation.t) ->
      List.iter
        (fun r ->
          if Ddg.def_site g r = None && not (Hashtbl.mem live_slot r) then begin
            let v = live_in_value (Hashtbl.length live_slot) in
            Hashtbl.add live_slot r !next_slot;
            live_rev := (!next_slot, v) :: !live_rev;
            incr next_slot
          end)
        o.Operation.uses)
    ops;
  let live = Array.of_list (List.rev !live_rev) in
  let n_slots = !next_slot in
  let max_distance =
    List.fold_left (fun acc (e : Dependence.t) -> Stdlib.max acc e.distance) 0 (Ddg.edges g)
  in
  let depth = max_distance + 1 in
  (* Arenas: one per distinct array id, ascending. *)
  let arena_tbl = Hashtbl.create 8 in
  Array.iter
    (fun (o : Operation.t) ->
      match o.Operation.mem with
      | Some m -> Hashtbl.replace arena_tbl m.Memref.array_id ()
      | None -> ())
    ops;
  let arena_ids =
    Array.of_list (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) arena_tbl []))
  in
  let arena_index = Hashtbl.create 8 in
  Array.iteri (fun i a -> Hashtbl.add arena_index a i) arena_ids;
  (* Tape emission, one micro-op per lane in topological order. *)
  let n_micro = Array.fold_left (fun acc (o : Operation.t) -> acc + o.Operation.lanes) 0 ops in
  let code = Array.make n_micro 0 in
  let dst = Array.make n_micro 0 in
  let src1 = Array.make n_micro 0 and d1 = Array.make n_micro 0 in
  let src2 = Array.make n_micro 0 and d2 = Array.make n_micro 0 in
  let src3 = Array.make n_micro 0 and d3 = Array.make n_micro 0 in
  let m_arena = Array.make n_micro (-1) in
  let m_stride = Array.make n_micro 0 in
  let m_offset = Array.make n_micro 0 in
  let loads = ref 0 and stores = ref 0 and flops = ref 0 in
  (* Compile-time operand resolution: mirrors the reference engine's
     [operand_value] lane logic exactly, but once instead of per
     iteration. *)
  let resolve ~lanes k (x : Ddg.operand) =
    match x.Ddg.producer with
    | None -> (Hashtbl.find live_slot x.Ddg.reg, 0)
    | Some p ->
        let pl = (Ddg.op g p).Operation.lanes in
        let lane =
          match x.Ddg.lane with
          | Some j ->
              if pl = 1 then 0
              else if j < pl then j
              else invalid_arg "Interp: lane out of range"
          | None ->
              if pl = lanes then k
              else if pl = 1 then 0
              else invalid_arg "Interp: operand width mismatch"
        in
        (slot_base.(p) + lane, x.Ddg.distance)
  in
  let j = ref 0 in
  Array.iter
    (fun v ->
      let o = Ddg.op g v in
      let lanes = o.Operation.lanes in
      let operands = Array.of_list (Ddg.operands g v) in
      let emit c ~k =
        let i = !j in
        incr j;
        code.(i) <- c;
        if c <> uop_store then dst.(i) <- slot_base.(v) + k;
        (match o.Operation.mem with
        | Some m when c = uop_load || c = uop_store ->
            m_arena.(i) <- Hashtbl.find arena_index m.Memref.array_id;
            m_stride.(i) <- m.Memref.stride;
            m_offset.(i) <- m.Memref.offset + k
        | _ -> ());
        i
      in
      let set1 i (s, d) = src1.(i) <- s; d1.(i) <- d in
      let set2 i (s, d) = src2.(i) <- s; d2.(i) <- d in
      let set3 i (s, d) = src3.(i) <- s; d3.(i) <- d in
      match o.Operation.opcode with
      | Opcode.Load ->
          loads := !loads + lanes;
          for k = 0 to lanes - 1 do
            ignore (emit uop_load ~k)
          done
      | Opcode.Store ->
          stores := !stores + lanes;
          for k = 0 to lanes - 1 do
            let i = emit uop_store ~k in
            set1 i (resolve ~lanes k operands.(0))
          done
      | (Opcode.Fadd | Opcode.Fsub | Opcode.Fmul | Opcode.Fdiv) as opc ->
          let c =
            match opc with
            | Opcode.Fadd -> uop_fadd
            | Opcode.Fsub -> uop_fsub
            | Opcode.Fmul -> uop_fmul
            | _ -> uop_fdiv
          in
          flops := !flops + lanes;
          for k = 0 to lanes - 1 do
            let i = emit c ~k in
            set1 i (resolve ~lanes k operands.(0));
            set2 i (resolve ~lanes k operands.(1))
          done
      | Opcode.Fma ->
          flops := !flops + lanes;
          for k = 0 to lanes - 1 do
            let i = emit uop_fma ~k in
            set1 i (resolve ~lanes k operands.(0));
            set2 i (resolve ~lanes k operands.(1));
            set3 i (resolve ~lanes k operands.(2))
          done
      | (Opcode.Fneg | Opcode.Fabs | Opcode.Fsqrt | Opcode.Fcopy) as opc ->
          let c =
            match opc with
            | Opcode.Fneg -> uop_fneg
            | Opcode.Fabs -> uop_fabs
            | Opcode.Fsqrt -> uop_fsqrt
            | _ -> uop_fcopy
          in
          flops := !flops + lanes;
          for k = 0 to lanes - 1 do
            let i = emit c ~k in
            set1 i (resolve ~lanes k operands.(0))
          done)
    order;
  let p =
    {
      source = loop;
      n_micro;
      code;
      dst;
      src1;
      d1;
      src2;
      d2;
      src3;
      d3;
      m_arena;
      m_stride;
      m_offset;
      n_slots;
      depth;
      live_in_slots = Array.map fst live;
      live_in_vals = Array.map snd live;
      arena_ids;
      loads_per_iter = !loads;
      stores_per_iter = !stores;
      flops_per_iter = !flops;
    }
  in
  validate p;
  p

(* Memory arenas.  The dense backend stores one float and one state
   byte per word of the (exactly known) address range; ranges larger
   than the cap fall back to a per-array Hashtbl with the same
   semantics.  Only written words ([st_written]) enter the memory
   image, matching the reference engine's Hashtbl of stores; reads of
   untouched dense words cache the computed initial value
   ([st_read]) so the hash is paid once per word, not per read. *)

let st_untouched = '\000'
let st_read = '\001'
let st_written = '\002'

(* 32 MB of floats per array; synthetic trip counts keep real runs far
   below this, so the cap only guards degenerate stride/offset mixes. *)
let dense_cap = 1 lsl 22

type backend =
  | Dense of { base : int; store : float array; state : Bytes.t }
  | Sparse of (int, float) Hashtbl.t

type arena = { arr_id : int; backend : backend }

let build_arenas p ~iterations =
  let na = Array.length p.arena_ids in
  let lo = Array.make na max_int and hi = Array.make na min_int in
  for j = 0 to p.n_micro - 1 do
    let a = p.m_arena.(j) in
    if a >= 0 then begin
      (* Affine addresses: the range over a run is spanned by the two
         endpoint iterations. *)
      let e0 = p.m_offset.(j) in
      let e1 = (p.m_stride.(j) * (iterations - 1)) + p.m_offset.(j) in
      let l = Stdlib.min e0 e1 and h = Stdlib.max e0 e1 in
      if l < lo.(a) then lo.(a) <- l;
      if h > hi.(a) then hi.(a) <- h
    end
  done;
  Array.init na (fun a ->
      let backend =
        if hi.(a) < lo.(a) then Sparse (Hashtbl.create 1)  (* declared but never accessed *)
        else
          let size = hi.(a) - lo.(a) + 1 in
          if size <= dense_cap then
            Dense { base = lo.(a); store = Array.make size 0.0; state = Bytes.make size st_untouched }
          else Sparse (Hashtbl.create 1024)
      in
      { arr_id = p.arena_ids.(a); backend })

let arena_read a addr =
  match a.backend with
  | Dense d ->
      let i = addr - d.base in
      if Bytes.get d.state i = st_untouched then begin
        let v = if addr < 0 then prehistory else initial_memory_value a.arr_id addr in
        d.store.(i) <- v;
        Bytes.set d.state i st_read;
        v
      end
      else d.store.(i)
  | Sparse t -> (
      match Hashtbl.find_opt t addr with
      | Some v -> v
      | None -> if addr < 0 then prehistory else initial_memory_value a.arr_id addr)

let arena_write a addr v =
  match a.backend with
  | Dense d ->
      let i = addr - d.base in
      d.store.(i) <- v;
      Bytes.set d.state i st_written
  | Sparse t -> Hashtbl.replace t addr v

(* Written words, sorted ascending by (array, address) — bit-identical
   to the reference engine's sorted Hashtbl fold (keys are unique, so
   the value never participates in the comparison). *)
let image_of_arenas arenas =
  let acc = ref [] in
  for a = Array.length arenas - 1 downto 0 do
    let ar = arenas.(a) in
    match ar.backend with
    | Dense d ->
        for i = Array.length d.store - 1 downto 0 do
          if Bytes.get d.state i = st_written then
            acc := ((ar.arr_id, d.base + i), d.store.(i)) :: !acc
        done
    | Sparse t ->
        let entries = Hashtbl.fold (fun addr v l -> ((ar.arr_id, addr), v) :: l) t [] in
        acc := List.sort compare entries @ !acc
  done;
  !acc

(* One iteration of the tape.  [pbase.(d)] is the flat base offset of
   the phase holding values produced [d] iterations ago, or of the
   constant prehistory block when [iter < d]; all slot and distance
   indices were bounds-checked by [validate] at compile time, so the
   unsafe accesses cannot go out of range. *)
let exec_iteration p vals arenas pbase ~iter =
  let code = p.code and dst = p.dst in
  let s1 = p.src1 and e1 = p.d1 in
  let s2 = p.src2 and e2 = p.d2 in
  let s3 = p.src3 and e3 = p.d3 in
  let ma = p.m_arena and ms = p.m_stride and mo = p.m_offset in
  let cur = Array.unsafe_get pbase 0 in
  let rd1 j =
    Array.unsafe_get vals
      (Array.unsafe_get pbase (Array.unsafe_get e1 j) + Array.unsafe_get s1 j)
  in
  let rd2 j =
    Array.unsafe_get vals
      (Array.unsafe_get pbase (Array.unsafe_get e2 j) + Array.unsafe_get s2 j)
  in
  let rd3 j =
    Array.unsafe_get vals
      (Array.unsafe_get pbase (Array.unsafe_get e3 j) + Array.unsafe_get s3 j)
  in
  let wr j v = Array.unsafe_set vals (cur + Array.unsafe_get dst j) v in
  for j = 0 to p.n_micro - 1 do
    let c = Array.unsafe_get code j in
    if c = uop_load then begin
      let addr = (Array.unsafe_get ms j * iter) + Array.unsafe_get mo j in
      wr j (arena_read (Array.unsafe_get arenas (Array.unsafe_get ma j)) addr)
    end
    else if c = uop_store then begin
      let addr = (Array.unsafe_get ms j * iter) + Array.unsafe_get mo j in
      arena_write (Array.unsafe_get arenas (Array.unsafe_get ma j)) addr (rd1 j)
    end
    else if c = uop_fadd then wr j (rd1 j +. rd2 j)
    else if c = uop_fsub then wr j (rd1 j -. rd2 j)
    else if c = uop_fmul then wr j (rd1 j *. rd2 j)
    else if c = uop_fdiv then wr j (rd1 j /. rd2 j)
    else if c = uop_fma then wr j (Float.fma (rd1 j) (rd2 j) (rd3 j))
    else if c = uop_fsqrt then wr j (sqrt (Float.abs (rd1 j)))
    else if c = uop_fneg then wr j (-.rd1 j)
    else if c = uop_fabs then wr j (Float.abs (rd1 j))
    else wr j (rd1 j)
  done

let run_plan ?iterations (p : plan) =
  let iterations =
    match iterations with Some i -> i | None -> p.source.Loop.trip_count
  in
  if iterations < 0 then invalid_arg "Interp.run: negative iteration count";
  if iterations = 0 then empty_result
  else begin
    let n_slots = p.n_slots in
    let vals = Array.make ((p.depth + 1) * n_slots) prehistory in
    (* Live-ins are iteration-invariant: write them into every real
       phase once, so a live-in read needs no special case. *)
    for ph = 0 to p.depth - 1 do
      let base = ph * n_slots in
      Array.iteri
        (fun i s -> vals.(base + s) <- Array.unsafe_get p.live_in_vals i)
        p.live_in_slots
    done;
    let arenas = build_arenas p ~iterations in
    let pbase = Array.make p.depth 0 in
    let preh_base = p.depth * n_slots in
    for iter = 0 to iterations - 1 do
      for d = 0 to p.depth - 1 do
        pbase.(d) <- (if iter >= d then (iter - d) mod p.depth * n_slots else preh_base)
      done;
      exec_iteration p vals arenas pbase ~iter
    done;
    {
      memory = image_of_arenas arenas;
      loads = p.loads_per_iter * iterations;
      stores = p.stores_per_iter * iterations;
      flops = p.flops_per_iter * iterations;
    }
  end

let run ?iterations (loop : Loop.t) =
  let iterations = match iterations with Some i -> i | None -> loop.Loop.trip_count in
  if iterations < 0 then invalid_arg "Interp.run: negative iteration count";
  if iterations = 0 then empty_result else run_plan ~iterations (compile loop)

let arrays_of (loop : Loop.t) =
  let ids = Hashtbl.create 8 in
  Array.iter
    (fun (o : Operation.t) ->
      match o.Operation.mem with
      | Some m -> Hashtbl.replace ids m.Memref.array_id ()
      | None -> ())
    (Ddg.ops loop.Loop.ddg);
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) ids [])

let restrict result ~arrays =
  (* The image is sorted by (array, address); merge against the sorted
     array-id list instead of running [List.mem] per entry. *)
  let arrays = List.sort_uniq compare arrays in
  let rec merge acc mem arrays =
    match (mem, arrays) with
    | [], _ | _, [] -> List.rev acc
    | ((((a, _), _) as entry) :: rest), (a0 :: arest as all) ->
        if a < a0 then merge acc rest all
        else if a = a0 then merge (entry :: acc) rest all
        else merge acc mem arest
  in
  { result with memory = merge [] result.memory arrays }

let float_bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let equal_memory a b =
  (* Single walk: length mismatch surfaces as a constructor mismatch. *)
  let rec eq xs ys =
    match (xs, ys) with
    | [], [] -> true
    | (ka, va) :: xs', (kb, vb) :: ys' -> ka = kb && float_bits_equal va vb && eq xs' ys'
    | _ -> false
  in
  eq a.memory b.memory

let diff_memory a b =
  let ta = Hashtbl.create 64 and tb = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace ta k v) a.memory;
  List.iter (fun (k, v) -> Hashtbl.replace tb k v) b.memory;
  let keys = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace keys k ()) a.memory;
  List.iter (fun (k, _) -> Hashtbl.replace keys k ()) b.memory;
  Hashtbl.fold
    (fun k () acc ->
      let va = Hashtbl.find_opt ta k and vb = Hashtbl.find_opt tb k in
      match (va, vb) with
      | Some x, Some y when float_bits_equal x y -> acc
      | _ -> (k, va, vb) :: acc)
    keys []
  |> List.sort compare
