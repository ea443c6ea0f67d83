(* Tests for wr_ir: opcodes, memory references, operations, dependence
   graphs, SCCs and the builder DSL. *)

module Opcode = Wr_ir.Opcode
module Memref = Wr_ir.Memref
module Operation = Wr_ir.Operation
module Dependence = Wr_ir.Dependence
module Ddg = Wr_ir.Ddg
module Scc = Wr_ir.Scc
module Loop = Wr_ir.Loop
module B = Wr_ir.Builder

(* --- opcodes ----------------------------------------------------------- *)

let test_opcode_roundtrip () =
  List.iter
    (fun op ->
      Alcotest.(check (option string))
        "of_string . to_string" (Some (Opcode.to_string op))
        (Option.map Opcode.to_string (Opcode.of_string (Opcode.to_string op))))
    Opcode.all;
  Alcotest.(check bool) "unknown rejected" true (Opcode.of_string "bogus" = None)

let test_opcode_classes () =
  Alcotest.(check bool) "load is memory" true (Opcode.is_memory Opcode.Load);
  Alcotest.(check bool) "store is memory" true (Opcode.is_memory Opcode.Store);
  Alcotest.(check bool) "fadd is not memory" false (Opcode.is_memory Opcode.Fadd);
  Alcotest.(check bool) "div unpipelined" false (Opcode.is_pipelined Opcode.Fdiv);
  Alcotest.(check bool) "sqrt unpipelined" false (Opcode.is_pipelined Opcode.Fsqrt);
  Alcotest.(check bool) "mul pipelined" true (Opcode.is_pipelined Opcode.Fmul)

let test_opcode_arity () =
  Alcotest.(check int) "load arity" 0 (Opcode.num_inputs Opcode.Load);
  Alcotest.(check int) "store arity" 1 (Opcode.num_inputs Opcode.Store);
  Alcotest.(check int) "fadd arity" 2 (Opcode.num_inputs Opcode.Fadd);
  Alcotest.(check bool) "store has no result" false (Opcode.has_result Opcode.Store);
  Alcotest.(check bool) "load has result" true (Opcode.has_result Opcode.Load)

(* --- memory references -------------------------------------------------- *)

let test_memref_conflict_same_stride () =
  let a = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  let b = Memref.make ~array_id:0 ~stride:1 ~offset:(-2) in
  (* a at i touches word i; b at i+2 touches word i.  So conflict a->b
     at distance 2, and no constant-distance conflict b->a. *)
  Alcotest.(check bool) "forward distance 2" true (Memref.conflict a b = Memref.At_distance 2);
  Alcotest.(check bool) "reverse none" true (Memref.conflict b a = Memref.No_conflict)

let test_memref_conflict_zero_distance () =
  let a = Memref.make ~array_id:3 ~stride:2 ~offset:4 in
  Alcotest.(check bool) "same ref distance 0" true (Memref.conflict a a = Memref.At_distance 0)

let test_memref_no_conflict_different_arrays () =
  let a = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  let b = Memref.make ~array_id:1 ~stride:1 ~offset:0 in
  Alcotest.(check bool) "different arrays" true (Memref.conflict a b = Memref.No_conflict)

let test_memref_no_conflict_non_divisible () =
  let a = Memref.make ~array_id:0 ~stride:2 ~offset:0 in
  let b = Memref.make ~array_id:0 ~stride:2 ~offset:1 in
  (* Even vs odd words: never meet. *)
  Alcotest.(check bool) "parity disjoint" true (Memref.conflict a b = Memref.No_conflict)

let test_memref_unknown_different_strides () =
  let a = Memref.make ~array_id:0 ~stride:2 ~offset:0 in
  let b = Memref.make ~array_id:0 ~stride:3 ~offset:1 in
  Alcotest.(check bool) "different strides unknown" true (Memref.conflict a b = Memref.Unknown)

let test_memref_stride0 () =
  let a = Memref.make ~array_id:0 ~stride:0 ~offset:5 in
  let b = Memref.make ~array_id:0 ~stride:0 ~offset:5 in
  let c = Memref.make ~array_id:0 ~stride:0 ~offset:6 in
  Alcotest.(check bool) "same scalar conflicts" true (Memref.conflict a b = Memref.At_distance 0);
  Alcotest.(check bool) "distinct scalars do not" true (Memref.conflict a c = Memref.No_conflict)

let test_memref_consecutive () =
  let a = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  let b = Memref.make ~array_id:0 ~stride:1 ~offset:1 in
  Alcotest.(check bool) "consecutive" true (Memref.consecutive a b);
  Alcotest.(check bool) "not the other way" false (Memref.consecutive b a)

(* --- operations --------------------------------------------------------- *)

let test_operation_validation () =
  let mem = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  Alcotest.(check bool) "valid load" true
    (let o = Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ~mem () in
     o.Operation.id = 0);
  Alcotest.(check bool) "arity enforced" true
    (try
       ignore (Operation.make ~id:0 ~opcode:Opcode.Fadd ~def:0 ~uses:[ 1 ] ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "store must not define" true
    (try
       ignore (Operation.make ~id:0 ~opcode:Opcode.Store ~def:0 ~uses:[ 1 ] ~mem ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "load needs memref" true
    (try
       ignore (Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wide op arity relaxed" true
    (let o = Operation.make ~id:0 ~opcode:Opcode.Fadd ~def:0 ~uses:[ 1; 2; 3; 4 ] ~lanes:2 () in
     Operation.is_wide o)

(* --- SCC ---------------------------------------------------------------- *)

let test_scc_chain () =
  (* 0 -> 1 -> 2: three singleton components in reverse topo order. *)
  let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | _ -> [] in
  let r = Scc.compute ~n:3 ~succs in
  Alcotest.(check int) "three components" 3 r.Scc.count;
  Alcotest.(check bool) "edge order respected" true
    (r.Scc.component.(0) > r.Scc.component.(1) && r.Scc.component.(1) > r.Scc.component.(2))

let test_scc_cycle () =
  (* 0 <-> 1, 2 alone. *)
  let succs = function 0 -> [ 1 ] | 1 -> [ 0; 2 ] | _ -> [] in
  let r = Scc.compute ~n:3 ~succs in
  Alcotest.(check int) "two components" 2 r.Scc.count;
  Alcotest.(check int) "0 and 1 together" r.Scc.component.(0) r.Scc.component.(1);
  Alcotest.(check bool) "2 separate" true (r.Scc.component.(2) <> r.Scc.component.(0))

let test_scc_large_path_no_overflow () =
  (* The iterative implementation must survive deep graphs. *)
  let n = 200_000 in
  let succs v = if v + 1 < n then [ v + 1 ] else [] in
  let r = Scc.compute ~n ~succs in
  Alcotest.(check int) "all singletons" n r.Scc.count

let test_scc_members () =
  let succs = function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [] in
  let r = Scc.compute ~n:3 ~succs in
  let members = Scc.members r in
  let cyc = r.Scc.component.(0) in
  Alcotest.(check (list int)) "cycle members" [ 0; 1 ] (List.sort compare members.(cyc))

(* --- DDG validation ----------------------------------------------------- *)

let simple_ops () =
  let mem = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  [|
    Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ~mem ();
    Operation.make ~id:1 ~opcode:Opcode.Fneg ~def:1 ~uses:[ 0 ] ();
  |]

let test_ddg_rejects_zero_cycle () =
  let ops = simple_ops () in
  let edges =
    [
      Dependence.make ~src:0 ~dst:1 ~kind:Dependence.Flow ~distance:0;
      Dependence.make ~src:1 ~dst:0 ~kind:Dependence.Memory ~distance:0;
    ]
  in
  Alcotest.(check bool) "zero cycle rejected" true
    (try
       ignore (Ddg.create ~num_vregs:2 ~ops ~edges);
       false
     with Invalid_argument _ -> true)

let test_ddg_accepts_carried_cycle () =
  let ops = simple_ops () in
  let edges =
    [
      Dependence.make ~src:0 ~dst:1 ~kind:Dependence.Flow ~distance:0;
      Dependence.make ~src:1 ~dst:0 ~kind:Dependence.Memory ~distance:1;
    ]
  in
  let g = Ddg.create ~num_vregs:2 ~ops ~edges in
  Alcotest.(check bool) "has recurrence" true (Ddg.has_recurrence g);
  let flags = Ddg.recurrence_ops g in
  Alcotest.(check bool) "both flagged" true (flags.(0) && flags.(1))

let test_ddg_rejects_bad_flow_edge () =
  let ops = simple_ops () in
  (* Flow edge in the wrong direction: op1's def is not used by op0. *)
  let edges = [ Dependence.make ~src:1 ~dst:0 ~kind:Dependence.Flow ~distance:1 ] in
  Alcotest.(check bool) "bad flow rejected" true
    (try
       ignore (Ddg.create ~num_vregs:2 ~ops ~edges);
       false
     with Invalid_argument _ -> true)

let test_ddg_rejects_double_def () =
  let mem = Memref.make ~array_id:0 ~stride:1 ~offset:0 in
  let ops =
    [|
      Operation.make ~id:0 ~opcode:Opcode.Load ~def:0 ~mem ();
      Operation.make ~id:1 ~opcode:Opcode.Load ~def:0 ~mem ();
    |]
  in
  Alcotest.(check bool) "double def rejected" true
    (try
       ignore (Ddg.create ~num_vregs:1 ~ops ~edges:[]);
       false
     with Invalid_argument _ -> true)

let test_ddg_def_users () =
  let ops = simple_ops () in
  let edges = [ Dependence.make ~src:0 ~dst:1 ~kind:Dependence.Flow ~distance:0 ] in
  let g = Ddg.create ~num_vregs:2 ~ops ~edges in
  Alcotest.(check (option int)) "def site" (Some 0) (Ddg.def_site g 0);
  Alcotest.(check (list int)) "users" [ 1 ] (Ddg.users g 0);
  Alcotest.(check int) "bus ops" 1 (Ddg.count_class g Opcode.Bus);
  Alcotest.(check int) "fpu ops" 1 (Ddg.count_class g Opcode.Fpu)

let test_ddg_operands () =
  let ops = simple_ops () in
  let edges = [ Dependence.make ~src:0 ~dst:1 ~kind:Dependence.Flow ~distance:3 ] in
  let g = Ddg.create ~num_vregs:2 ~ops ~edges in
  match Ddg.operands g 1 with
  | [ o ] ->
      Alcotest.(check int) "reg" 0 o.Ddg.reg;
      Alcotest.(check int) "distance recovered" 3 o.Ddg.distance;
      Alcotest.(check (option int)) "producer" (Some 0) o.Ddg.producer
  | _ -> Alcotest.fail "expected one operand"

(* --- builder ------------------------------------------------------------ *)

let test_builder_daxpy_shape () =
  let b = B.create ~name:"daxpy" () in
  let a = B.live_in b in
  let x = B.load b ~array_id:0 () in
  let y = B.load b ~array_id:1 () in
  let axy = B.fadd b (B.fmul b a x) y in
  B.store b ~array_id:1 () axy;
  let loop = B.finish b ~trip_count:100 () in
  let g = loop.Loop.ddg in
  Alcotest.(check int) "5 ops" 5 (Ddg.num_ops g);
  Alcotest.(check bool) "no recurrence" false (Ddg.has_recurrence g);
  (* load A1 and store A1 conflict at distance 0: one memory edge. *)
  let mem_edges =
    List.filter (fun (e : Dependence.t) -> e.Dependence.kind = Dependence.Memory) (Ddg.edges g)
  in
  Alcotest.(check int) "one memory edge" 1 (List.length mem_edges)

let test_builder_feedback_recurrence () =
  let b = B.create () in
  let x = B.load b ~array_id:0 () in
  let s = B.feedback b ~distance:1 ~f:(fun prev -> B.fadd b prev x) in
  B.store b ~array_id:1 () s;
  let loop = B.finish b ~trip_count:10 () in
  Alcotest.(check bool) "recurrence detected" true (Ddg.has_recurrence loop.Loop.ddg);
  (* The recurrence is the fadd alone. *)
  let flags = Ddg.recurrence_ops loop.Loop.ddg in
  let count = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
  Alcotest.(check int) "one recurrence op" 1 count

let test_builder_feedback_distance2 () =
  let b = B.create () in
  let x = B.load b ~array_id:0 () in
  let s = B.feedback b ~distance:2 ~f:(fun prev -> B.fadd b prev x) in
  B.store b ~array_id:1 () s;
  let loop = B.finish b ~trip_count:10 () in
  let carried =
    List.find
      (fun (e : Dependence.t) -> e.Dependence.kind = Dependence.Flow && e.Dependence.distance > 0)
      (Ddg.edges loop.Loop.ddg)
  in
  Alcotest.(check int) "distance 2" 2 carried.Dependence.distance

let test_builder_feedback_rejects_live_in () =
  let b = B.create () in
  let inv = B.live_in b in
  Alcotest.(check bool) "live-in result rejected" true
    (try
       ignore (B.feedback b ~distance:1 ~f:(fun _prev -> inv));
       false
     with Invalid_argument _ -> true)

let test_builder_carried_use () =
  (* b(i) = a(i) - a-value from 2 iterations ago, via explicit carried. *)
  let b = B.create () in
  let x = B.load b ~array_id:0 () in
  let d = B.fsub b x (B.carried x ~distance:2) in
  B.store b ~array_id:1 () d;
  let loop = B.finish b ~trip_count:10 () in
  let g = loop.Loop.ddg in
  let carried_edges =
    List.filter
      (fun (e : Dependence.t) -> e.Dependence.kind = Dependence.Flow && e.Dependence.distance = 2)
      (Ddg.edges g)
  in
  Alcotest.(check int) "one carried flow edge" 1 (List.length carried_edges);
  Alcotest.(check bool) "not a recurrence" false (Ddg.has_recurrence g)

let test_builder_store_load_carried_memory () =
  (* store A[i]; load A[i-1] next iteration => memory flow at distance 1
     => recurrence via load -> ... -> store chain. *)
  let b = B.create () in
  let x = B.load b ~array_id:0 ~offset:(-1) () in
  let y = B.fneg b x in
  B.store b ~array_id:0 () y;
  let loop = B.finish b ~trip_count:10 () in
  Alcotest.(check bool) "memory recurrence" true (Ddg.has_recurrence loop.Loop.ddg)

let test_builder_live_in_not_defined () =
  let b = B.create () in
  let a = B.live_in b in
  let x = B.load b ~array_id:0 () in
  B.store b ~array_id:1 () (B.fmul b a x);
  let loop = B.finish b ~trip_count:10 () in
  let g = loop.Loop.ddg in
  (* Exactly one vreg (the invariant) has no def site. *)
  let undef = ref 0 in
  for r = 0 to Ddg.num_vregs g - 1 do
    if Ddg.def_site g r = None then incr undef
  done;
  Alcotest.(check int) "one live-in" 1 !undef

let test_loop_validation () =
  let b = B.create () in
  let x = B.load b ~array_id:0 () in
  B.store b ~array_id:1 () x;
  let loop = B.finish b ~trip_count:10 () in
  Alcotest.(check bool) "trip positive required" true
    (try
       ignore (Loop.make ~name:"bad" ~ddg:loop.Loop.ddg ~trip_count:0 ());
       false
     with Invalid_argument _ -> true)

(* --- text format ---------------------------------------------------------- *)

let test_text_parse_daxpy () =
  let src =
    "loop daxpy trip 100 weight 2.0\n\
     \ta = livein\n\
     \tx = load A0[i]\n\
     \ty = load A1[i]\n\
     \tt = fmul a x\n\
     \tr = fadd t y\n\
     \tstore A1[i] r\n\
     end\n"
  in
  (* Tabs are not separators in our tokenizer; use spaces. *)
  let src = String.map (fun c -> if c = '\t' then ' ' else c) src in
  match Wr_ir.Text_format.parse_one src with
  | Error e -> Alcotest.fail e
  | Ok loop ->
      Alcotest.(check int) "ops" 5 (Ddg.num_ops loop.Loop.ddg);
      Alcotest.(check int) "trip" 100 loop.Loop.trip_count;
      Alcotest.(check (float 1e-9)) "weight" 2.0 loop.Loop.weight;
      Alcotest.(check bool) "no recurrence" false (Ddg.has_recurrence loop.Loop.ddg)

let test_text_parse_recurrence () =
  let src =
    "loop acc\n  x = load A0[i]\n  s = fadd s@1 x\n  store A1[i] s\nend\n"
  in
  match Wr_ir.Text_format.parse_one src with
  | Error e -> Alcotest.fail e
  | Ok loop -> Alcotest.(check bool) "recurrence" true (Ddg.has_recurrence loop.Loop.ddg)

let test_text_parse_cross_statement_recurrence () =
  (* tridiagonal: x = z * (y - x(i-1)) spans two statements. *)
  let src =
    "loop tri\n\
     \  y = load A0[i]\n\
     \  z = load A1[i]\n\
     \  t = fsub y x@1\n\
     \  x = fmul z t\n\
     \  store A2[i] x\n\
     end\n"
  in
  match Wr_ir.Text_format.parse_one src with
  | Error e -> Alcotest.fail e
  | Ok loop ->
      Alcotest.(check bool) "recurrence" true (Ddg.has_recurrence loop.Loop.ddg);
      (* Must be semantically identical to the kernel library's. *)
      let reference = Wr_workload.Kernels.tridiag_elimination () in
      let a = Wr_vliw.Interp.run ~iterations:12 reference in
      let b = Wr_vliw.Interp.run ~iterations:12 loop in
      Alcotest.(check bool) "same semantics as kernel" true (Wr_vliw.Interp.equal_memory a b)

let test_text_memref_forms () =
  let src =
    "loop refs\n\
     \  a = load A0[i]\n\
     \  b = load A1[2i]\n\
     \  c = load A2[i+4]\n\
     \  d = load A3[-1i+8]\n\
     \  e = load A4[7]\n\
     \  t1 = fadd a b\n\
     \  t2 = fadd c d\n\
     \  t3 = fadd t1 t2\n\
     \  t4 = fadd t3 e\n\
     \  store A5[i] t4\n\
     end\n"
  in
  match Wr_ir.Text_format.parse_one src with
  | Error e -> Alcotest.fail e
  | Ok loop ->
      let mem_of id = Option.get (Ddg.op loop.Loop.ddg id).Operation.mem in
      Alcotest.(check int) "stride 2" 2 (mem_of 1).Wr_ir.Memref.stride;
      Alcotest.(check int) "offset 4" 4 (mem_of 2).Wr_ir.Memref.offset;
      Alcotest.(check int) "negative stride" (-1) (mem_of 3).Wr_ir.Memref.stride;
      Alcotest.(check int) "scalar stride" 0 (mem_of 4).Wr_ir.Memref.stride;
      Alcotest.(check int) "scalar offset" 7 (mem_of 4).Wr_ir.Memref.offset

let test_text_errors () =
  let cases =
    [
      ("use before def", "loop l\n  y = fneg x\n  x = load A0[i]\n  store A1[i] y\nend\n");
      ("unknown name", "loop l\n  store A1[i] nosuch\nend\n");
      ("duplicate def", "loop l\n  x = load A0[i]\n  x = load A1[i]\n  store A2[i] x\nend\n");
      ("missing end", "loop l\n  x = load A0[i]\n");
      ("bad arity", "loop l\n  x = load A0[i]\n  y = fadd x\n  store A1[i] y\nend\n");
      ("bad memref", "loop l\n  x = load B0[i]\n  store A1[i] x\nend\n");
    ]
  in
  List.iter
    (fun (label, src) ->
      match Wr_ir.Text_format.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (label ^ ": expected a parse error"))
    cases;
  (* A cross-statement cycle whose only carried edge is the forward
     reference is legal (distance 1) — the format cannot express a
     zero-distance cycle at all, since forward uses require @d >= 1. *)
  match
    Wr_ir.Text_format.parse "loop l\n  a = fneg b@1\n  b = fneg a\n  store A0[i] b\nend\n"
  with
  | Ok [ l ] ->
      Alcotest.(check bool) "carried cycle accepted" true (Ddg.has_recurrence l.Loop.ddg)
  | Ok _ -> Alcotest.fail "expected one loop"
  | Error e -> Alcotest.fail e

let test_text_multiple_loops () =
  let src =
    "loop a trip 10\n  x = load A0[i]\n  store A1[i] x\nend\n\n\
     loop b trip 20\n  y = load A0[i]\n  store A2[i] y\nend\n"
  in
  match Wr_ir.Text_format.parse src with
  | Ok [ la; lb ] ->
      Alcotest.(check int) "trip a" 10 la.Loop.trip_count;
      Alcotest.(check int) "trip b" 20 lb.Loop.trip_count
  | Ok _ -> Alcotest.fail "expected two loops"
  | Error e -> Alcotest.fail e

let test_text_roundtrip_kernels () =
  List.iter
    (fun (name, loop) ->
      Alcotest.(check bool) (name ^ " roundtrips") true
        (Wr_ir.Text_format.roundtrip_normalizes loop))
    (Wr_workload.Kernels.all ())

let test_text_roundtrip_semantics () =
  (* Parsing the printed form must preserve execution semantics, not
     just the shape. *)
  List.iter
    (fun (name, loop) ->
      match Wr_ir.Text_format.parse_one (Wr_ir.Text_format.print loop) with
      | Error e -> Alcotest.fail (name ^ ": " ^ e)
      | Ok l2 ->
          let a = Wr_vliw.Interp.run ~iterations:9 loop in
          let b = Wr_vliw.Interp.run ~iterations:9 l2 in
          Alcotest.(check bool) (name ^ " semantics") true (Wr_vliw.Interp.equal_memory a b))
    (Wr_workload.Kernels.all ())

(* --- qcheck: builder-produced graphs are always valid ------------------- *)

let arbitrary_loop =
  (* A tiny random program: a few statements over a few arrays. *)
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "loop(seed=%d)" seed)
    QCheck.Gen.(int_bound 10_000)

let random_loop seed =
  let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 1)) in
  Wr_workload.Generator.generate_one rng Wr_workload.Generator.default ~index:seed

let prop_generated_loops_valid =
  QCheck.Test.make ~name:"generated loops pass Ddg validation" ~count:60 arbitrary_loop
    (fun seed ->
      let loop = random_loop seed in
      (* Ddg.create already validated; recreate explicitly to be sure. *)
      let g = loop.Loop.ddg in
      let g2 = Ddg.create ~num_vregs:(Ddg.num_vregs g) ~ops:(Ddg.ops g) ~edges:(Ddg.edges g) in
      Ddg.num_ops g2 = Ddg.num_ops g)

let prop_operands_match_uses =
  QCheck.Test.make ~name:"operand descriptors align with uses" ~count:60 arbitrary_loop
    (fun seed ->
      let loop = random_loop seed in
      let g = loop.Loop.ddg in
      let ok = ref true in
      for v = 0 to Ddg.num_ops g - 1 do
        let operands = Ddg.operands g v in
        let uses = (Ddg.op g v).Operation.uses in
        if List.map (fun (o : Ddg.operand) -> o.Ddg.reg) operands <> uses then ok := false
      done;
      !ok)

(* Adversarial graphs: random op arrays and random edges, not via the
   builder.  Ddg.create must either reject them with Invalid_argument
   or produce a graph every downstream pass can handle — never crash
   with anything else. *)
let prop_memref_conflict_sound =
  (* If the analysis reports a constant distance, the addresses really
     do coincide at that distance, for every iteration. *)
  QCheck.Test.make ~name:"memref conflict distances are sound" ~count:300
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 42)) in
      let mk () =
        Memref.make
          ~array_id:(Wr_util.Rng.int rng 2)
          ~stride:(Wr_util.Rng.int_in rng (-3) 3)
          ~offset:(Wr_util.Rng.int_in rng (-5) 5)
      in
      let a = mk () and b = mk () in
      match Memref.conflict a b with
      | Memref.At_distance d ->
          List.for_all
            (fun i ->
              Memref.address_at a ~iteration:i = Memref.address_at b ~iteration:(i + d))
            [ 0; 1; 5; 17 ]
      | Memref.No_conflict ->
          (* Equal strides and arrays: verify there really is no
             non-negative distance (sampled). *)
          if a.Memref.array_id = b.Memref.array_id && a.Memref.stride = b.Memref.stride then
            List.for_all
              (fun d ->
                List.for_all
                  (fun i ->
                    Memref.address_at a ~iteration:i
                    <> Memref.address_at b ~iteration:(i + d))
                  [ 0; 3 ])
              [ 0; 1; 2; 3; 4 ]
          else true
      | Memref.Unknown -> a.Memref.stride <> b.Memref.stride)

let prop_adversarial_graphs_total =
  QCheck.Test.make ~name:"Ddg.create is total on adversarial inputs" ~count:200
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let rng = Wr_util.Rng.create ~seed:(Int64.of_int (seed + 555)) in
      let n = 1 + Wr_util.Rng.int rng 12 in
      let num_vregs = 1 + Wr_util.Rng.int rng 16 in
      let mem () =
        Memref.make
          ~array_id:(Wr_util.Rng.int rng 3)
          ~stride:(Wr_util.Rng.int_in rng (-2) 3)
          ~offset:(Wr_util.Rng.int_in rng (-4) 4)
      in
      let random_op id =
        match Wr_util.Rng.int rng 4 with
        | 0 -> Operation.make ~id ~opcode:Opcode.Load ~def:(Wr_util.Rng.int rng num_vregs) ~mem:(mem ()) ()
        | 1 ->
            Operation.make ~id ~opcode:Opcode.Store
              ~uses:[ Wr_util.Rng.int rng num_vregs ]
              ~mem:(mem ()) ()
        | 2 ->
            Operation.make ~id ~opcode:Opcode.Fadd ~def:(Wr_util.Rng.int rng num_vregs)
              ~uses:[ Wr_util.Rng.int rng num_vregs; Wr_util.Rng.int rng num_vregs ]
              ()
        | _ ->
            Operation.make ~id ~opcode:Opcode.Fneg ~def:(Wr_util.Rng.int rng num_vregs)
              ~uses:[ Wr_util.Rng.int rng num_vregs ]
              ()
      in
      let ops = Array.init n random_op in
      let edges =
        List.init (Wr_util.Rng.int rng (2 * n)) (fun _ ->
            let kind =
              match Wr_util.Rng.int rng 4 with
              | 0 -> Dependence.Flow
              | 1 -> Dependence.Anti
              | 2 -> Dependence.Output
              | _ -> Dependence.Memory
            in
            Dependence.make ~src:(Wr_util.Rng.int rng n) ~dst:(Wr_util.Rng.int rng n) ~kind
              ~distance:(Wr_util.Rng.int rng 3))
      in
      match Ddg.create ~num_vregs ~ops ~edges with
      | exception Invalid_argument _ -> true  (* rejected cleanly *)
      | g -> (
          (* Accepted: the scheduler must handle it. *)
          let resource =
            Wr_machine.Resource.of_config (Wr_machine.Config.xwy ~x:1 ~y:1 ())
          in
          match
            Wr_sched.Modulo.run resource ~cycle_model:Wr_machine.Cycle_model.Cycles_4 g
          with
          | r ->
              Result.is_ok
                (Wr_sched.Schedule.validate g resource r.Wr_sched.Modulo.schedule)
          | exception Invalid_argument _ -> true))

let prop_text_roundtrip_generated =
  QCheck.Test.make ~name:"generated loops roundtrip through the text format" ~count:80
    arbitrary_loop (fun seed ->
      Wr_ir.Text_format.roundtrip_normalizes (random_loop seed))

let () =
  Alcotest.run "wr_ir"
    [
      ( "opcode",
        [
          Alcotest.test_case "roundtrip" `Quick test_opcode_roundtrip;
          Alcotest.test_case "classes" `Quick test_opcode_classes;
          Alcotest.test_case "arity" `Quick test_opcode_arity;
        ] );
      ( "memref",
        [
          Alcotest.test_case "same stride conflict" `Quick test_memref_conflict_same_stride;
          Alcotest.test_case "zero distance" `Quick test_memref_conflict_zero_distance;
          Alcotest.test_case "different arrays" `Quick test_memref_no_conflict_different_arrays;
          Alcotest.test_case "parity disjoint" `Quick test_memref_no_conflict_non_divisible;
          Alcotest.test_case "unknown strides" `Quick test_memref_unknown_different_strides;
          Alcotest.test_case "stride 0" `Quick test_memref_stride0;
          Alcotest.test_case "consecutive" `Quick test_memref_consecutive;
        ] );
      ("operation", [ Alcotest.test_case "validation" `Quick test_operation_validation ]);
      ( "scc",
        [
          Alcotest.test_case "chain" `Quick test_scc_chain;
          Alcotest.test_case "cycle" `Quick test_scc_cycle;
          Alcotest.test_case "deep graph" `Quick test_scc_large_path_no_overflow;
          Alcotest.test_case "members" `Quick test_scc_members;
        ] );
      ( "ddg",
        [
          Alcotest.test_case "rejects zero cycle" `Quick test_ddg_rejects_zero_cycle;
          Alcotest.test_case "accepts carried cycle" `Quick test_ddg_accepts_carried_cycle;
          Alcotest.test_case "rejects bad flow" `Quick test_ddg_rejects_bad_flow_edge;
          Alcotest.test_case "rejects double def" `Quick test_ddg_rejects_double_def;
          Alcotest.test_case "def/users" `Quick test_ddg_def_users;
          Alcotest.test_case "operands" `Quick test_ddg_operands;
        ] );
      ( "builder",
        [
          Alcotest.test_case "daxpy shape" `Quick test_builder_daxpy_shape;
          Alcotest.test_case "feedback recurrence" `Quick test_builder_feedback_recurrence;
          Alcotest.test_case "feedback distance 2" `Quick test_builder_feedback_distance2;
          Alcotest.test_case "feedback rejects live-in" `Quick test_builder_feedback_rejects_live_in;
          Alcotest.test_case "carried use" `Quick test_builder_carried_use;
          Alcotest.test_case "memory recurrence" `Quick test_builder_store_load_carried_memory;
          Alcotest.test_case "live-in undefined" `Quick test_builder_live_in_not_defined;
          Alcotest.test_case "loop validation" `Quick test_loop_validation;
        ] );
      ( "text_format",
        [
          Alcotest.test_case "parse daxpy" `Quick test_text_parse_daxpy;
          Alcotest.test_case "parse recurrence" `Quick test_text_parse_recurrence;
          Alcotest.test_case "cross-statement recurrence" `Quick
            test_text_parse_cross_statement_recurrence;
          Alcotest.test_case "memref forms" `Quick test_text_memref_forms;
          Alcotest.test_case "errors" `Quick test_text_errors;
          Alcotest.test_case "multiple loops" `Quick test_text_multiple_loops;
          Alcotest.test_case "kernels roundtrip" `Quick test_text_roundtrip_kernels;
          Alcotest.test_case "roundtrip semantics" `Quick test_text_roundtrip_semantics;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_generated_loops_valid; prop_operands_match_uses;
            prop_text_roundtrip_generated; prop_adversarial_graphs_total;
            prop_memref_conflict_sound;
          ]
      );
    ]
