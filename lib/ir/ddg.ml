type edge_view = {
  n_edges : int;
  e_src : int array;
  e_dst : int array;
  e_dist : int array;
  e_kind : Dependence.kind array;
  succ_off : int array;  (* n_ops+1 row starts into succ_edges *)
  succ_edges : int array;  (* edge ids grouped by source, ascending *)
  pred_off : int array;
  pred_edges : int array;  (* edge ids grouped by destination, ascending *)
}

type t = {
  ops : Operation.t array;
  num_vregs : int;
  edges : Dependence.t list;
  succ : Dependence.t list array;
  pred : Dependence.t list array;
  def_site : int option array;  (* vreg -> defining op *)
  users : int list array;  (* vreg -> using ops, ascending *)
  view : edge_view;
  (* Derived per-cycle-model data, memoized on the graph so the many
     scheduler invocations Driver.run makes against one body pay for it
     once.  Guarded by [cache_mutex]: the graph itself is immutable and
     shared across pool domains, and a racing recomputation is merely a
     duplicated deterministic computation. *)
  cache_mutex : Mutex.t;
  mutable delay_cache : (int * int array) list;
  mutable rec_cache : (int * (int * int array)) list;
}

let compile_edges ~n edges =
  let n_edges = List.length edges in
  let e_src = Array.make n_edges 0
  and e_dst = Array.make n_edges 0
  and e_dist = Array.make n_edges 0
  and e_kind = Array.make n_edges Dependence.Flow in
  List.iteri
    (fun i (e : Dependence.t) ->
      e_src.(i) <- e.src;
      e_dst.(i) <- e.dst;
      e_dist.(i) <- e.distance;
      e_kind.(i) <- e.kind)
    edges;
  let csr endpoint =
    let off = Array.make (n + 1) 0 in
    for i = 0 to n_edges - 1 do
      off.(endpoint.(i) + 1) <- off.(endpoint.(i) + 1) + 1
    done;
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v + 1) + off.(v)
    done;
    let ids = Array.make n_edges 0 in
    let cursor = Array.copy off in
    for i = 0 to n_edges - 1 do
      let v = endpoint.(i) in
      ids.(cursor.(v)) <- i;
      cursor.(v) <- cursor.(v) + 1
    done;
    (off, ids)
  in
  let succ_off, succ_edges = csr e_src in
  let pred_off, pred_edges = csr e_dst in
  { n_edges; e_src; e_dst; e_dist; e_kind; succ_off; succ_edges; pred_off; pred_edges }

let validate_ops ops num_vregs =
  Array.iteri
    (fun i (o : Operation.t) ->
      if o.id <> i then
        invalid_arg (Printf.sprintf "Ddg.create: op at index %d has id %d" i o.id);
      let check_vreg r =
        if r < 0 || r >= num_vregs then
          invalid_arg (Printf.sprintf "Ddg.create: op%d refers to vreg %d out of range" i r)
      in
      Option.iter check_vreg o.def;
      List.iter check_vreg o.uses)
    ops

let validate_edges ops edges =
  let n = Array.length ops in
  List.iter
    (fun (e : Dependence.t) ->
      if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
        invalid_arg "Ddg.create: edge endpoint out of range";
      match e.kind with
      | Dependence.Flow -> (
          let src = ops.(e.src) and dst = ops.(e.dst) in
          match src.Operation.def with
          | Some r when List.mem r dst.Operation.uses -> ()
          | _ ->
              invalid_arg
                (Printf.sprintf "Ddg.create: flow edge op%d->op%d has no matching def/use"
                   e.src e.dst))
      | Dependence.Anti | Dependence.Output | Dependence.Memory -> ())
    edges

let check_no_zero_distance_cycle n edges =
  let zero_succs = Array.make n [] in
  List.iter
    (fun (e : Dependence.t) ->
      if e.distance = 0 then begin
        if e.src = e.dst then
          invalid_arg (Printf.sprintf "Ddg.create: zero-distance self edge on op%d" e.src);
        zero_succs.(e.src) <- e.dst :: zero_succs.(e.src)
      end)
    edges;
  let r = Scc.compute ~n ~succs:(fun v -> zero_succs.(v)) in
  let sizes = Array.make r.Scc.count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) r.Scc.component;
  Array.iter
    (fun size ->
      if size > 1 then invalid_arg "Ddg.create: zero-distance dependence cycle")
    sizes

let create ~num_vregs ~ops ~edges =
  if num_vregs < 0 then invalid_arg "Ddg.create: negative num_vregs";
  validate_ops ops num_vregs;
  validate_edges ops edges;
  let n = Array.length ops in
  check_no_zero_distance_cycle n edges;
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (e : Dependence.t) ->
      succ.(e.src) <- e :: succ.(e.src);
      pred.(e.dst) <- e :: pred.(e.dst))
    edges;
  let def_site = Array.make num_vregs None and users = Array.make num_vregs [] in
  Array.iter
    (fun (o : Operation.t) ->
      (match o.def with
      | Some r ->
          (match def_site.(r) with
          | Some other ->
              invalid_arg
                (Printf.sprintf "Ddg.create: vreg %d defined by both op%d and op%d" r other
                   o.id)
          | None -> ());
          def_site.(r) <- Some o.id
      | None -> ());
      List.iter (fun r -> users.(r) <- o.id :: users.(r)) o.uses)
    ops;
  Array.iteri (fun r l -> users.(r) <- List.rev l) users;
  {
    ops;
    num_vregs;
    edges;
    succ;
    pred;
    def_site;
    users;
    view = compile_edges ~n edges;
    cache_mutex = Mutex.create ();
    delay_cache = [];
    rec_cache = [];
  }

let edge_view t = t.view

let edge_delays t ~key ~producer_latency =
  Mutex.lock t.cache_mutex;
  let hit = List.assoc_opt key t.delay_cache in
  Mutex.unlock t.cache_mutex;
  match hit with
  | Some d -> d
  | None ->
      (* Computed outside the lock: deterministic, so a racing domain at
         worst duplicates the work and the first store wins. *)
      let v = t.view in
      let d =
        Array.init v.n_edges (fun e ->
            Dependence.delay_rule v.e_kind.(e)
              ~producer_latency:(producer_latency t.ops.(v.e_src.(e))))
      in
      Mutex.lock t.cache_mutex;
      let stored =
        match List.assoc_opt key t.delay_cache with
        | Some d' -> d'
        | None ->
            t.delay_cache <- (key, d) :: t.delay_cache;
            d
      in
      Mutex.unlock t.cache_mutex;
      stored

let cached_rec_info t ~key ~compute =
  Mutex.lock t.cache_mutex;
  let hit = List.assoc_opt key t.rec_cache in
  Mutex.unlock t.cache_mutex;
  match hit with
  | Some info -> info
  | None ->
      let info = compute () in
      Mutex.lock t.cache_mutex;
      let stored =
        match List.assoc_opt key t.rec_cache with
        | Some info' -> info'
        | None ->
            t.rec_cache <- (key, info) :: t.rec_cache;
            info
      in
      Mutex.unlock t.cache_mutex;
      stored

let num_ops t = Array.length t.ops
let num_vregs t = t.num_vregs
let op t i = t.ops.(i)
let ops t = t.ops
let edges t = t.edges
let succs t i = t.succ.(i)
let preds t i = t.pred.(i)
let def_site t r = t.def_site.(r)
let users t r = t.users.(r)

let count_class t cls =
  Array.fold_left
    (fun acc (o : Operation.t) -> if Opcode.resource_class o.opcode = cls then acc + 1 else acc)
    0 t.ops

let scalar_count_class t cls =
  Array.fold_left
    (fun acc (o : Operation.t) ->
      if Opcode.resource_class o.opcode = cls then acc + o.lanes else acc)
    0 t.ops

let scc t =
  let n = num_ops t in
  Scc.compute ~n ~succs:(fun v -> List.map (fun (e : Dependence.t) -> e.dst) t.succ.(v))

let recurrence_ops t =
  let r = scc t in
  let sizes = Array.make r.Scc.count 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) r.Scc.component;
  let flags = Array.make (num_ops t) false in
  Array.iteri (fun v c -> if sizes.(c) > 1 then flags.(v) <- true) r.Scc.component;
  (* Self edges form one-vertex cycles. *)
  List.iter
    (fun (e : Dependence.t) -> if e.src = e.dst then flags.(e.src) <- true)
    t.edges;
  flags

let has_recurrence t = Array.exists (fun b -> b) (recurrence_ops t)

type operand = { reg : Operation.vreg; distance : int; producer : int option; lane : int option }

let operands t v =
  let flow_regs = Hashtbl.create 4 in
  List.iter
    (fun (e : Dependence.t) ->
      if e.kind = Dependence.Flow then
        match t.ops.(e.src).Operation.def with
        | Some r -> Hashtbl.add flow_regs r e.distance
        | None -> ())
    t.pred.(v);
  let consumed = Hashtbl.create 4 in
  let describe k r =
    let lane = Operation.lane_of_operand t.ops.(v) k in
    match def_site t r with
    | None -> { reg = r; distance = 0; producer = None; lane }
    | Some d ->
        (* Pair the k-th occurrence of [r] with the k-th smallest
           recorded distance: deterministic, and consistent with how
           edge-driven rewrites enumerate the same multiset. *)
        let seen = match Hashtbl.find_opt consumed r with Some k -> k | None -> 0 in
        Hashtbl.replace consumed r (seen + 1);
        let distances = List.sort compare (Hashtbl.find_all flow_regs r) in
        let distance = match List.nth_opt distances seen with Some x -> x | None -> 0 in
        { reg = r; distance; producer = Some d; lane }
  in
  List.mapi describe t.ops.(v).Operation.uses

let pp fmt t =
  Format.fprintf fmt "@[<v>ddg: %d ops, %d vregs, %d edges@," (num_ops t) t.num_vregs
    (List.length t.edges);
  Array.iter (fun o -> Format.fprintf fmt "  %s@," (Operation.to_string o)) t.ops;
  List.iter (fun e -> Format.fprintf fmt "  %a@," Dependence.pp e) t.edges;
  Format.fprintf fmt "@]"
