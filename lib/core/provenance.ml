module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Loop = Wr_ir.Loop
module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Dependence = Wr_ir.Dependence
module Ledger = Wr_obs.Ledger
module J = Bench_schema

type exact = {
  solves : int;
  proved : int;
  unproved : int;
  fallback : int;
  nodes : int;
  iis_refuted : int;
}

type t = {
  hash : int64;
  suite : string;
  index : int;
  loop : string;
  config : string;
  registers : int;
  cycle_model : int;
  ii : int;
  mii : int;
  cycles : float;
  pipelined : bool;
  spill_rounds : int;
  spill_stores : int;
  spill_loads : int;
  backend : string;
  sched_runs : int;
  evictions : int;
  exact : exact;
  oracle : string;
  quarantined : bool;
  tag : string;
  wall_us : int option;
}

let schema = "wr-ledger/1"

(* --- content hash ------------------------------------------------------- *)

(* Canonical rendering of the full point input: a short header naming
   the point, then the loop body.  FNV-1a is a streaming fold, so the
   header is hashed first and the hash continues over the body, which
   callers that hash many points of one loop render once.  The weight
   goes in as its IEEE-754 bits (hex), not a decimal rendering, so the
   hash is exactly as discriminating as the float itself. *)
let loop_body (loop : Loop.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "loop=%s trip=%d weight=%Lx\n" loop.Loop.name loop.Loop.trip_count
       (Int64.bits_of_float loop.Loop.weight));
  let g = loop.Loop.ddg in
  Array.iteri
    (fun i (o : Operation.t) ->
      Buffer.add_string buf (Printf.sprintf "op%d=%s\n" i (Operation.to_string o)))
    (Ddg.ops g);
  List.iter
    (fun (e : Dependence.t) ->
      Buffer.add_string buf
        (Printf.sprintf "edge=%d %d %s %d\n" e.Dependence.src e.Dependence.dst
           (Dependence.kind_to_string e.Dependence.kind)
           e.Dependence.distance))
    (Ddg.edges g);
  Buffer.contents buf

let point_hash_of_body ~suite_id ~index ~(config : Config.t) ~registers ~cycle_model body =
  let header =
    Printf.sprintf "wrpoint/1\nsuite=%s\nindex=%d\nconfig=%s\nregisters=%d\ncycle_model=%d\n"
      suite_id index (Config.label config) registers
      (Cycle_model.cycles cycle_model)
  in
  Ledger.fnv1a64_fold (Ledger.fnv1a64 header) body

let point_hash ~suite_id ~index ~config ~registers ~cycle_model loop =
  point_hash_of_body ~suite_id ~index ~config ~registers ~cycle_model (loop_body loop)

(* --- capture state ------------------------------------------------------ *)

let capture_flag = Atomic.make false

let set_capture b = Atomic.set capture_flag b

let capture_enabled () = Atomic.get capture_flag

let wall_flag = Atomic.make false

let set_wall b = Atomic.set wall_flag b

let wall_enabled () = Atomic.get wall_flag

let buffer_mutex = Mutex.create ()

let buffer : t list ref = ref []

let record r =
  Mutex.lock buffer_mutex;
  buffer := r :: !buffer;
  Mutex.unlock buffer_mutex

let reset () =
  Mutex.lock buffer_mutex;
  buffer := [];
  Mutex.unlock buffer_mutex

(* Ledger order: the pool completes points in any order, so the file
   order is re-derived from the point coordinates alone. *)
let records () =
  Mutex.lock buffer_mutex;
  let l = !buffer in
  Mutex.unlock buffer_mutex;
  List.sort
    (fun a b ->
      compare
        (a.suite, a.index, a.config, a.registers, a.cycle_model)
        (b.suite, b.index, b.config, b.registers, b.cycle_model))
    l

(* --- (de)serialization -------------------------------------------------- *)

let json_of_record r =
  J.Obj
    ([
       ("hash", J.str (Ledger.hex64 r.hash));
       ("suite", J.str r.suite);
       ("index", J.int r.index);
       ("loop", J.str r.loop);
       ("config", J.str r.config);
       ("registers", J.int r.registers);
       ("cycle_model", J.int r.cycle_model);
       ("ii", J.int r.ii);
       ("mii", J.int r.mii);
       ("cycles", J.float r.cycles);
       ("pipelined", J.Bool r.pipelined);
       ("spill_rounds", J.int r.spill_rounds);
       ("spill_stores", J.int r.spill_stores);
       ("spill_loads", J.int r.spill_loads);
       ("backend", J.str r.backend);
       ("sched_runs", J.int r.sched_runs);
       ("evictions", J.int r.evictions);
       ("solves", J.int r.exact.solves);
       ("proved", J.int r.exact.proved);
       ("unproved", J.int r.exact.unproved);
       ("fallback", J.int r.exact.fallback);
       ("nodes", J.int r.exact.nodes);
       ("iis_refuted", J.int r.exact.iis_refuted);
       ("oracle", J.str r.oracle);
       ("quarantined", J.Bool r.quarantined);
       ("tag", J.str r.tag);
     ]
    @ match r.wall_us with None -> [] | Some us -> [ ("wall_us", J.int us) ])

let record_of_json v =
  let str k = match J.member k v with Some (J.Str s) -> Some s | _ -> None in
  let int k = Option.bind (J.member k v) J.to_int in
  let flt k = Option.bind (J.member k v) J.to_float in
  let bool k = match J.member k v with Some (J.Bool b) -> Some b | _ -> None in
  let ( let* ) = Option.bind in
  let* hash_hex = str "hash" in
  let* hash = Int64.of_string_opt ("0x" ^ hash_hex) in
  let* suite = str "suite" in
  let* index = int "index" in
  let* loop = str "loop" in
  let* config = str "config" in
  let* registers = int "registers" in
  let* cycle_model = int "cycle_model" in
  let* ii = int "ii" in
  let* mii = int "mii" in
  let* cycles = flt "cycles" in
  let* pipelined = bool "pipelined" in
  let* spill_rounds = int "spill_rounds" in
  let* spill_stores = int "spill_stores" in
  let* spill_loads = int "spill_loads" in
  let* backend = str "backend" in
  let* sched_runs = int "sched_runs" in
  let* evictions = int "evictions" in
  let* solves = int "solves" in
  let* proved = int "proved" in
  let* unproved = int "unproved" in
  let* fallback = int "fallback" in
  let* nodes = int "nodes" in
  let* iis_refuted = int "iis_refuted" in
  let* oracle = str "oracle" in
  let* quarantined = bool "quarantined" in
  let* tag = str "tag" in
  Some
    {
      hash;
      suite;
      index;
      loop;
      config;
      registers;
      cycle_model;
      ii;
      mii;
      cycles;
      pipelined;
      spill_rounds;
      spill_stores;
      spill_loads;
      backend;
      sched_runs;
      evictions;
      exact = { solves; proved; unproved; fallback; nodes; iis_refuted };
      oracle;
      quarantined;
      tag;
      wall_us = int "wall_us";
    }

let write path =
  let rs = records () in
  let header =
    J.to_string (J.Obj [ ("schema", J.str schema); ("points", J.int (List.length rs)) ])
  in
  Ledger.write ~path ~header ~records:(List.map (fun r -> J.to_string (json_of_record r)) rs)

let load path =
  match Ledger.load path with
  | Error _ as e -> e
  | Ok (header, payloads) -> (
      match J.parse header with
      | Error msg -> Error ("header: " ^ msg)
      | Ok h -> (
          match J.member "schema" h with
          | Some (J.Str s) when s = schema -> (
              let rec go i acc = function
                | [] -> Ok (List.rev acc)
                | p :: rest -> (
                    match J.parse p with
                    | Error msg -> Error (Printf.sprintf "record %d: %s" i msg)
                    | Ok v -> (
                        match record_of_json v with
                        | Some r -> go (i + 1) (r :: acc) rest
                        | None ->
                            Error (Printf.sprintf "record %d: missing or ill-typed field" i)))
              in
              go 1 [] payloads)
          | Some (J.Str s) ->
              Error (Printf.sprintf "ledger schema %S (this build reads %S)" s schema)
          | _ -> Error "ledger header carries no schema tag"))
