module J = Core.Bench_schema
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model

type point = {
  suite : string;
  index : int;
  config : Config.t;
  registers : int;
  cycle_model : Cycle_model.t;
  deadline_ms : int option;
}

type request =
  | Eval of point
  | Suite of point
  | Health
  | Shutdown

type envelope = { id : string option; req : request }

let opt_member key v = J.member key v

let str_field key v =
  match opt_member key v with
  | Some (J.Str s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "field %S must be a string" key)
  | None -> Ok None

let int_field key v =
  match opt_member key v with
  | Some j -> (
      match J.to_int j with
      | Some n -> Ok (Some n)
      | None -> Error (Printf.sprintf "field %S must be an integer" key))
  | None -> Ok None

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_point v =
  let* suite = str_field "suite" v in
  let suite = Option.value suite ~default:"full" in
  let* index = int_field "index" v in
  let index = Option.value index ~default:0 in
  let* config_str = str_field "config" v in
  let* config =
    match config_str with
    | None -> Error "field \"config\" is required"
    | Some s -> (
        match Config.parse s with
        | Ok c -> Ok c
        | Error msg -> Error (Printf.sprintf "bad config %S: %s" s msg))
  in
  let* registers = int_field "registers" v in
  let registers = Option.value registers ~default:config.Config.registers in
  let* cycles = int_field "cycles" v in
  let* cycle_model =
    match cycles with
    | None -> Ok (Wr_cost.Access_time.cycle_model_of config)
    | Some n -> (
        match Cycle_model.of_cycles n with
        | Some m -> Ok m
        | None -> Error (Printf.sprintf "no cycle model with %d cycles" n))
  in
  let* deadline_ms = int_field "deadline_ms" v in
  let* () =
    match deadline_ms with
    | Some ms when ms <= 0 -> Error "field \"deadline_ms\" must be positive"
    | _ -> Ok ()
  in
  if registers < 1 then Error "field \"registers\" must be positive"
  else if index < 0 then Error "field \"index\" must be non-negative"
  else Ok { suite; index; config; registers; cycle_model; deadline_ms }

let parse_request line =
  match J.parse line with
  | Error msg -> Error (None, "request is not valid JSON: " ^ msg)
  | Ok v -> (
      let id = match J.member "id" v with Some (J.Str s) -> Some s | _ -> None in
      let fail msg = Error (id, msg) in
      match J.member "op" v with
      | Some (J.Str "health") -> Ok { id; req = Health }
      | Some (J.Str "shutdown") -> Ok { id; req = Shutdown }
      | Some (J.Str (("eval" | "suite") as op)) -> (
          match parse_point v with
          | Ok p -> Ok { id; req = (if op = "eval" then Eval p else Suite p) }
          | Error msg -> fail msg)
      | Some (J.Str op) -> fail (Printf.sprintf "unknown op %S" op)
      | Some _ -> fail "field \"op\" must be a string"
      | None -> fail "field \"op\" is required")

(* --- replies ----------------------------------------------------------- *)

let result_json (r : Core.Evaluate.loop_result) =
  J.Obj
    [
      ("ii", J.int r.Core.Evaluate.ii);
      ("cycles", J.float r.Core.Evaluate.cycles);
      ("required_regs", J.int r.Core.Evaluate.required_regs);
      ("spill_stores", J.int r.Core.Evaluate.spill_stores);
      ("spill_loads", J.int r.Core.Evaluate.spill_loads);
      ("spill_rounds", J.int r.Core.Evaluate.spill_rounds);
      ("pipelined", J.Bool r.Core.Evaluate.pipelined);
      ("mii", J.int r.Core.Evaluate.mii);
      ("trip_count", J.int r.Core.Evaluate.trip_count);
    ]

let aggregate_json (a : Core.Evaluate.aggregate) =
  J.Obj
    [
      ("total_cycles", J.float a.Core.Evaluate.total_cycles);
      ("loops", J.int a.Core.Evaluate.loops);
      ("unpipelined", J.int a.Core.Evaluate.unpipelined);
      ("unpipelined_weight", J.float a.Core.Evaluate.unpipelined_weight);
      ("spilled_loops", J.int a.Core.Evaluate.spilled_loops);
      ("total_stores", J.int a.Core.Evaluate.total_stores);
      ("total_loads", J.int a.Core.Evaluate.total_loads);
      ("acceptable", J.Bool (Core.Evaluate.acceptable a));
    ]

let with_id id fields =
  match id with Some s -> ("id", J.Str s) :: fields | None -> fields

let render fields = J.to_string (J.Obj fields)

let source_label = function
  | Core.Evaluate.Memo -> "memo"
  | Core.Evaluate.Store -> "store"
  | Core.Evaluate.Fresh -> "fresh"

let eval_reply ~id ~coalesced (a : Core.Evaluate.answer) =
  render
    (with_id id
       [
         ("ok", J.Bool true);
         ("op", J.Str "eval");
         ("source", J.Str (source_label a.Core.Evaluate.source));
         ("degraded", J.Bool a.Core.Evaluate.result.Core.Evaluate.degraded);
         ("coalesced", J.Bool coalesced);
         ("result", result_json a.Core.Evaluate.result);
       ])

let suite_reply ~id a =
  render
    (with_id id [ ("ok", J.Bool true); ("op", J.Str "suite"); ("result", aggregate_json a) ])

let health_reply ~id fields =
  render
    (with_id id [ ("ok", J.Bool true); ("op", J.Str "health"); ("result", J.Obj fields) ])

let busy_reply ~id msg =
  render (with_id id [ ("ok", J.Bool false); ("busy", J.Bool true); ("error", J.Str msg) ])

let error_reply ~id msg =
  render (with_id id [ ("ok", J.Bool false); ("busy", J.Bool false); ("error", J.Str msg) ])

let shutdown_reply ~id =
  render (with_id id [ ("ok", J.Bool true); ("op", J.Str "shutdown") ])

(* --- requests ---------------------------------------------------------- *)

let opt_field key v fields =
  match v with Some n -> (key, J.int n) :: fields | None -> fields

let req_point_fields ?id ?registers ?cycles ?deadline_ms ~op ~suite ~config fields =
  let fields =
    opt_field "registers" registers (opt_field "cycles" cycles (opt_field "deadline_ms" deadline_ms fields))
  in
  let fields = ("suite", J.Str suite) :: ("config", J.Str config) :: fields in
  let fields = ("op", J.Str op) :: fields in
  render (match id with Some s -> ("id", J.Str s) :: fields | None -> fields)

let req_eval ?id ?registers ?cycles ?deadline_ms ~suite ~index ~config () =
  req_point_fields ?id ?registers ?cycles ?deadline_ms ~op:"eval" ~suite ~config
    [ ("index", J.int index) ]

let req_suite ?id ?registers ?cycles ?deadline_ms ~suite ~config () =
  req_point_fields ?id ?registers ?cycles ?deadline_ms ~op:"suite" ~suite ~config []

let req_health ?id () = render (with_id id [ ("op", J.Str "health") ])

let req_shutdown ?id () = render (with_id id [ ("op", J.Str "shutdown") ])
