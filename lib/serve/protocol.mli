(** The service wire protocol: one request per line, one JSON object
    per line back, over a Unix or TCP socket.

    Requests are JSON objects with an [op] field; everything else is
    op-specific.  Clients may pipeline: requests on one connection are
    answered in completion order, matched by the optional [id] string
    the client sent (echoed verbatim in the reply).

    {v
    {"op":"eval","suite":"sample120","index":3,"config":"4w2(64)"}
    {"op":"suite","suite":"sample120","config":"4w2(64)","cycles":29}
    {"op":"health"}
    {"op":"shutdown"}
    v}

    [eval] and [suite] accept optional [registers] (default: the
    config's register count) and [cycles] (cycle-model cycles; default:
    the access-time model of the config).  There is no server-side
    deadline: a client bounds its own wait, and a request that still
    carries the per-request deadline field of older clients is
    rejected with an error naming the field.

    Replies always carry ["ok"] ([true]/[false]) and the echoed [id].
    Failure replies are distinguished by ["busy"]: [true] means the
    request was shed (admission queue full, or the server is draining)
    and is worth retrying after a backoff; a plain error ([busy] absent
    or [false]) is not retryable.  Successful [eval] replies carry the
    result object plus [source] ([memo]/[store]/[fresh]), [degraded]
    (the point was quarantined and carries the fallback cost), and
    [coalesced] (this reply was satisfied by another client's in-flight
    evaluation of the same point).

    The JSON syntax is {!Core.Bench_schema}'s — the repo's own parser
    and printer, so the service adds no dependencies. *)

type point = {
  suite : string;  (** ["full"] or ["sampleN"] *)
  index : int;  (** loop index within the suite; ignored by [suite] requests *)
  config : Wr_machine.Config.t;
  registers : int;
  cycle_model : Wr_machine.Cycle_model.t;
}

type request =
  | Eval of point
  | Suite of point
  | Health
  | Shutdown

type envelope = { id : string option; req : request }

val parse_request : string -> (envelope, string option * string) result
(** Parse one request line.  The error carries the request [id] when
    the line was at least valid JSON (so the reply can still be
    matched) and a message naming what was wrong. *)

(** {2 Reply rendering} — each returns a single line without the
    trailing newline.  [result_json] is the stable rendering of a
    {!Core.Evaluate.loop_result}; [eval_reply] and [suite_reply] embed
    it under ["result"], and clients that only need the payload print
    that member verbatim, which is what makes warm-start byte-identity
    checkable from the outside. *)

val result_json : Core.Evaluate.loop_result -> Core.Bench_schema.json

val aggregate_json : Core.Evaluate.aggregate -> Core.Bench_schema.json

val eval_reply : id:string option -> coalesced:bool -> Core.Evaluate.answer -> string
(** The answer's source spelled [memo]/[store]/[fresh], its degraded
    flag, and its result. *)

val suite_reply : id:string option -> Core.Evaluate.aggregate -> string

val health_reply : id:string option -> (string * Core.Bench_schema.json) list -> string

val busy_reply : id:string option -> string -> string

val error_reply : id:string option -> string -> string

val shutdown_reply : id:string option -> string

(** {2 Request rendering} — the client half. *)

val req_eval :
  ?id:string ->
  ?registers:int ->
  ?cycles:int ->
  suite:string ->
  index:int ->
  config:string ->
  unit ->
  string

val req_suite :
  ?id:string ->
  ?registers:int ->
  ?cycles:int ->
  suite:string ->
  config:string ->
  unit ->
  string

val req_health : ?id:string -> unit -> string

val req_shutdown : ?id:string -> unit -> string
