module Obs = Wr_obs.Obs

type action = Raise | Delay_ms of int

type spec = { site : string; prob : float; seed : int64; action : action }

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "Wr_util.Fault.Injected(%s)" site)
    | _ -> None)

(* --- spec parsing ----------------------------------------------------- *)

let parse_one s =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' (String.trim s) with
  | site :: prob :: seed :: rest when site <> "" ->
      let* prob =
        match float_of_string_opt prob with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok p
        | Some p -> Error (Printf.sprintf "probability %g out of [0,1]" p)
        | None -> Error (Printf.sprintf "bad probability %S" prob)
      in
      let* seed =
        match Int64.of_string_opt seed with
        | Some v -> Ok v
        | None -> Error (Printf.sprintf "bad seed %S" seed)
      in
      let* action =
        match rest with
        | [] -> Ok Raise
        | [ d ] when String.length d > 6 && String.sub d 0 6 = "delay=" -> (
            match int_of_string_opt (String.sub d 6 (String.length d - 6)) with
            | Some ms when ms >= 0 -> Ok (Delay_ms ms)
            | _ -> Error (Printf.sprintf "bad delay %S" d))
        | _ -> Error (Printf.sprintf "trailing fields in %S" s)
      in
      Ok { site; prob; seed; action }
  | _ -> Error (Printf.sprintf "malformed spec %S (want site:prob:seed[:delay=MS])" s)

let parse s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | piece :: rest -> ( match parse_one piece with Ok sp -> go (sp :: acc) rest | Error e -> Error e)
  in
  go [] (String.split_on_char ',' s)

(* --- active specs ----------------------------------------------------- *)

let current : spec list Atomic.t =
  Atomic.make
    (match Sys.getenv_opt "WR_FAULT" with
    | None | Some "" -> []
    | Some s -> (
        match parse s with
        | Ok specs -> specs
        | Error e ->
            Printf.eprintf
              "warning: invalid WR_FAULT value %S (expected site:prob:seed[:delay=MS][,...] — \
               %s); using no fault injection\n%!"
              s e;
            []))

let configure specs = Atomic.set current specs

let specs () = Atomic.get current

let active () = Atomic.get current <> []

let injected_count = Atomic.make 0

let injected () = Atomic.get injected_count

(* --- deterministic per-context streams -------------------------------- *)

type context = { ctx_hash : int64; streams : (string, Rng.t) Hashtbl.t }

let context_key : context option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let with_context key f =
  let slot = Domain.DLS.get context_key in
  let saved = !slot in
  slot := Some { ctx_hash = Wr_obs.Ledger.fnv1a64 key; streams = Hashtbl.create 4 };
  Fun.protect ~finally:(fun () -> slot := saved) f

(* Spin rather than sleep: a delay fault stands for a slow evaluation,
   which keeps its domain busy.  Tests use it to overlap requests and
   to show that slowness never changes a result. *)
let spin_ms ms =
  let stop = Obs.now_ns () + (ms * 1_000_000) in
  while Obs.now_ns () < stop do
    Domain.cpu_relax ()
  done

let fire site action =
  Atomic.incr injected_count;
  if Obs.enabled () then Obs.incr ("fault/injected/" ^ site);
  match action with Raise -> raise (Injected site) | Delay_ms ms -> spin_ms ms

let hit site =
  match Atomic.get current with
  | [] -> ()
  | specs -> (
      match !(Domain.DLS.get context_key) with
      | None -> ()
      | Some ctx ->
          List.iter
            (fun sp ->
              if String.equal sp.site site then begin
                let rng =
                  match Hashtbl.find_opt ctx.streams site with
                  | Some r -> r
                  | None ->
                      (* Seed from (spec seed, context, site): the draw
                         sequence within one evaluation is a pure
                         function of the point being evaluated. *)
                      let seed =
                        Int64.add sp.seed
                          (Int64.add
                             (Int64.mul ctx.ctx_hash 0x9E3779B97F4A7C15L)
                             (Wr_obs.Ledger.fnv1a64 site))
                      in
                      let r = Rng.create ~seed in
                      Hashtbl.add ctx.streams site r;
                      r
                in
                if Rng.float rng 1.0 < sp.prob then fire site sp.action
              end)
            specs)
