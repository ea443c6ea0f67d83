(* Command-line interface to the widening-resources study (the paper's
   tables and figures are regenerated by bench/main.exe).

   widening-cli check daxpy -c 4w2(64)      every oracle on one kernel or .wr file
   widening-cli workload                    suite statistics
   widening-cli serve --socket PATH         design-space query daemon
   widening-cli query point --socket PATH   one point from the daemon
   widening-cli store stat DIR              inspect a result store *)

open Cmdliner

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Loop = Wr_ir.Loop
module Run_options = Wr_cli.Run_options

(* --- check -------------------------------------------------------------- *)

let find_kernel name =
  match List.assoc_opt name (Wr_workload.Kernels.all ()) with
  | Some k -> Ok k
  | None ->
      Error
        (Printf.sprintf "unknown kernel %s (available: %s)" name
           (String.concat ", " (List.map fst (Wr_workload.Kernels.all ()))))

let check_cmd =
  let target =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TARGET"
             ~doc:"Kernel name, or a .wr loop file path (e.g. a fuzz reproducer).")
  in
  let config =
    Arg.(value & opt string "4w2(128)"
         & info [ "c"; "config" ] ~docv:"CONFIG"
             ~doc:"Configuration to verify on, e.g. 4w2(64); the register count in \
                   parentheses is the file size used.")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration's access \
                   time implies.")
  in
  let policy =
    let values =
      [ ("combined", Wr_regalloc.Driver.Combined);
        ("spill", Wr_regalloc.Driver.Spill_only);
        ("escalate", Wr_regalloc.Driver.Escalate_only) ]
    in
    Arg.(value & opt (enum values) Wr_regalloc.Driver.Combined
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Register-pressure policy: combined, spill or escalate.")
  in
  let run target config_str cycles policy =
    let loops =
      if Sys.file_exists target then begin
        let source = In_channel.with_open_text target In_channel.input_all in
        match Wr_ir.Text_format.parse source with
        | Ok loops -> loops
        | Error e -> prerr_endline e; exit 2
      end
      else
        match find_kernel target with
        | Ok loop -> [ loop ]
        | Error e -> prerr_endline e; exit 1
    in
    match Config.parse config_str with
    | Error e -> prerr_endline e; exit 1
    | Ok cfg ->
        let cm =
          match cycles with
          | None -> Wr_cost.Access_time.cycle_model_of cfg
          | Some n -> (
              match Cycle_model.of_cycles n with
              | Some m -> m
              | None ->
                  Printf.eprintf "--cycles must be 1..4, got %d\n" n;
                  exit 1)
        in
        let registers = cfg.Config.registers in
        let failed = ref false in
        List.iter
          (fun (l : Loop.t) ->
            let r = Wr_check.Oracle.check_point cfg ~cycle_model:cm ~registers ~policy l in
            let status =
              if not r.Wr_check.Oracle.schedulable then "unschedulable (nothing to verify)"
              else
                Printf.sprintf "II=%d%s"
                  (Option.value ~default:0 r.Wr_check.Oracle.ii)
                  (if r.Wr_check.Oracle.spilled then ", spill code verified" else "")
            in
            match r.Wr_check.Oracle.violations with
            | [] ->
                Printf.printf "  %-24s %s on %s (%s): all oracles passed\n" l.Loop.name
                  status (Config.label cfg)
                  (Cycle_model.to_string cm)
            | vs ->
                failed := true;
                Printf.printf "  %-24s %s on %s (%s): %d VIOLATION(S)\n%s\n" l.Loop.name
                  status (Config.label cfg)
                  (Cycle_model.to_string cm)
                  (List.length vs)
                  (Wr_check.Oracle.to_string vs))
          loops;
        if !failed then exit 2
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify the full pipeline (widen, schedule, allocate, spill) on a kernel or \
             loop file with the independent invariant oracles")
    Term.(const run $ target $ config $ cycles $ policy)

(* --- workload ----------------------------------------------------------- *)

let workload_cmd =
  let run sample =
    let loops, _ = Run_options.suite sample in
    print_string (Wr_workload.Suite.statistics loops)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Print aggregate statistics of the loop suite")
    Term.(const run $ Run_options.sample)

(* --- serve / query / store ---------------------------------------------- *)

let socket_arg =
  let doc = "Listen on (serve) or connect to (query) a Unix-domain socket at PATH." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "Listen on (serve) or connect to (query) TCP port N." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"N" ~doc)

let host_arg =
  let doc = "Host for --port (bind address for serve, server address for query)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let endpoint_of socket port host =
  match (socket, port) with
  | Some path, None -> `Unix path
  | None, Some p -> `Tcp (host, p)
  | Some _, Some _ ->
      prerr_endline "--socket and --port are mutually exclusive";
      exit 1
  | None, None ->
      prerr_endline "one of --socket PATH or --port N is required";
      exit 1

(* [Server.run] returns once every admitted request is answered, so
   [finish] flushes the ledger and store only after the drain. *)
let run_serve opts socket port host queue_max =
  let listen = endpoint_of socket port host in
  Run_options.start ~out:stderr opts;
  (match Wr_serve.Server.run { Wr_serve.Server.listen; queue_max } with
  | () -> ()
  | exception Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "serve: %s: %s %s\n" (Unix.error_message e) fn arg;
      exit 2);
  Run_options.finish ~out:stderr opts

let serve_cmd =
  let queue_max =
    let doc =
      "Admission bound: at most N requests outstanding (queued or evaluating); requests \
       beyond that are shed immediately with an explicit busy reply, so memory stays \
       bounded under any offered load."
    in
    Arg.(value & opt Run_options.positive Wr_serve.Server.default_queue_max
         & info [ "queue-max" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the design-space query daemon: concurrent study/point queries over a \
             Unix or TCP socket, with duplicate-request coalescing, bounded admission \
             with explicit load shedding, and an optional crash-safe persistent result \
             store for zero-re-evaluation warm starts.  Every evaluation runs to \
             completion; clients bound their own wait (query --timeout-ms). \
             SIGTERM/SIGINT drain gracefully.")
    Term.(const run_serve $ Run_options.term $ socket_arg $ port_arg $ host_arg $ queue_max)

let query_ops = [ ("point", `Point); ("suite", `Suite); ("health", `Health); ("shutdown", `Shutdown) ]

let run_query op socket port host suite index config_str cycles registers id timeout_ms
    retries base_ms max_ms =
  let module P = Wr_serve.Protocol in
  let module J = Core.Bench_schema in
  let target = (endpoint_of socket port host :> Wr_serve.Client.target) in
  let line =
    match op with
    | `Health -> P.req_health ?id ()
    | `Shutdown -> P.req_shutdown ?id ()
    | `Point -> P.req_eval ?id ?registers ?cycles ~suite ~index ~config:config_str ()
    | `Suite -> P.req_suite ?id ?registers ?cycles ~suite ~config:config_str ()
  in
  (* Seed the backoff jitter from the pid so a herd of concurrent
     clients retrying against a busy server desynchronizes. *)
  let seed = Int64.of_int (Unix.getpid ()) in
  match
    Wr_serve.Client.query target ~timeout_ms ~attempts:retries ~base_ms ~max_ms ~seed line
  with
  | Error (Wr_serve.Client.Busy msg) ->
      Printf.eprintf "query: still busy after %d attempt(s): %s\n" retries msg;
      (* 4 = busy-after-retries (see README "Exit codes"): retryable by
         the caller, distinct from a hard failure. *)
      exit 4
  | Error e ->
      Printf.eprintf "query: %s\n" (Wr_serve.Client.error_message e);
      exit 2
  | Ok reply -> (
      (match J.member "result" reply with
      | Some r -> print_endline (J.to_string r)
      | None -> print_endline (J.to_string reply));
      match op with
      | `Point | `Suite ->
          let field k =
            match J.member k reply with
            | Some (J.Str v) -> v
            | Some (J.Bool b) -> string_of_bool b
            | _ -> "-"
          in
          Printf.eprintf "[query] source=%s degraded=%s coalesced=%s\n" (field "source")
            (field "degraded") (field "coalesced")
      | `Health | `Shutdown -> ())

let query_cmd =
  let op =
    let doc =
      "Operation: $(b,point) (evaluate one suite point), $(b,suite) (aggregate over the \
       whole suite), $(b,health) (server metrics, cache hit rates, queue depth), or \
       $(b,shutdown) (graceful drain)."
    in
    Arg.(required & pos 0 (some (enum query_ops)) None & info [] ~docv:"OP" ~doc)
  in
  let suite =
    Arg.(value & opt string "full"
         & info [ "suite" ] ~docv:"SUITE"
             ~doc:"Suite id: $(b,full) or $(b,sampleN) (e.g. sample50).")
  in
  let index =
    Arg.(value & opt int 0 & info [ "i"; "index" ] ~docv:"N" ~doc:"Loop index for point.")
  in
  let config =
    Arg.(value & opt string "4w2(64)"
         & info [ "c"; "config" ] ~docv:"CONFIG" ~doc:"Configuration, e.g. 4w2(64).")
  in
  let cycles =
    Arg.(value & opt (some int) None
         & info [ "cycles" ] ~docv:"N"
             ~doc:"Cycle model (1-4); defaults to the one the configuration implies.")
  in
  let registers =
    Arg.(value & opt (some int) None
         & info [ "registers" ] ~docv:"N"
             ~doc:"Register file size; defaults to the configuration's.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Request id echoed back in the reply.")
  in
  let timeout =
    Arg.(value & opt Run_options.positive 30000
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Socket connect/read timeout per attempt; the only bound on the wait.  A \
                   timed-out evaluation keeps running on the server, and a retry joins \
                   it or reads its memoized result.")
  in
  let retries =
    Arg.(value & opt Run_options.positive 5
         & info [ "retries" ] ~docv:"N"
             ~doc:"Total attempts on busy replies or connection failures (jittered \
                   exponential backoff between them); 1 disables retrying.")
  in
  let base =
    Arg.(value & opt Run_options.positive 100
         & info [ "backoff-base-ms" ] ~docv:"MS" ~doc:"First retry delay before jitter.")
  in
  let cap =
    Arg.(value & opt int 2000
         & info [ "backoff-max-ms" ] ~docv:"MS" ~doc:"Retry delay ceiling before jitter.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:"Query a running widening-serve daemon.  Prints the result JSON to stdout and \
             reply metadata (cache source, degradation, coalescing) to stderr.  Exit 0 on \
             success, 2 on a definitive server or connection error, 4 when the server was \
             still shedding load after every retry.")
    Term.(const run_query $ op $ socket_arg $ port_arg $ host_arg $ suite $ index $ config
          $ cycles $ registers $ id $ timeout $ retries $ base $ cap)

let store_cmd =
  let action =
    let doc = "$(b,stat) (report segments/entries/recovery) or $(b,compact) (rewrite as \
               one sorted, deduplicated segment — the canonical byte-comparable form)." in
    Arg.(required & pos 0 (some (enum [ ("stat", `Stat); ("compact", `Compact) ])) None
         & info [] ~docv:"ACTION" ~doc)
  in
  let dir =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Store directory.")
  in
  let run action dir =
    match Core.Store.open_dir dir with
    | exception Core.Store.Locked msg ->
        prerr_endline msg;
        exit 2
    | t, r ->
        Printf.printf "%s: %d entries in %d segment(s)\n" dir r.Core.Store.entries
          r.Core.Store.segments;
        if r.Core.Store.quarantined_segments > 0 then
          Printf.printf "  recovery: %d corrupt segment(s) quarantined\n"
            r.Core.Store.quarantined_segments;
        if r.Core.Store.truncated_bytes > 0 then
          Printf.printf "  recovery: %d torn byte(s) truncated\n" r.Core.Store.truncated_bytes;
        (match action with
        | `Stat -> ()
        | `Compact ->
            Core.Store.compact t;
            Printf.printf "compacted to 1 segment (%d entries)\n" (Core.Store.length t));
        Core.Store.close t
  in
  Cmd.v
    (Cmd.info "store" ~doc:"Inspect or compact a persistent result store directory")
    Term.(const run $ action $ dir)

let () =
  let info =
    Cmd.info "widening-cli" ~version:"1.0.0"
      ~doc:"Replication vs. widening design-space study (Lopez et al., MICRO 1998)"
  in
  let code =
    Cmd.eval
      (Cmd.group info
         [
           check_cmd; workload_cmd; serve_cmd; query_cmd; store_cmd;
         ])
  in
  (* Standardized exit codes: cmdliner reports its own parse/usage
     errors as 124 (and internal errors as 125); fold both into the
     1 = usage, 2 = runtime-failure convention the other entry points
     use. *)
  let code = if code = Cmd.Exit.cli_error then 1
             else if code = Cmd.Exit.internal_error then 2
             else code in
  exit code
