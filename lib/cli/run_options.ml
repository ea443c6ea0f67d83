open Cmdliner

type t = {
  jobs : int option;
  store : string option;
  backend : Wr_sched.Backend.kind option;
  strict : bool;
  ledger : string option;
  trace : string option;
  metrics : string option;
}

let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got '%s'" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

(* Paths are checked at parse time, so a bad one is a usage error
   before the run rather than an exception at its end.  The run creates
   the leaf (store directory or output file), never its parent. *)
let creatable path =
  let dir = Filename.dirname path in
  if Sys.file_exists dir && Sys.is_directory dir then Ok path
  else Error (`Msg (Printf.sprintf "%s: directory %s does not exist" path dir))

let store_dir =
  let parse = function
    | "" -> Ok "" (* no store *)
    | path when Sys.file_exists path ->
        if Sys.is_directory path then Ok path
        else Error (`Msg (Printf.sprintf "%s is not a directory" path))
    | path -> creatable path
  in
  Arg.conv ~docv:"DIR" (parse, Format.pp_print_string)

let out_file =
  let parse path =
    if Sys.file_exists path && Sys.is_directory path then
      Error (`Msg (Printf.sprintf "%s is a directory" path))
    else creatable path
  in
  Arg.conv ~docv:"FILE" (parse, Format.pp_print_string)

let jobs =
  let doc =
    "Size of the domain pool used for parallel evaluation (also the WR_JOBS environment \
     variable; defaults to the number of cores).  The results are bit-identical for any \
     value; 1 forces fully sequential evaluation."
  in
  Arg.(value & opt (some positive) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let store =
  let doc =
    "Consult and append to a persistent content-addressed result store at DIR: evaluation \
     points already present (keyed by provenance hash and scheduler backend) are answered \
     from the store without re-evaluation, and every fresh clean evaluation is appended.  \
     Re-running an interrupted run on the same DIR resumes it, with output byte-identical \
     to an uninterrupted run.  The store is crash-safe (checksummed append-only segments; \
     torn tails and corrupt segments are recovered on open) and single-writer (a stale lock \
     from a killed process is broken automatically).  An empty DIR means no store."
  in
  (* The fallback lets a warm cache follow a user across invocations
     without repeating the flag. *)
  let env = Cmd.Env.info "WR_STORE" in
  Arg.(value & opt (some store_dir) None & info [ "store" ] ~env ~docv:"DIR" ~doc)

let backend =
  let doc =
    "Modulo-scheduler backend: $(b,heuristic) (the HRMS-style default) or $(b,exact) \
     (branch-and-bound refinement of the heuristic schedule).  Also the WR_SCHED_BACKEND \
     environment variable."
  in
  let parse s =
    match Wr_sched.Backend.of_string s with
    | Some k -> Ok k
    | None -> Error (`Msg "BACKEND must be heuristic or exact")
  in
  let print fmt k = Format.pp_print_string fmt (Wr_sched.Backend.to_string k) in
  Arg.(value & opt (some (conv (parse, print))) None & info [ "backend" ] ~docv:"BACKEND" ~doc)

let strict =
  let doc =
    "Fail fast: a loop evaluation that raises aborts the run instead of degrading the point \
     to the unpipelined fallback (also the WR_STRICT environment variable)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let ledger =
  let doc =
    "Record one provenance record per evaluated point (content hash, II vs MII, backend, \
     spill traffic, oracle verdict, quarantine tag) and write them as a checksummed run \
     ledger at FILE — the input of $(b,bench) $(b,report)/$(b,diff).  Byte-identical for \
     any --jobs; per-point wall times are opt-in via WR_LEDGER_WALL=1."
  in
  Arg.(value & opt (some out_file) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let trace =
  let doc =
    "Enable pipeline telemetry and write a Chrome trace-event JSON file (load it in \
     chrome://tracing or https://ui.perfetto.dev): one lane per domain, spans for every \
     pipeline stage (widen, schedule, allocate, spill, verify, pool tasks)."
  in
  Arg.(value & opt (some out_file) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc =
    "Enable pipeline telemetry and write a flat JSON snapshot of every counter, histogram \
     and span aggregate (scheduler attempts/evictions, spill rounds, cache hit rates, pool \
     utilization)."
  in
  Arg.(value & opt (some out_file) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let term =
  let open Term.Syntax in
  let+ jobs = jobs
  and+ store = store
  and+ backend = backend
  and+ strict = strict
  and+ ledger = ledger
  and+ trace = trace
  and+ metrics = metrics in
  let store = match store with Some "" -> None | s -> s in
  { jobs; store; backend; strict; ledger; trace; metrics }

let sample =
  let doc = "Evaluate on a deterministic N-loop subsample of the 1180-loop suite." in
  Arg.(value & opt (some positive) None & info [ "s"; "sample" ] ~docv:"N" ~doc)

let suite = function
  | None -> (Wr_workload.Suite.perfect_club_like (), "full")
  | Some n -> (Wr_workload.Suite.sample n, Printf.sprintf "sample%d" n)

let start ~out t =
  Option.iter Wr_util.Pool.set_default_jobs t.jobs;
  Option.iter Wr_sched.Backend.set t.backend;
  if t.strict then Core.Evaluate.set_strict true;
  if t.ledger <> None then Core.Provenance.set_capture true;
  Option.iter
    (fun dir ->
      match Core.Evaluate.attach_store dir with
      | r ->
          Printf.fprintf out "[store] %s: %d entries in %d segment(s)%s%s\n%!" dir
            r.Core.Store.entries r.Core.Store.segments
            (if r.Core.Store.quarantined_segments > 0 then
               Printf.sprintf ", %d quarantined" r.Core.Store.quarantined_segments
             else "")
            (if r.Core.Store.truncated_bytes > 0 then
               Printf.sprintf ", %d torn byte(s) truncated" r.Core.Store.truncated_bytes
             else "")
      | exception Core.Store.Locked msg ->
          prerr_endline msg;
          exit 2
      | exception (Invalid_argument msg | Sys_error msg) ->
          Printf.eprintf "store %s: %s\n%!" dir msg;
          exit 2
      | exception Unix.Unix_error (e, fn, _) ->
          Printf.eprintf "store %s: %s: %s\n%!" dir fn (Unix.error_message e);
          exit 2)
    t.store;
  if t.trace <> None || t.metrics <> None then Wr_obs.Obs.set_enabled true

let finish ~out t =
  (* A quarantined point skipped its oracles, so a verified run counts
     it beside the clean ones rather than under them. *)
  if Core.Evaluate.verify_enabled () then
    Printf.fprintf out
      "[verify] %d (loop, machine-point) results passed all oracles, %d quarantined \
       (not verified)\n%!"
      (Core.Evaluate.verified_points ())
      (Core.Evaluate.quarantined_count ());
  Option.iter
    (fun path ->
      Wr_obs.Obs.write_trace path;
      Printf.fprintf out "[trace] wrote %s\n%!" path)
    t.trace;
  Option.iter
    (fun path ->
      Wr_obs.Obs.write_metrics path;
      Printf.fprintf out "[metrics] wrote %s\n%!" path)
    t.metrics;
  Option.iter
    (fun path ->
      Core.Provenance.write path;
      Printf.fprintf out "[ledger] wrote %s (%d points)\n%!" path
        (List.length (Core.Provenance.records ())))
    t.ledger;
  Option.iter
    (fun dir ->
      let s = Core.Evaluate.cache_stats `Store in
      Printf.fprintf out "[store] %s: %d entries, %d hits, %d misses, %d appended\n%!" dir
        (Core.Evaluate.store_entries ()) s.Core.Evaluate.hits s.Core.Evaluate.misses
        (Core.Evaluate.store_appended ());
      Core.Evaluate.detach_store ())
    t.store
