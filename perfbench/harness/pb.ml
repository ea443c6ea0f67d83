(* Harness of the repository benchmark (see perfbench/METRICS.md).

   Runs one workload against the libraries' public API and prints one
   JSON line of raw samples, counters and check outcomes.
   perfbench/run.py generates the inputs from the seed, builds this
   program, turns the samples into metrics and prints the result.  Every
   layer is measured from outside: the harness times calls into public
   functions and reads counters the libraries already expose.

   usage: pb.exe WORKLOAD --loops N --seconds S --trace 0|1 --work DIR
            --cli EXE --jobs N --golden DIR --reference FILE

   WORKLOAD is figures-cold or verified-store.  DIR holds the generated
   inputs (subset.txt, probe.txt, and for verified-store seeded.txt and
   requests.txt); the harness changes into it and writes every file of
   the run there. *)

module J = Core.Bench_schema
module E = Core.Evaluate
module Store = Core.Store
module Prov = Core.Provenance
module P = Wr_serve.Protocol
module Client = Wr_serve.Client
module Oracle = Wr_check.Oracle
module Interp = Wr_vliw.Interp
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop
module Pool = Wr_util.Pool
module Obs = Wr_obs.Obs

let now () = float_of_int (Obs.now_ns ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- arguments ----------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: pb.exe (figures-cold|verified-store) --loops N --seconds S --trace 0|1 \
     --work DIR --cli EXE --jobs N --golden DIR --reference FILE";
  exit 2

let workload, opts =
  let rec pairs acc = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k ->
        pairs ((String.sub k 2 (String.length k - 2), v) :: acc) tl
    | [] -> acc
    | _ -> usage ()
  in
  match Array.to_list Sys.argv with _ :: w :: rest -> (w, pairs [] rest) | _ -> usage ()

let opt k = match List.assoc_opt k opts with Some v -> v | None -> usage ()

let seconds = float_of_string (opt "seconds")

let tracing = String.equal (opt "trace") "1"

let jobs = int_of_string (opt "jobs")

let cli = opt "cli"

let golden = opt "golden"

let reference = opt "reference"

(* --- checks -------------------------------------------------------------- *)

let attempted = ref 0

let failures = ref []

let check ok msg =
  incr attempted;
  if not ok then failures := msg () :: !failures

(* --- files and processes ------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_lines path =
  List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file path))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc n -> acc + (Unix.stat (Filename.concat dir n)).Unix.st_size)
    0 (Sys.readdir dir)

(* Peak resident set of this process, from /proc. *)
let peak_rss_mb () =
  match read_lines "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | lines ->
      List.fold_left
        (fun acc l ->
          if String.starts_with ~prefix:"VmHWM:" l then
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
          else acc)
        0. lines

(* --- points -------------------------------------------------------------- *)

type point = { index : int; config : Config.t; cycle_model : Cycle_model.t }

let parse_point = function
  | idx :: label :: cycles :: _ ->
      let config = match Config.parse label with Ok c -> c | Error m -> failwith m in
      let cycle_model =
        match Cycle_model.of_cycles (int_of_string cycles) with
        | Some m -> m
        | None -> failwith ("no cycle model with " ^ cycles ^ " cycles")
      in
      { index = int_of_string idx; config; cycle_model }
  | _ -> failwith "malformed point line"

let read_points file =
  Array.of_list (List.map (fun l -> parse_point (String.split_on_char ' ' l)) (read_lines file))

let registers p = p.config.Config.registers

(* [--loops 0] runs on the full suite; [--loops N] on the deterministic
   N-loop sample that [-s N] selects everywhere else in the repo. *)
let sample = int_of_string (opt "loops")

let suite_id = if sample = 0 then "full" else Printf.sprintf "sample%d" sample

(* Suite generation is part of set-up.  [Suite.perfect_club_like] caches
   its array, so set-up times the generator it wraps; a sample is then
   drawn from the cached suite, which holds the same loops. *)
let generate_suite () =
  let full = Wr_workload.Generator.generate Wr_workload.Generator.default in
  if sample = 0 then full else Wr_workload.Suite.sample sample

let loop_of loops p =
  if p.index >= Array.length loops then
    failwith (Printf.sprintf "loop index %d outside the %d-loop suite" p.index (Array.length loops));
  loops.(p.index)

let loop_on loops p =
  E.loop_on p.config ~cycle_model:p.cycle_model ~registers:(registers p) (loop_of loops p)

(* --- output checks ------------------------------------------------------- *)

let fig3_csv t =
  Core.Csv_export.to_string ~header:Core.Csv_export.fig3_header (Core.Csv_export.fig3_rows t)

let fig9_csv t =
  Core.Csv_export.to_string ~header:Core.Csv_export.fig9_header (Core.Csv_export.fig9_rows t)

let digests = ref []

let expected_digests =
  lazy
    (match read_lines reference with
    | exception Sys_error _ -> []
    | lines ->
        List.filter_map
          (fun l -> match String.split_on_char ' ' l with [ k; v ] -> Some (k, v) | _ -> None)
          lines)

let check_digest name csv =
  let name = suite_id ^ ":" ^ name and d = Digest.to_hex (Digest.string csv) in
  if not (List.mem_assoc name !digests) then digests := (name, d) :: !digests;
  check
    (List.assoc_opt name (Lazy.force expected_digests) = Some d)
    (fun () -> Printf.sprintf "%s rows differ from the reference digest (got %s)" name d)

(* The committed sample-120 golden CSVs, read-only. *)
let check_golden () =
  let loops = Wr_workload.Suite.sample 120 in
  let f3 = Core.Spill_study.run ~suite_id:"sample120" loops in
  let f9 = Core.Tradeoff.figure9 ~suite_id:"sample120" loops in
  List.iter
    (fun (name, csv) ->
      let expected = try Some (read_file (Filename.concat golden name)) with Sys_error _ -> None in
      check (expected = Some csv) (fun () ->
          Printf.sprintf "sample-120 %s differs from %s" name (Filename.concat golden name)))
    [ ("fig3.csv", fig3_csv f3); ("fig9.csv", fig9_csv f9) ]

let check_quarantine () =
  let q = E.quarantined () in
  check (q = []) (fun () ->
      String.concat "; "
        (List.map
           (fun (r : E.quarantine_record) ->
             Printf.sprintf "quarantined %s:%d on %s (%d regs): %s" r.E.q_suite r.E.q_index
               r.E.q_config r.E.q_registers r.E.q_reason)
           q))

(* --- samples ------------------------------------------------------------- *)

let setups = ref []

let walls = ref []

let fresh = ref []

let warms = ref []

let lags = ref []

let layers : (string * float) list ref = ref []

let layer k v = layers := (k, v) :: List.remove_assoc k !layers

let ratio a b = if b = 0. then 0. else a /. b

let push r v = r := v :: !r

let cpus = ref []

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Latency of one uncached design-point evaluation, per probe point: the
   best of its tries.  The probe runs in slices between a workload's
   passes, a third of the points each, so that its tries span the whole
   run: neither a moment the machine was taken away nor a slow minute of
   the host counts as a point's cost. *)
let probe_points = lazy (read_points "probe.txt")

let probe_best = ref [||]

let probe_next = ref 0

let probe_slice loops =
  let points = Lazy.force probe_points in
  let n = Array.length points in
  if Array.length !probe_best = 0 then probe_best := Array.make n infinity;
  for _ = 1 to (n + 2) / 3 do
    let i = !probe_next in
    probe_next := (i + 1) mod n;
    match timed (fun () -> loop_on loops points.(i)) with
    | _, dt -> !probe_best.(i) <- Float.min !probe_best.(i) (dt *. 1e3)
    | exception e ->
        check false (fun () -> Printf.sprintf "probe point raised %s" (Printexc.to_string e))
  done

(* Runs one untimed pass first — it grows the heap and fills lazy tables
   that later passes reuse, and its checks still count — then, unless the
   run is traced, timed passes until the time budget is spent, at least
   three of them.  Every pass starts from a compacted heap, so no pass
   pays for the garbage of the one before, and a probe slice follows
   every pass. *)
let repeat loops f =
  f ();
  probe_slice loops;
  if not tracing then begin
    List.iter (fun r -> r := []) [ walls; warms ];
    fresh := [];
    let t0 = now () in
    let rec go n last =
      if n < 3 || now () -. t0 +. last <= seconds then begin
        Gc.compact ();
        let c0 = cpu () in
        let (), dt = timed f in
        push cpus (cpu () -. c0);
        probe_slice loops;
        go (n + 1) dt
      end
    in
    go 0 0.
  end

let latencies () = List.filter Float.is_finite (Array.to_list !probe_best)

(* --- traced replication -------------------------------------------------- *)

(* The per-layer numbers: for a seeded subset of points, replay each
   point's pipeline one public call at a time — widen, MII, schedule, the
   register-constrained driver, and (as the workload does) the oracles,
   the interpreter and store appends/finds — timing every call.  The
   replay runs twice, first with its clock off and then on; the
   difference of the two sweeps is the tracing overhead.  The replay's
   standalone [Mii.mii] and [Modulo.run] duplicate the schedule
   [Driver.run] makes: they time the scheduler apart from the driver. *)
let replicate ~verify ~store loops =
  let points = read_points "subset.txt" in
  let results, evaluated = timed (fun () -> Array.map (fun p -> loop_on loops p) points) in
  let acc = Hashtbl.create 32 in
  let get k = Option.value ~default:0. (Hashtbl.find_opt acc k) in
  let sweep ~traced =
    let time f = if traced then timed f else (f (), 0.) in
    let add k v = if traced then Hashtbl.replace acc k (v +. get k) in
    let scratch = Option.map (fun dir -> rm_rf dir; fst (Store.open_dir dir)) store in
    let hashes = ref [] in
    let one i p =
      let loop = loop_of loops p in
      let width = p.config.Config.width
      and registers = registers p
      and cycle_model = p.cycle_model in
      let (widened, stats), dt = time (fun () -> Wr_widen.Transform.widen loop ~width) in
      add "widen.self_s" dt;
      add "widen.ops" (float_of_int stats.Wr_widen.Transform.original_ops);
      add "widen.compactable" (float_of_int stats.Wr_widen.Transform.compactable_ops);
      let resource = Resource.of_config p.config and ddg = widened.Loop.ddg in
      let mii, dt_mii = time (fun () -> Wr_sched.Mii.mii resource ~cycle_model ddg) in
      add "mii.self_s" dt_mii;
      let r, dt_sched = time (fun () -> Wr_sched.Modulo.run resource ~cycle_model ddg) in
      add "sched.self_s" (Float.max 0. (dt_sched -. dt_mii));
      add "sched.placements" (float_of_int r.Wr_sched.Modulo.placements);
      add "sched.ii_over_mii"
        (float_of_int r.Wr_sched.Modulo.schedule.Wr_sched.Schedule.ii /. float_of_int (max 1 mii));
      let (outcome, tally), dt_drv =
        time (fun () ->
            Wr_sched.Backend.with_tally (fun () ->
                Wr_regalloc.Driver.run resource ~cycle_model ~registers ddg))
      in
      add "regalloc.driver_s" dt_drv;
      add "sched.calls" (float_of_int tally.Wr_sched.Backend.runs);
      add "sched.evictions" (float_of_int tally.Wr_sched.Backend.evictions);
      (match outcome with
      | Wr_regalloc.Driver.Scheduled s ->
          add "regalloc.spill_rounds" (float_of_int s.Wr_regalloc.Driver.spill_rounds);
          add "regalloc.spill_ops"
            (float_of_int (s.Wr_regalloc.Driver.stores_added + s.Wr_regalloc.Driver.loads_added))
      | Wr_regalloc.Driver.Unschedulable _ -> ());
      if verify then begin
        let plans, dt_c =
          time (fun () ->
              try Some (Interp.compile loop, Interp.compile widened) with Invalid_argument _ -> None)
        in
        add "interp.compile_s" dt_c;
        let (), dt_r =
          time (fun () ->
              Option.iter
                (fun (po, pw) ->
                  ignore (Interp.run_plan ~iterations:(3 * width) po);
                  ignore (Interp.run_plan ~iterations:3 pw))
                plans)
        in
        add "interp.run_s" dt_r;
        let original_plan = Option.map fst plans and widened_plan = Option.map snd plans in
        let vs, dt_o =
          time (fun () ->
              Oracle.check_widening ?original_plan ?widened_plan ~original:loop ~widened ~width ()
              @ Oracle.check_driver ?pre_plan:widened_plan resource ~registers ~pre:widened outcome)
        in
        add "oracle.self_s" (Float.max 0. (dt_o -. dt_r));
        if traced then check (vs = []) (fun () -> Oracle.to_string vs)
      end;
      Option.iter
        (fun st ->
          let r = results.(i) in
          let hash =
            Prov.point_hash ~suite_id ~index:p.index ~config:p.config ~registers ~cycle_model loop
          in
          let entry =
            {
              Store.hash;
              ii = r.E.ii;
              cycles_bits = Int64.bits_of_float r.E.cycles;
              required_regs = r.E.required_regs;
              spill_stores = r.E.spill_stores;
              spill_loads = r.E.spill_loads;
              spill_rounds = r.E.spill_rounds;
              pipelined = r.E.pipelined;
              mii = r.E.mii;
              trip_count = r.E.trip_count;
            }
          in
          hashes := hash :: !hashes;
          add "store.add_s" (snd (time (fun () -> Store.add st entry))))
        scratch
    in
    let (), wall =
      timed (fun () ->
          Array.iteri one points;
          Option.iter
            (fun st ->
              add "store.add_s" (snd (time (fun () -> Store.flush st)));
              List.iter
                (fun h ->
                  let found, dt = time (fun () -> Store.find st h) in
                  add "store.find_s" dt;
                  if traced then
                    check (found <> None) (fun () -> "a store append was not found again"))
                !hashes)
            scratch)
    in
    Option.iter Store.close scratch;
    wall
  in
  let untraced = sweep ~traced:false in
  let traced = sweep ~traced:true in
  let n = float_of_int (max 1 (Array.length points)) in
  List.iter
    (fun k -> layer k (get k))
    [
      "widen.self_s"; "mii.self_s"; "sched.self_s"; "sched.calls"; "sched.placements";
      "sched.evictions"; "regalloc.driver_s"; "regalloc.spill_rounds"; "regalloc.spill_ops";
      "oracle.self_s"; "interp.compile_s"; "interp.run_s"; "store.add_s"; "store.find_s";
    ];
  layer "widen.compactable_ratio" (ratio (get "widen.compactable") (get "widen.ops"));
  layer "sched.ii_over_mii" (get "sched.ii_over_mii" /. n);
  layer "evaluate.point_us" (evaluated /. n *. 1e6);
  layer "trace.overhead_s" (traced -. untraced)

let evaluate_layers ~fresh ~(loop : E.cache_stats) ~(suite : E.cache_stats) =
  let hit_ratio (s : E.cache_stats) =
    ratio (float_of_int s.E.hits) (float_of_int (s.E.hits + s.E.misses))
  in
  layer "evaluate.fresh" (float_of_int fresh);
  layer "evaluate.loop_hit_ratio" (hit_ratio loop);
  layer "evaluate.suite_hit_ratio" (hit_ratio suite)

let store_open_s dir =
  snd
    (timed (fun () ->
         let st, _ = Store.open_dir dir in
         Store.close st))

(* --- figures-cold ---------------------------------------------------------- *)

(* Set-up repetitions of the batch workloads (their set-up is short). *)
let batch_setups = 21

(* Renders per warm sample, and warm samples per pass, of figures-cold. *)
let renders = 200

let warm_samples = 3

(* fig3 then fig9 on the workload's suite from a cleared memo: no store,
   no ledger, no oracles. *)
let figures_cold () =
  let loops = ref [||] in
  for _ = 1 to batch_setups do
    Gc.compact ();
    let l, dt =
      timed (fun () ->
          let l = generate_suite () in
          E.clear_cache ();
          l)
    in
    loops := l;
    push setups dt
  done;
  let loops = !loops in
  let figures () =
    let f3 = Core.Spill_study.run ~suite_id loops in
    (f3, Core.Tradeoff.figure9 ~suite_id loops)
  in
  let check_figures (f3, f9) =
    check_digest "fig3" (fig3_csv f3);
    check_digest "fig9" (fig9_csv f9)
  in
  (* The warm regeneration: the same process renders both figures again
     from its memo, as a user re-rendering a figure does.  One render is
     well under a millisecond, so a sample times [renders] of them. *)
  let warm () =
    Gc.compact ();
    let (), wall =
      timed (fun () ->
          for _ = 1 to renders do
            ignore (figures ())
          done)
    in
    wall /. float_of_int renders
  in
  (* A cold pass, then [warm_samples] warm samples from the memo it
     filled, so that cold and warm timings span the same minutes. *)
  let pass () =
    E.clear_cache ();
    let ev0 = E.evaluations () in
    let figs, wall = timed figures in
    let suite = E.cache_stats `Suite in
    push walls wall;
    push fresh (E.evaluations () - ev0);
    evaluate_layers ~fresh:(E.evaluations () - ev0) ~loop:(E.cache_stats `Loop) ~suite;
    check_figures figs;
    for _ = 1 to warm_samples do
      push warms (warm ())
    done;
    check_figures (figures ())
  in
  repeat loops pass;
  check_quarantine ();
  E.clear_cache ();
  check_golden ();
  if tracing then replicate ~verify:false ~store:None loops

(* --- verified-store -------------------------------------------------------- *)

(* A cold fig3 with oracles and ledger capture against an empty store,
   then [warm_passes] warm fig3s from that store, each after a memo
   clear. *)
let warm_passes = 3

let verified_store () =
  E.set_verify true;
  Prov.set_capture true;
  let loops = ref [||] in
  for k = 1 to batch_setups do
    let dir = Printf.sprintf "store-setup-%d" k in
    rm_rf dir;
    Gc.compact ();
    let l, dt =
      timed (fun () ->
          let l = generate_suite () in
          E.clear_cache ();
          ignore (E.attach_store dir);
          E.detach_store ();
          l)
    in
    loops := l;
    push setups dt
  done;
  let loops = !loops in
  let cycle = ref 0 in
  let last_dir = ref "" in
  let one () =
    incr cycle;
    let dir = Printf.sprintf "store-%d" !cycle in
    rm_rf dir;
    last_dir := dir;
    E.clear_cache ();
    Prov.reset ();
    let ev0 = E.evaluations () and vp0 = E.verified_points () in
    let (cold_csv, appended, records, ledger_s), cold =
      timed (fun () ->
          ignore (E.attach_store dir);
          let f3 = Core.Spill_study.run ~suite_id loops in
          let appended = E.store_appended () in
          E.detach_store ();
          let records = List.length (Prov.records ()) in
          let (), ledger_s = timed (fun () -> Prov.write (Printf.sprintf "ledger-%d.wrl" !cycle)) in
          (fig3_csv f3, appended, records, ledger_s))
    in
    let cold_fresh = E.evaluations () - ev0 in
    evaluate_layers ~fresh:cold_fresh ~loop:(E.cache_stats `Loop) ~suite:(E.cache_stats `Suite);
    layer "oracle.points" (float_of_int (E.verified_points () - vp0));
    layer "ledger.records" (float_of_int records);
    layer "ledger.write_s" ledger_s;
    layer "store.adds" (float_of_int appended);
    check_digest "fig3" cold_csv;
    push walls cold;
    push fresh cold_fresh;
    for _ = 1 to warm_passes do
      E.clear_cache ();
      Prov.reset ();
      Gc.compact ();
      let ev1 = E.evaluations () in
      let (warm_csv, st), warm =
        timed (fun () ->
            ignore (E.attach_store dir);
            let f3 = Core.Spill_study.run ~suite_id loops in
            let st = E.cache_stats `Store in
            E.detach_store ();
            (fig3_csv f3, st))
      in
      let warm_evals = E.evaluations () - ev1 in
      layer "store.hit_ratio"
        (ratio (float_of_int st.E.hits) (float_of_int (st.E.hits + st.E.misses)));
      check (String.equal warm_csv cold_csv) (fun () -> "warm fig3 differs from the cold pass");
      check (warm_evals = 0) (fun () ->
          Printf.sprintf "warm pass evaluated %d points (expected 0)" warm_evals);
      push warms warm
    done
  in
  repeat loops one;
  check_quarantine ();
  layer "store.bytes" (float_of_int (dir_bytes !last_dir));
  layer "store.open_s" (store_open_s !last_dir);
  E.clear_cache ();
  if tracing then replicate ~verify:true ~store:(Some "store-scratch") loops

(* --- the serve phase -------------------------------------------------------- *)

(* verified-store's traced run also serves its sample from a
   [widening-cli serve] child on a Unix socket, so that the Wr_serve
   layers are measured on a gated workload. *)

let sock = "srv.sock"

let target = `Unix sock

let children = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let spawn_server store =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log = Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--store"; store; "--jobs"; string_of_int jobs |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  children := pid :: !children;
  pid

let health () =
  match Client.round_trip target ~timeout_ms:2000 (P.req_health ()) with
  | Ok line -> (
      match J.parse line with Ok j -> J.member "result" j | Error _ -> None)
  | Error _ -> None

let rec field j = function
  | [] -> Option.value ~default:0. (J.to_float j)
  | k :: rest -> ( match J.member k j with Some v -> field v rest | None -> 0.)

let wait_health () =
  let deadline = now () +. 30. in
  let rec go () =
    match health () with
    | Some h -> h
    | None ->
        if now () > deadline then failwith "server did not answer health within 30 s";
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let stop_server pid =
  ignore (Client.round_trip target ~timeout_ms:2000 (P.req_shutdown ()));
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _ -> ()
  in
  wait ();
  children := List.filter (fun c -> c <> pid) !children

type req = { due : float; kind : string; pt : point; verify : bool; line : string }

let read_requests () =
  Array.of_list
    (List.mapi
       (fun i l ->
         match String.split_on_char ' ' l with
         | due :: kind :: rest ->
             let pt = parse_point rest in
             let verify = List.nth rest 3 = "1" in
             let line =
               P.req_eval ~id:(string_of_int i) ~suite:suite_id ~index:pt.index
                 ~config:(Config.label pt.config) ~cycles:(Cycle_model.cycles pt.cycle_model) ()
             in
             { due = float_of_string due /. 1e3; kind; pt; verify; line }
         | _ -> failwith "malformed request line")
       (read_lines "requests.txt"))

(* Open loop: request i is due at t0 + due_i whatever happened before.
   [jobs] sender threads each take the next request, wait for its due
   time and send it, so at most [jobs] requests are outstanding.  Returns
   how late each send was and each reply. *)
let open_loop reqs =
  let n = Array.length reqs in
  let next = Atomic.make 0 in
  let lag = Array.make n 0. in
  let replies = Array.make n (Error (Client.Io "not sent")) in
  let t0 = now () +. 0.05 in
  let sender () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = t0 +. reqs.(i).due in
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        lag.(i) <- now () -. due;
        replies.(i) <- Client.round_trip target ~timeout_ms:10_000 reqs.(i).line;
        go ()
      end
    in
    go ()
  in
  let threads = List.init jobs (fun _ -> Thread.create sender ()) in
  List.iter Thread.join threads;
  (lag, replies)

(* One set-up (pre-seed a store, start the server, wait for its first
   [health] reply), the open-loop window of requests.txt, and the
   server's [health] deltas over it.  It reports the [serve.*] layers
   only; every other layer of the traced run is verified-store's own. *)
let serve_phase loops =
  let seeded = read_points "seeded.txt" and store = "serve-store" in
  rm_rf store;
  E.clear_cache ();
  ignore (E.attach_store store);
  ignore
    (Pool.parallel_map seeded ~f:(fun p ->
         E.loop_cached ~suite_id ~index:p.index p.config ~cycle_model:p.cycle_model
           ~registers:(registers p) (loop_of loops p)));
  E.detach_store ();
  E.clear_cache ();
  let pid = spawn_server store in
  ignore (wait_health ());
  (* An out-of-range index makes the server generate and keep the suite
     without evaluating anything. *)
  ignore
    (Client.round_trip target ~timeout_ms:30_000
       (P.req_eval ~suite:suite_id ~index:max_int ~config:"1w1" ()));
  let connects =
    List.init 51 (fun _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let (), dt = timed (fun () -> Unix.connect fd (Unix.ADDR_UNIX sock)) in
        Unix.close fd;
        dt *. 1e3)
  in
  layer "serve.connect_ms" (List.nth (List.sort compare connects) 25);
  let reqs = read_requests () in
  let before = wait_health () in
  let lag, replies = open_loop reqs in
  let after = wait_health () in
  let delta path = field after path -. field before path in
  stop_server pid;
  let sources = Hashtbl.create 4 and ok = ref 0 in
  Array.iteri
    (fun i reply ->
      let r = reqs.(i) in
      let ok_reply =
        match Result.map J.parse reply with
        | Ok (Ok j) -> (
            match (J.member "ok" j, J.member "source" j, J.member "result" j) with
            | Some (J.Bool true), Some (J.Str src), Some result ->
                incr ok;
                Hashtbl.replace sources src
                  (1 + Option.value ~default:0 (Hashtbl.find_opt sources src));
                if r.verify then
                  check
                    (String.equal (J.to_string result)
                       (J.to_string (P.result_json (loop_on loops r.pt))))
                    (fun () -> Printf.sprintf "reply to %s differs from Evaluate.loop_on" r.line);
                true
            | _ -> false)
        | _ -> false
      in
      check ok_reply (fun () ->
          Printf.sprintf "%s request %s: %s" r.kind r.line
            (match reply with Ok l -> l | Error e -> Client.error_message e));
      push lags (lag.(i) *. 1e3))
    replies;
  let share src =
    ratio (float_of_int (Option.value ~default:0 (Hashtbl.find_opt sources src))) (float_of_int !ok)
  in
  layer "serve.source_memo" (share "memo");
  layer "serve.source_store" (share "store");
  layer "serve.source_fresh" (share "fresh");
  layer "serve.coalesced" (delta [ "coalesced" ]);
  layer "serve.shed" (delta [ "shed" ]);
  layer "serve.gen_lag_ms" (List.fold_left Float.max 0. !lags)

(* --- main ------------------------------------------------------------------ *)

let () =
  Sys.chdir (opt "work");
  Pool.set_default_jobs jobs;
  (match workload with
  | "figures-cold" -> figures_cold ()
  | "verified-store" ->
      if tracing then serve_phase (generate_suite ());
      verified_store ()
  | _ -> usage ());
  let floats r = J.List (List.rev_map J.float !r) in
  let ints r = J.List (List.rev_map J.int !r) in
  let out =
    J.Obj
      [
        ("workload", J.str workload);
        ("setup_s", floats setups);
        ("wall_s", floats walls);
        ("fresh", ints fresh);
        ("warm_s", floats warms);
        ("cpu_s", floats cpus);
        ("latency_ms", J.List (List.map J.float (latencies ())));
        ("lag_ms", floats lags);
        ("peak_rss_mb", J.float (peak_rss_mb ()));
        ("attempted", J.int !attempted);
        ("failures", J.List (List.rev_map J.str !failures));
        ("digests", J.Obj (List.rev_map (fun (k, v) -> (k, J.str v)) !digests));
        ("layers", J.Obj (List.rev_map (fun (k, v) -> (k, J.float v)) !layers));
        ( "env",
          J.Obj
            [
              ("nproc", J.int (Domain.recommended_domain_count ()));
              ("pool_jobs", J.int (Pool.jobs (Pool.default ())));
              ("ocaml", J.str Sys.ocaml_version);
              ("loops", J.int (Array.length (Wr_workload.Suite.perfect_club_like ())));
            ] );
      ]
  in
  print_endline (J.to_string out)
