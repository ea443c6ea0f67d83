(* Fixed domain pool with a shared FIFO of tasks.

   Concurrency discipline: a batch's caller never blocks while the
   queue is non-empty — it pops and runs tasks itself.  Any thread
   sleeping on a batch therefore observed an empty queue, meaning every
   unfinished task of its batch is executing in some other domain; by
   induction over nesting depth those tasks terminate, so the sleeper
   is always woken.  This is what makes nested [parallel_map] calls on
   the same pool safe. *)

type t = {
  mutex : Mutex.t;
  nonempty : Condition.t;
  pending : (unit -> unit) Queue.t;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t array;
  jobs : int;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

module Obs = Wr_obs.Obs

(* Telemetry: each executed task is a span on the executing domain's
   lane, and per-worker busy time and task counts accumulate as
   runtime (placement-dependent) metrics.  All of it is behind the
   single [Obs.enabled] branch.

   Tasks nest (a task's own [parallel_map] makes the domain "help" run
   inner tasks), so busy time is only accumulated for the outermost
   task of each domain — otherwise a helping domain would double-count
   every nested task and report more busy time than wall time. *)
let task_depth = Domain.DLS.new_key (fun () -> ref 0)

let run_task task =
  if Obs.enabled () then begin
    let depth = Domain.DLS.get task_depth in
    Stdlib.incr depth;
    let t0 = Obs.now_ns () in
    let finish () =
      Stdlib.decr depth;
      if !depth = 0 then Obs.runtime_add "pool/busy_ns" (Obs.now_ns () - t0);
      Obs.runtime_add "pool/tasks_run" 1
    in
    (match Obs.span "pool/task" task with
    | () -> finish ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt)
  end
  else task ()

let worker_loop t =
  (* Drain the queue before honouring shutdown: a task accepted by
     [submit] must run even when [shutdown] lands right behind it. *)
  let rec next_task () =
    match Queue.take_opt t.pending with
    | Some _ as task -> task
    | None ->
        if t.shutting_down then None
        else begin
          if Obs.enabled () then begin
            let t0 = Obs.now_ns () in
            Condition.wait t.nonempty t.mutex;
            Obs.runtime_add "pool/idle_ns" (Obs.now_ns () - t0)
          end
          else Condition.wait t.nonempty t.mutex;
          next_task ()
        end
  in
  let rec run () =
    Mutex.lock t.mutex;
    let task = next_task () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        run_task task;
        run ()
  in
  run ()

let create ?jobs () =
  let jobs =
    match jobs with
    | None -> default_jobs ()
    | Some j when j >= 1 -> j
    | Some j -> invalid_arg (Printf.sprintf "Pool.create: jobs must be >= 1, got %d" j)
  in
  let t =
    {
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      pending = Queue.create ();
      shutting_down = false;
      workers = [||];
      jobs;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.workers;
  t.workers <- [||];
  (* Run anything still queued in the calling domain (a size-1 pool has
     no workers to drain it): every task accepted by [submit] runs. *)
  let rec drain () =
    Mutex.lock t.mutex;
    let task = Queue.take_opt t.pending in
    Mutex.unlock t.mutex;
    match task with
    | Some task ->
        run_task task;
        drain ()
    | None -> ()
  in
  drain ()

let submit t task =
  Mutex.lock t.mutex;
  if t.shutting_down then begin
    Mutex.unlock t.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.add task t.pending;
  (* Sample the gauge under the same mutex that guards the queue (and
     after the add, so the submitted task is counted): deriving depth
     from submitted-minus-run counters instead would go transiently
     negative under work-helping, where a task can finish before the
     submitting thread's counter update is visible. *)
  if Obs.enabled () then begin
    Obs.runtime_add "pool/tasks_submitted" 1;
    Obs.runtime_observe "pool/queue_depth" (Queue.length t.pending)
  end;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

let queue_depth t =
  Mutex.lock t.mutex;
  let n = Queue.length t.pending in
  Mutex.unlock t.mutex;
  n

(* --- default pool ----------------------------------------------------- *)

let default_pool : t option ref = ref None

let default_mutex = Mutex.create ()

let default () =
  Mutex.lock default_mutex;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_mutex;
  p

let set_default_jobs j =
  if j < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Mutex.lock default_mutex;
  let old = !default_pool in
  default_pool := Some (create ~jobs:j ());
  Mutex.unlock default_mutex;
  (* The swap is already visible, so new [default ()] callers get the
     fresh pool; shutting the old one down then drains every task it
     accepted (its workers finish the queue before exiting, and
     [shutdown] itself runs any leftovers), so a batch in flight on the
     old pool completes with correct results.  A domain that raced
     [default ()] and submits after the drain gets the explicit
     [Invalid_argument] from {!submit} rather than a silent hang. *)
  Option.iter shutdown old

(* --- batches ----------------------------------------------------------- *)

exception Batch_failure of (int * exn * Printexc.raw_backtrace) list

let () =
  Printexc.register_printer (function
    | Batch_failure fails ->
        Some
          (Printf.sprintf "Wr_util.Pool.Batch_failure: %d item(s) failed: %s"
             (List.length fails)
             (String.concat "; "
                (List.map
                   (fun (i, e, _) -> Printf.sprintf "[%d] %s" i (Printexc.to_string e))
                   fails)))
    | _ -> None)

type batch = {
  b_mutex : Mutex.t;
  b_done : Condition.t;
  mutable unfinished : int;
  mutable failures : (int * exn * Printexc.raw_backtrace) list;
}

let finish_one batch fails =
  Mutex.lock batch.b_mutex;
  batch.failures <- List.rev_append fails batch.failures;
  batch.unfinished <- batch.unfinished - 1;
  if batch.unfinished = 0 then Condition.broadcast batch.b_done;
  Mutex.unlock batch.b_mutex

(* Apply [f] to every item of [lo, lo+len); a failing item is recorded
   with its input index and the rest of the chunk still runs, so one
   bad point cannot shadow failures (or discard results) behind it. *)
let run_items arr ~f out ~lo ~len =
  let fails = ref [] in
  for i = lo to lo + len - 1 do
    match f arr.(i) with
    | v -> out.(i) <- Some v
    | exception e -> fails := (i, e, Printexc.get_raw_backtrace ()) :: !fails
  done;
  !fails

let guarded batch arr ~f out ~lo ~len () =
  match run_items arr ~f out ~lo ~len with
  | fails -> finish_one batch fails
  | exception e ->
      (* run_items only raises on an asynchronous exception; never leave
         the batch hanging. *)
      finish_one batch [ (lo, e, Printexc.get_raw_backtrace ()) ]

(* Run queued tasks until the batch completes, then sleep for stragglers
   still executing in other domains. *)
let help_until_done t batch =
  let rec drain () =
    let finished =
      Mutex.lock batch.b_mutex;
      let f = batch.unfinished = 0 in
      Mutex.unlock batch.b_mutex;
      f
    in
    if not finished then begin
      Mutex.lock t.mutex;
      let task = Queue.take_opt t.pending in
      Mutex.unlock t.mutex;
      match task with
      | Some task ->
          run_task task;
          drain ()
      | None ->
          Mutex.lock batch.b_mutex;
          while batch.unfinished > 0 do
            Condition.wait batch.b_done batch.b_mutex
          done;
          Mutex.unlock batch.b_mutex
    end
  in
  drain ()

(* Raise if any item failed, sorted by input index so the report (and
   any test asserting on it) is deterministic for every pool size. *)
let raise_failures = function
  | [] -> ()
  | fails ->
      raise
        (Batch_failure (List.sort (fun (a, _, _) (b, _, _) -> compare a b) fails))

let collect out =
  Array.map
    (function Some v -> v | None -> failwith "Pool.parallel_map: missing item result")
    out

let parallel_map ?pool arr ~f =
  let n = Array.length arr in
  if n = 0 then [||]
  else
    let t = match pool with Some p -> p | None -> default () in
    if t.jobs = 1 || n = 1 then begin
      (* Sequential path, same contract as the parallel one: every item
         is attempted and all failures are reported together, so jobs=1
         and jobs=N are behaviourally identical. *)
      let out = Array.make n None in
      raise_failures (run_items arr ~f out ~lo:0 ~len:n);
      collect out
    end
    else begin
      (* Several chunks per worker so an unlucky chunk of hard loops
         doesn't serialize the tail of the batch. *)
      let chunk_size = Stdlib.max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs)) in
      let nchunks = (n + chunk_size - 1) / chunk_size in
      let out = Array.make n None in
      let batch =
        {
          b_mutex = Mutex.create ();
          b_done = Condition.create ();
          unfinished = nchunks;
          failures = [];
        }
      in
      for c = 0 to nchunks - 1 do
        let lo = c * chunk_size in
        let len = Stdlib.min chunk_size (n - lo) in
        submit t (guarded batch arr ~f out ~lo ~len)
      done;
      help_until_done t batch;
      raise_failures batch.failures;
      collect out
    end

let parallel_list_map ?pool l ~f =
  Array.to_list (parallel_map ?pool (Array.of_list l) ~f)
