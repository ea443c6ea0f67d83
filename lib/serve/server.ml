module J = Core.Bench_schema
module Evaluate = Core.Evaluate
module Loop = Wr_ir.Loop
module Pool = Wr_util.Pool
module Obs = Wr_obs.Obs
module P = Protocol

type listen = [ `Unix of string | `Tcp of string * int ]

type config = { listen : listen; queue_max : int }

let default_queue_max = 64

(* A connection is shared between its reader thread and the pool tasks
   answering its requests; everything mutable is under [wmutex].  The
   fd is closed only when the reader has seen EOF AND no admitted
   request still owes a reply — closing earlier would let the kernel
   reuse the fd number and a late reply would land on a stranger's
   socket. *)
type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  mutable alive : bool;  (** writes still possible *)
  mutable closing : bool;  (** reader saw EOF/error *)
  mutable owed : int;  (** admitted replies not yet written *)
}

(* A point job carries the memo key it coalesces on. *)
type work = Point of Loop.t * Evaluate.memo_key | Agg of Loop.t array

type job = { id : string option; p : P.point; work : work; conn : conn }

(* In-flight point jobs by memo key; a duplicate attaches here instead
   of taking an admission slot. *)
type flight = { mutable waiters : (conn * string option) list }

type t = {
  cfg : config;
  qmutex : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  inflight : (Evaluate.memo_key, flight) Hashtbl.t;
  mutable outstanding : int;  (** admitted (queued + evaluating) primaries *)
  draining : bool Atomic.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  coalesced : int Atomic.t;
  started_ns : int;
}

(* --- plumbing ---------------------------------------------------------- *)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Write one reply line.  [owed] marks replies that were admitted (and
   so were counted in [conn.owed] at admission time). *)
let send ?(owed = false) conn line =
  Mutex.lock conn.wmutex;
  (if conn.alive then
     try write_all conn.fd (line ^ "\n")
     with Unix.Unix_error _ | Sys_error _ -> conn.alive <- false);
  if owed then begin
    conn.owed <- conn.owed - 1;
    if conn.closing && conn.owed = 0 then begin
      conn.alive <- false;
      close_quiet conn.fd
    end
  end;
  Mutex.unlock conn.wmutex

(* Called under [qmutex] (lock order is always qmutex -> wmutex). *)
let expect_reply conn =
  Mutex.lock conn.wmutex;
  conn.owed <- conn.owed + 1;
  Mutex.unlock conn.wmutex

(* --- suites ------------------------------------------------------------ *)

(* Both are cheap: the full suite is generated once per process and a
   sample copies array slots. *)
let resolve_suite name =
  if String.equal name "full" then Ok (Wr_workload.Suite.perfect_club_like ())
  else if String.length name > 6 && String.equal (String.sub name 0 6) "sample" then
    match int_of_string_opt (String.sub name 6 (String.length name - 6)) with
    | Some n when n >= 1 -> Ok (Wr_workload.Suite.sample n)
    | _ -> Error (Printf.sprintf "bad suite %S: sampleN needs a positive N" name)
  else Error (Printf.sprintf "unknown suite %S (expected \"full\" or \"sampleN\")" name)

(* --- health ------------------------------------------------------------ *)

let stats_obj (s : Evaluate.cache_stats) =
  J.Obj [ ("hits", J.int s.Evaluate.hits); ("misses", J.int s.Evaluate.misses) ]

let health_fields t =
  Mutex.lock t.qmutex;
  let queue_depth = Queue.length t.queue in
  let outstanding = t.outstanding in
  let inflight = Hashtbl.length t.inflight in
  Mutex.unlock t.qmutex;
  let store_fields =
    match Evaluate.store_dir () with
    | None -> [ ("attached", J.Bool false) ]
    | Some dir ->
        let s = Evaluate.cache_stats `Store in
        [
          ("attached", J.Bool true);
          ("dir", J.Str dir);
          ("entries", J.int (Evaluate.store_entries ()));
          ("hits", J.int s.Evaluate.hits);
          ("misses", J.int s.Evaluate.misses);
          ("appended", J.int (Evaluate.store_appended ()));
        ]
  in
  [
    ("uptime_s", J.float (float_of_int (Obs.now_ns () - t.started_ns) /. 1e9));
    ("draining", J.Bool (Atomic.get t.draining));
    ("jobs", J.int (Pool.jobs (Pool.default ())));
    ("queue_depth", J.int queue_depth);
    ("queue_max", J.int t.cfg.queue_max);
    ("outstanding", J.int outstanding);
    ("inflight_points", J.int inflight);
    ("pool_queue_depth", J.int (Pool.queue_depth (Pool.default ())));
    ("served", J.int (Atomic.get t.served));
    ("shed", J.int (Atomic.get t.shed));
    ("coalesced", J.int (Atomic.get t.coalesced));
    ("evaluations", J.int (Evaluate.evaluations ()));
    ("quarantined", J.int (Evaluate.quarantined_count ()));
    ("loop_cache", stats_obj (Evaluate.cache_stats `Loop));
    ("suite_cache", stats_obj (Evaluate.cache_stats `Suite));
    ("store", J.Obj store_fields);
    ("obs_enabled", J.Bool (Obs.enabled ()));
  ]

(* --- admission --------------------------------------------------------- *)

let signal_dispatcher t =
  Mutex.lock t.qmutex;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex

let admit t conn id (p : P.point) work =
  Mutex.lock t.qmutex;
  let flight =
    match work with Point (_, key) -> Hashtbl.find_opt t.inflight key | Agg _ -> None
  in
  if Atomic.get t.draining then begin
    Mutex.unlock t.qmutex;
    send conn (P.busy_reply ~id "server is draining")
  end
  else
    match flight with
    | Some fl ->
        (* Duplicate of an in-flight point: ride along free of charge.
           Coalescing is checked before the admission bound on purpose —
           a waiter costs no evaluation and no queue slot, so shedding
           it would only lose work already paid for. *)
        fl.waiters <- (conn, id) :: fl.waiters;
        Atomic.incr t.coalesced;
        expect_reply conn;
        Mutex.unlock t.qmutex
    | None ->
        if t.outstanding >= t.cfg.queue_max then begin
          let outstanding = t.outstanding in
          Atomic.incr t.shed;
          Mutex.unlock t.qmutex;
          send conn
            (P.busy_reply ~id
               (Printf.sprintf "admission queue full (%d outstanding, max %d)" outstanding
                  t.cfg.queue_max))
        end
        else begin
          (match work with
          | Point (_, key) -> Hashtbl.add t.inflight key { waiters = [] }
          | Agg _ -> ());
          t.outstanding <- t.outstanding + 1;
          expect_reply conn;
          Queue.add { id; p; work; conn } t.queue;
          Condition.signal t.qcond;
          Mutex.unlock t.qmutex
        end

let handle_line t conn line =
  match P.parse_request line with
  | Error (id, msg) -> send conn (P.error_reply ~id msg)
  | Ok { id; req } -> (
      match req with
      | P.Health -> send conn (P.health_reply ~id (health_fields t))
      | P.Shutdown ->
          Atomic.set t.draining true;
          signal_dispatcher t;
          send conn (P.shutdown_reply ~id)
      | P.Eval p | P.Suite p -> (
          match resolve_suite p.P.suite with
          | Error msg -> send conn (P.error_reply ~id msg)
          | Ok loops -> (
              match req with
              | P.Eval p ->
                  if p.P.index >= Array.length loops then
                    send conn
                      (P.error_reply ~id
                         (Printf.sprintf "index %d out of range: suite %s has %d loops"
                            p.P.index p.P.suite (Array.length loops)))
                  else
                    let key =
                      Evaluate.memo_key ~suite_id:p.P.suite ~index:p.P.index p.P.config
                        ~cycle_model:p.P.cycle_model ~registers:p.P.registers
                    in
                    admit t conn id p (Point (loops.(p.P.index), key))
              | P.Suite p -> admit t conn id p (Agg loops)
              | P.Health | P.Shutdown -> assert false)))

let reader t conn =
  let ic = Unix.in_channel_of_descr conn.fd in
  (try
     while true do
       let line = input_line ic in
       if not (String.equal (String.trim line) "") then handle_line t conn line
     done
   with End_of_file | Sys_error _ | Unix.Unix_error _ -> ());
  Mutex.lock conn.wmutex;
  conn.alive <- false;
  conn.closing <- true;
  if conn.owed = 0 then close_quiet conn.fd;
  Mutex.unlock conn.wmutex

(* --- evaluation -------------------------------------------------------- *)

let process t { id; p; work; conn } =
  let outcome =
    (* A strict-mode failure (or any bug outside the quarantine net)
       becomes an error reply on this request; the server survives. *)
    try
      match work with
      | Point (loop, _) ->
          let a =
            Evaluate.loop_cached ~suite_id:p.P.suite ~index:p.P.index p.P.config
              ~cycle_model:p.P.cycle_model ~registers:p.P.registers loop
          in
          Ok (fun ~coalesced id -> P.eval_reply ~id ~coalesced a)
      | Agg loops ->
          let a =
            Evaluate.suite_on ~suite_id:p.P.suite p.P.config ~cycle_model:p.P.cycle_model
              ~registers:p.P.registers loops
          in
          Ok (fun ~coalesced:_ id -> P.suite_reply ~id a)
    with
    | Out_of_memory -> raise Out_of_memory
    | e -> Error (Printexc.to_string e)
  in
  Mutex.lock t.qmutex;
  let waiters =
    match work with
    | Agg _ -> []
    | Point (_, key) ->
        let w = match Hashtbl.find_opt t.inflight key with Some fl -> fl.waiters | None -> [] in
        Hashtbl.remove t.inflight key;
        w
  in
  t.outstanding <- t.outstanding - 1;
  Mutex.unlock t.qmutex;
  let reply ~coalesced id =
    match outcome with Ok render -> render ~coalesced id | Error msg -> P.error_reply ~id msg
  in
  Atomic.incr t.served;
  send ~owed:true conn (reply ~coalesced:false id);
  List.iter
    (fun (wconn, wid) ->
      Atomic.incr t.served;
      send ~owed:true wconn (reply ~coalesced:true wid))
    (List.rev waiters)

(* One dispatcher: pops admitted jobs in batches sized to the pool and
   fans each batch out with [parallel_map].  Each task writes its own
   replies, so a slow point delays only the barrier, never the wire. *)
let dispatcher t =
  let pool = Pool.default () in
  let batch_max = max 1 (4 * Pool.jobs pool) in
  let rec loop () =
    Mutex.lock t.qmutex;
    let rec await () =
      if not (Queue.is_empty t.queue) then true
      else if Atomic.get t.draining then false
      else begin
        Condition.wait t.qcond t.qmutex;
        await ()
      end
    in
    if not (await ()) then Mutex.unlock t.qmutex
    else begin
      let batch = ref [] in
      let n = ref 0 in
      while (not (Queue.is_empty t.queue)) && !n < batch_max do
        batch := Queue.pop t.queue :: !batch;
        incr n
      done;
      Mutex.unlock t.qmutex;
      let jobs = Array.of_list (List.rev !batch) in
      (try ignore (Pool.parallel_map ~pool jobs ~f:(fun job -> process t job))
       with Pool.Batch_failure _ -> () (* each job already replied or died alone *));
      loop ()
    end
  in
  loop ()

(* --- lifecycle --------------------------------------------------------- *)

let bind_listener = function
  | `Unix path ->
      (* A previous kill -9 leaves the socket file behind; binding over
         it is the restart path. *)
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 64;
      fd

let listen_label = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let run cfg =
  if cfg.queue_max < 1 then invalid_arg "Server.run: queue_max must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t =
    {
      cfg;
      qmutex = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      inflight = Hashtbl.create 64;
      outstanding = 0;
      draining = Atomic.make false;
      served = Atomic.make 0;
      shed = Atomic.make 0;
      coalesced = Atomic.make 0;
      started_ns = Obs.now_ns ();
    }
  in
  let lfd = bind_listener cfg.listen in
  let drain _ = Atomic.set t.draining true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  Printf.eprintf "[serve] listening on %s (jobs=%d, queue_max=%d)\n%!"
    (listen_label cfg.listen)
    (Pool.jobs (Pool.default ()))
    cfg.queue_max;
  let disp = Thread.create dispatcher t in
  let rec accept_loop () =
    if not (Atomic.get t.draining) then begin
      (match Unix.select [ lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept lfd with
          | fd, _ ->
              let conn =
                { fd; wmutex = Mutex.create (); alive = true; closing = false; owed = 0 }
              in
              ignore (Thread.create (reader t) conn)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.ECONNABORTED), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: stop admitting (readers now answer busy) and let the
     dispatcher finish everything admitted. *)
  signal_dispatcher t;
  Thread.join disp;
  close_quiet lfd;
  (match cfg.listen with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  Printf.eprintf "[serve] drained: served=%d shed=%d coalesced=%d evaluations=%d quarantined=%d\n%!"
    (Atomic.get t.served) (Atomic.get t.shed) (Atomic.get t.coalesced)
    (Evaluate.evaluations ())
    (Evaluate.quarantined_count ())
