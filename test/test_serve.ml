(* The query service end to end: wire protocol, backoff/retry policy,
   single-writer lockfiles, and a live server exercised over a Unix
   socket — answer sources (fresh/memo/store), duplicate coalescing,
   bounded admission with explicit shedding, and graceful drain. *)

module J = Core.Bench_schema
module P = Wr_serve.Protocol
module Server = Wr_serve.Server
module Client = Wr_serve.Client
module Evaluate = Core.Evaluate
module Fault = Wr_util.Fault

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* The server drives the process-global evaluation state; every test
   starts and ends clean. *)
let clean () =
  Fault.configure [];
  Evaluate.set_strict false;
  Evaluate.set_loop_budget_ms None;
  Evaluate.detach_store ();
  Evaluate.reset_quarantine ();
  Evaluate.clear_cache ()

let with_clean_state f =
  clean ();
  Fun.protect ~finally:clean f

let with_tmp_dir f =
  let dir = Filename.temp_file "wrserve-test" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* --- protocol ----------------------------------------------------------- *)

let parse_ok line =
  match P.parse_request line with
  | Ok env -> env
  | Error (_, msg) -> Alcotest.failf "parse failed on %s: %s" line msg

let test_protocol_roundtrip () =
  let line =
    P.req_eval ~id:"r1" ~registers:32 ~cycles:4 ~deadline_ms:50 ~suite:"sample7" ~index:3
      ~config:"4w2(64)" ()
  in
  (match parse_ok line with
  | { P.id = Some "r1"; req = P.Eval p } ->
      Alcotest.(check string) "suite" "sample7" p.P.suite;
      Alcotest.(check int) "index" 3 p.P.index;
      Alcotest.(check int) "registers" 32 p.P.registers;
      Alcotest.(check (option int)) "deadline" (Some 50) p.P.deadline_ms;
      Alcotest.(check int) "cycles" 4 (Wr_machine.Cycle_model.cycles p.P.cycle_model)
  | _ -> Alcotest.fail "wrong eval envelope");
  (match parse_ok (P.req_suite ~suite:"full" ~config:"2w2(64)" ()) with
  | { P.id = None; req = P.Suite _ } -> ()
  | _ -> Alcotest.fail "wrong suite envelope");
  (match parse_ok (P.req_health ~id:"h" ()) with
  | { P.id = Some "h"; req = P.Health } -> ()
  | _ -> Alcotest.fail "wrong health envelope");
  match parse_ok (P.req_shutdown ()) with
  | { P.req = P.Shutdown; _ } -> ()
  | _ -> Alcotest.fail "wrong shutdown envelope"

let test_protocol_defaults () =
  match parse_ok {|{"op":"eval","suite":"sample5","index":0,"config":"4w2(128)"}|} with
  | { P.req = P.Eval p; _ } ->
      Alcotest.(check int) "registers default to the config's" 128 p.P.registers;
      Alcotest.(check int) "cycle model defaults from access time"
        (Wr_machine.Cycle_model.cycles (Wr_cost.Access_time.cycle_model_of p.P.config))
        (Wr_machine.Cycle_model.cycles p.P.cycle_model)
  | _ -> Alcotest.fail "wrong envelope"

let test_protocol_rejects () =
  List.iter
    (fun line ->
      match P.parse_request line with
      | Ok _ -> Alcotest.failf "accepted %s" line
      | Error _ -> ())
    [
      "";
      "nope";
      {|{"suite":"full"}|};
      {|{"op":"frobnicate"}|};
      {|{"op":"eval","suite":"full"}|};
      {|{"op":"eval","suite":"full","index":0,"config":"9q9"}|};
      {|{"op":"eval","suite":"full","index":0,"config":"4w2(64)","cycles":7}|};
    ];
  (* The id survives a bad request so the error reply can be matched. *)
  match P.parse_request {|{"op":"eval","id":"x7"}|} with
  | Error (Some "x7", _) -> ()
  | _ -> Alcotest.fail "id lost on the error path"

let test_reply_shapes () =
  let parse s = match J.parse s with Ok j -> j | Error e -> Alcotest.fail e in
  let busy = parse (P.busy_reply ~id:(Some "b") "full up") in
  Alcotest.(check bool) "busy reply not ok" true (J.member "ok" busy = Some (J.Bool false));
  Alcotest.(check bool) "busy reply retryable" true (J.member "busy" busy = Some (J.Bool true));
  let err = parse (P.error_reply ~id:None "no such loop") in
  Alcotest.(check bool) "error reply not ok" true (J.member "ok" err = Some (J.Bool false));
  Alcotest.(check bool) "error reply not retryable" true
    (J.member "busy" err <> Some (J.Bool true))

(* --- backoff ------------------------------------------------------------ *)

let test_backoff_deterministic_and_bounded () =
  let delays seed =
    let rng = Wr_util.Rng.create ~seed in
    List.init 12 (fun a ->
        Wr_util.Backoff.delay_ms ~base_ms:100 ~max_ms:2000 ~jitter:0.25 ~rng ~attempt:a)
  in
  Alcotest.(check (list int)) "same seed, same delays" (delays 42L) (delays 42L);
  List.iteri
    (fun a d ->
      let ceiling = min 2000 (100 * (1 lsl min a 20)) in
      let lo = int_of_float (float_of_int ceiling *. 0.75) in
      let hi = int_of_float (ceil (float_of_int ceiling *. 1.25)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d within jitter band" a)
        true
        (d >= max 1 lo && d <= hi))
    (delays 42L)

let test_retry_policy () =
  let slept = ref [] and calls = ref 0 in
  let sleep ms = slept := ms :: !slept in
  (* Retryable failure: every attempt used, exponential sleeps between. *)
  let r =
    Wr_util.Backoff.retry ~sleep ~attempts:4 ~base_ms:10 ~max_ms:80 ~jitter:0.0 ~seed:1L
      ~retryable:(fun () -> true)
      (fun ~attempt:_ ->
        incr calls;
        Error ())
  in
  Alcotest.(check bool) "final error returned" true (r = Error ());
  Alcotest.(check int) "every attempt used" 4 !calls;
  Alcotest.(check (list int)) "attempts-1 exponential sleeps" [ 40; 20; 10 ] !slept;
  (* Success mid-way stops the retrying. *)
  slept := [];
  calls := 0;
  let r =
    Wr_util.Backoff.retry ~sleep ~attempts:4 ~base_ms:10 ~max_ms:80 ~jitter:0.0 ~seed:1L
      ~retryable:(fun () -> true)
      (fun ~attempt ->
        incr calls;
        if attempt < 2 then Error () else Ok attempt)
  in
  Alcotest.(check bool) "succeeded on the third attempt" true (r = Ok 2);
  Alcotest.(check int) "no attempts after success" 3 !calls;
  Alcotest.(check int) "two sleeps" 2 (List.length !slept);
  (* A non-retryable error returns immediately, without sleeping. *)
  slept := [];
  calls := 0;
  let r =
    Wr_util.Backoff.retry ~sleep ~attempts:4 ~base_ms:10 ~max_ms:80 ~jitter:0.0 ~seed:1L
      ~retryable:(fun () -> false)
      (fun ~attempt:_ ->
        incr calls;
        Error ())
  in
  Alcotest.(check bool) "error surfaced" true (r = Error ());
  Alcotest.(check int) "single attempt" 1 !calls;
  Alcotest.(check (list int)) "no sleeps" [] !slept

(* --- lockfile ----------------------------------------------------------- *)

let test_lockfile () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "LOCK" in
  let l1 =
    match Wr_util.Lockfile.acquire path with Ok l -> l | Error e -> Alcotest.fail e
  in
  (match Wr_util.Lockfile.acquire path with
  | Ok _ -> Alcotest.fail "double acquire succeeded"
  | Error msg ->
      Alcotest.(check bool) "diagnostic names the live owner" true
        (contains msg (string_of_int (Unix.getpid ()))));
  Wr_util.Lockfile.release l1;
  Wr_util.Lockfile.release l1;
  (* idempotent *)
  (match Wr_util.Lockfile.acquire path with
  | Ok l -> Wr_util.Lockfile.release l
  | Error e -> Alcotest.fail e);
  (* A lock whose recorded owner is dead is broken silently. *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "99999999\n");
  (match Wr_util.Lockfile.acquire path with
  | Ok l -> Wr_util.Lockfile.release l
  | Error e -> Alcotest.failf "stale lock not broken: %s" e);
  (* So is one holding garbage (crash between create and write). *)
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "not-a-pid");
  match Wr_util.Lockfile.acquire path with
  | Ok l -> Wr_util.Lockfile.release l
  | Error e -> Alcotest.failf "garbled lock not broken: %s" e

(* --- live server -------------------------------------------------------- *)

let tmp_sock () =
  let path = Filename.temp_file "wrs" ".sock" in
  Sys.remove path;
  path

(* The server serves through whatever store is attached; [clean]
   detaches it again. *)
let start_server ?(queue_max = Server.default_queue_max) ?store () =
  let sock = tmp_sock () in
  Option.iter (fun dir -> ignore (Evaluate.attach_store dir)) store;
  let cfg = { Server.listen = `Unix sock; queue_max; request_budget_ms = None } in
  let th = Thread.create Server.run cfg in
  let rec wait n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "server did not come up"
    else begin
      Thread.delay 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  (sock, th)

let stop_server sock th =
  (match Client.round_trip (`Unix sock) ~timeout_ms:10000 (P.req_shutdown ()) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown: %s" (Client.error_message e));
  Thread.join th

let query_ok sock line =
  match Client.query (`Unix sock) ~timeout_ms:20000 ~attempts:5 ~base_ms:10 ~max_ms:100 line with
  | Ok r -> r
  | Error e -> Alcotest.failf "query: %s" (Client.error_message e)

let member_str k j =
  match J.member k j with Some (J.Str s) -> s | _ -> Alcotest.failf "reply missing %s" k

let result_line j =
  match J.member "result" j with
  | Some r -> J.to_string r
  | None -> Alcotest.fail "reply has no result"

let test_server_lifecycle () =
  with_clean_state @@ fun () ->
  let sock, th = start_server () in
  let req = P.req_eval ~suite:"sample5" ~index:0 ~config:"4w2(64)" () in
  let r1 = query_ok sock req in
  Alcotest.(check string) "first answer is fresh" "fresh" (member_str "source" r1);
  let r2 = query_ok sock req in
  Alcotest.(check string) "second answer from memo" "memo" (member_str "source" r2);
  Alcotest.(check string) "byte-identical result" (result_line r1) (result_line r2);
  let s = query_ok sock (P.req_suite ~suite:"sample5" ~config:"4w2(64)" ()) in
  ignore (result_line s);
  let h = query_ok sock (P.req_health ()) in
  (match J.member "result" h with
  | Some res ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (Printf.sprintf "health reports %s" k) true
            (J.member k res <> None))
        [ "evaluations"; "queue_depth"; "queue_max"; "served"; "shed"; "coalesced";
          "quarantined"; "loop_cache"; "store" ]
  | None -> Alcotest.fail "health has no result");
  stop_server sock th;
  (* Drained: the socket is unlinked and connections fail cleanly. *)
  match Client.round_trip (`Unix sock) ~timeout_ms:500 (P.req_health ()) with
  | Error (Client.Io _) -> ()
  | Ok _ -> Alcotest.fail "server still answering after drain"
  | Error e -> Alcotest.failf "unexpected error class: %s" (Client.error_message e)

let test_server_store_warm_start () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let store = Filename.concat root "store" in
  let req = P.req_eval ~suite:"sample5" ~index:1 ~config:"4w2(64)" () in
  let sock1, th1 = start_server ~store () in
  let r1 = query_ok sock1 req in
  Alcotest.(check string) "cold answer is fresh" "fresh" (member_str "source" r1);
  stop_server sock1 th1;
  (* New server, cold caches, same store directory: the answer comes
     back from disk, byte-identical, with zero re-evaluations. *)
  clean ();
  let evals = Evaluate.evaluations () in
  let sock2, th2 = start_server ~store () in
  let r2 = query_ok sock2 req in
  Alcotest.(check string) "warm answer from the store" "store" (member_str "source" r2);
  Alcotest.(check string) "byte-identical across restart" (result_line r1) (result_line r2);
  Alcotest.(check int) "zero re-evaluations" evals (Evaluate.evaluations ());
  stop_server sock2 th2

let test_server_degraded_memo_hit () =
  with_clean_state @@ fun () ->
  (* 4w2(64) with a 128-register override names the same memo entry as
     4w2(128): the second request is a memo hit on the quarantined
     point, and its reply must still say degraded. *)
  Fault.configure [ { Fault.site = "widen"; prob = 1.0; seed = 1L; action = Fault.Raise } ];
  let sock, th = start_server () in
  let r1 = query_ok sock (P.req_eval ~suite:"sample6" ~index:1 ~config:"4w2(128)" ~cycles:4 ()) in
  Alcotest.(check string) "first answer is fresh" "fresh" (member_str "source" r1);
  Alcotest.(check bool) "first answer degraded" true
    (J.member "degraded" r1 = Some (J.Bool true));
  let r2 =
    query_ok sock
      (P.req_eval ~suite:"sample6" ~index:1 ~config:"4w2(64)" ~registers:128 ~cycles:4 ())
  in
  Alcotest.(check string) "override answered from memo" "memo" (member_str "source" r2);
  Alcotest.(check bool) "memo hit on a quarantined point is degraded" true
    (J.member "degraded" r2 = Some (J.Bool true));
  Alcotest.(check string) "same result bytes" (result_line r1) (result_line r2);
  stop_server sock th

let test_server_coalesces_duplicates () =
  with_clean_state @@ fun () ->
  (* Slow evaluation down so concurrent duplicates overlap in flight. *)
  Fault.configure
    [ { Fault.site = "widen"; prob = 1.0; seed = 1L; action = Fault.Delay_ms 300 } ];
  let sock, th = start_server () in
  let req = P.req_eval ~suite:"sample5" ~index:2 ~config:"4w2(64)" () in
  let evals0 = Evaluate.evaluations () in
  let replies = Array.make 3 None in
  let threads =
    Array.init 3 (fun i ->
        Thread.create
          (fun () -> replies.(i) <- Some (Client.round_trip (`Unix sock) ~timeout_ms:30000 req))
          ())
  in
  Array.iter Thread.join threads;
  let results =
    Array.to_list replies
    |> List.map (function
         | Some (Ok line) -> (
             match J.parse line with Ok j -> j | Error e -> Alcotest.fail e)
         | Some (Error e) -> Alcotest.failf "transport error: %s" (Client.error_message e)
         | None -> Alcotest.fail "missing reply")
  in
  Alcotest.(check int) "one evaluation served all three" (evals0 + 1) (Evaluate.evaluations ());
  (match List.map result_line results with
  | [ a; b; c ] ->
      Alcotest.(check string) "identical result bytes" a b;
      Alcotest.(check string) "identical result bytes" a c
  | _ -> assert false);
  List.iter
    (fun j -> Alcotest.(check bool) "all ok" true (J.member "ok" j = Some (J.Bool true)))
    results;
  stop_server sock th

let test_server_overload_sheds_explicitly () =
  with_clean_state @@ fun () ->
  Fault.configure
    [ { Fault.site = "widen"; prob = 1.0; seed = 1L; action = Fault.Delay_ms 300 } ];
  let sock, th = start_server ~queue_max:1 () in
  (* Six distinct points against one admission slot, no retries: the
     excess must be shed with the explicit busy reply — every request
     gets an answer, none hangs, the server stays up. *)
  let n = 6 in
  let replies = Array.make n None in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            let req = P.req_eval ~suite:"sample6" ~index:i ~config:"4w2(64)" () in
            replies.(i) <- Some (Client.round_trip (`Unix sock) ~timeout_ms:30000 req))
          ())
  in
  Array.iter Thread.join threads;
  let served = ref 0 and shed = ref 0 in
  Array.iter
    (function
      | Some (Ok line) -> (
          match J.parse line with
          | Ok j when J.member "ok" j = Some (J.Bool true) -> incr served
          | Ok j when J.member "busy" j = Some (J.Bool true) -> incr shed
          | Ok j -> Alcotest.failf "non-busy failure reply: %s" (J.to_string j)
          | Error e -> Alcotest.fail e)
      | Some (Error e) -> Alcotest.failf "transport error: %s" (Client.error_message e)
      | None -> Alcotest.fail "missing reply")
    replies;
  Alcotest.(check int) "every request answered" n (!served + !shed);
  Alcotest.(check bool) "some requests served" true (!served >= 1);
  Alcotest.(check bool) "overload shed with explicit busy replies" true (!shed >= 1);
  (* Shed traffic retried with backoff eventually lands. *)
  Fault.configure [];
  ignore (query_ok sock (P.req_eval ~suite:"sample6" ~index:5 ~config:"4w2(64)" ()));
  stop_server sock th

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "defaults from the config" `Quick test_protocol_defaults;
          Alcotest.test_case "malformed requests rejected" `Quick test_protocol_rejects;
          Alcotest.test_case "reply shapes" `Quick test_reply_shapes;
        ] );
      ( "backoff",
        [
          Alcotest.test_case "deterministic and bounded" `Quick
            test_backoff_deterministic_and_bounded;
          Alcotest.test_case "retry policy" `Quick test_retry_policy;
        ] );
      ("lockfile", [ Alcotest.test_case "acquire, conflict, stale" `Quick test_lockfile ]);
      ( "server",
        [
          Alcotest.test_case "lifecycle over a unix socket" `Quick test_server_lifecycle;
          Alcotest.test_case "store warm start across restart" `Quick
            test_server_store_warm_start;
          Alcotest.test_case "degraded memo hit stays degraded" `Quick
            test_server_degraded_memo_hit;
          Alcotest.test_case "duplicate requests coalesce" `Quick
            test_server_coalesces_duplicates;
          Alcotest.test_case "overload sheds explicitly" `Quick
            test_server_overload_sheds_explicitly;
        ] );
    ]
