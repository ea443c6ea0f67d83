(* Tests for the telemetry layer (lib/obs) and its integration with the
   evaluation engine: disabled mode is free, merged counters and
   histograms are pool-size independent, the hand-rolled serializers
   emit valid JSON, and the evaluation caches report and reset their
   hit/miss statistics. *)

module Obs = Wr_obs.Obs
module Pool = Wr_util.Pool
module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module K = Wr_workload.Kernels

let cm = Cycle_model.Cycles_4

(* --- disabled mode ---------------------------------------------------------- *)

let nop () = ()

(* Top-level so the burst itself closes over nothing; any allocation
   measured below is the library's, not the test harness's. *)
let record_burst () =
  for _ = 1 to 10_000 do
    Obs.incr "disabled/counter";
    Obs.add "disabled/counter" 2;
    Obs.observe "disabled/hist" 3;
    Obs.runtime_add "disabled/rt_counter" 1;
    Obs.runtime_observe "disabled/rt_hist" 5;
    Obs.span "disabled/span" nop
  done

let test_disabled_is_free () =
  Obs.set_enabled false;
  Obs.reset ();
  record_burst ();
  (* warmed up *)
  let a0 = Gc.allocated_bytes () in
  record_burst ();
  let a1 = Gc.allocated_bytes () in
  (* The two [Gc.allocated_bytes] calls box their float results; allow
     that constant and nothing more.  60k recording calls that each
     allocated even one word would blow far past this. *)
  Alcotest.(check bool)
    (Printf.sprintf "no allocation when disabled (delta %.0f bytes)" (a1 -. a0))
    true
    (a1 -. a0 <= 256.0);
  let s = Obs.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length s.Obs.counters);
  Alcotest.(check int) "no histograms" 0 (List.length s.Obs.histograms);
  Alcotest.(check int) "no spans" 0 (List.length s.Obs.spans);
  Alcotest.(check int) "no events" 0 (List.length (Obs.events ()))

(* --- basic recording --------------------------------------------------------- *)

let with_enabled f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let test_record_and_snapshot () =
  with_enabled (fun () ->
      Obs.incr "a";
      Obs.add "a" 41;
      Obs.observe "h" 7;
      Obs.observe "h" 7;
      Obs.observe "h" 3;
      let v = Obs.span "s" (fun () -> 42) in
      Alcotest.(check int) "span returns f's value" 42 v;
      (match Obs.span "s" (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "span must re-raise");
      let s = Obs.snapshot () in
      Alcotest.(check int) "counter" 42 (List.assoc "a" s.Obs.counters);
      Alcotest.(check bool) "histogram" true ([ (3, 1); (7, 2) ] = List.assoc "h" s.Obs.histograms);
      let st = List.assoc "s" s.Obs.spans in
      Alcotest.(check int) "span count includes exceptional exit" 2 st.Obs.span_count;
      Alcotest.(check int) "two events" 2 (List.length (Obs.events ()));
      Obs.reset ();
      let s = Obs.snapshot () in
      Alcotest.(check int) "reset clears counters" 0 (List.length s.Obs.counters);
      Alcotest.(check int) "reset clears events" 0 (List.length (Obs.events ())))

(* --- clamped histograms ------------------------------------------------------ *)

let test_observe_clamped_overflow () =
  with_enabled (fun () ->
      Obs.observe_clamped "clamped" ~top:8 3;
      Obs.observe_clamped "clamped" ~top:8 8;
      (* Everything above [top] lands in one overflow bin at [top + 1]:
         no count is lost, however extreme the value. *)
      Obs.observe_clamped "clamped" ~top:8 9;
      Obs.observe_clamped "clamped" ~top:8 100_000;
      (* Cross-domain merge sums the overflow bin like any other. *)
      let d = Domain.spawn (fun () -> Obs.observe_clamped "clamped" ~top:8 500) in
      Domain.join d;
      let bins = List.assoc "clamped" (Obs.snapshot ()).Obs.histograms in
      Alcotest.(check bool) "exact bins kept, overflow merged at top+1" true
        ([ (3, 1); (8, 1); (9, 3) ] = bins);
      Alcotest.(check int) "no count lost" 5
        (List.fold_left (fun acc (_, c) -> acc + c) 0 bins))

(* --- determinism across pool sizes ------------------------------------------- *)

(* The determinism contract: counters and histograms merge by summation
   over per-domain sinks, so a study produces identical merged values
   for any pool size.  Span timings and the per-lane runtime section
   are placement-dependent and excluded. *)
let test_merged_metrics_pool_size_independent () =
  let loops = Wr_workload.Suite.sample 30 in
  let grid = [ (2, 2, 32); (4, 1, 64) ] in
  let study pool =
    Core.Evaluate.clear_cache ();
    Obs.reset ();
    List.iter
      (fun (x, y, z) ->
        let c = Config.xwy ~registers:z ~x ~y () in
        ignore (Core.Evaluate.suite_on ~pool ~suite_id:"obs-det30" c ~cycle_model:cm ~registers:z loops))
      grid;
    let s = Obs.snapshot () in
    (s.Obs.counters, s.Obs.histograms)
  in
  with_enabled (fun () ->
      let p1 = Pool.create ~jobs:1 () in
      let p4 = Pool.create ~jobs:4 () in
      Fun.protect
        ~finally:(fun () ->
          Pool.shutdown p1;
          Pool.shutdown p4;
          Core.Evaluate.clear_cache ())
        (fun () ->
          let c1, h1 = study p1 in
          let c4, h4 = study p4 in
          Alcotest.(check bool) "some counters recorded" true (c1 <> []);
          Alcotest.(check bool) "some histograms recorded" true (h1 <> []);
          Alcotest.(check bool) "merged counters identical at jobs 1 and 4" true (c1 = c4);
          Alcotest.(check bool) "merged histograms identical at jobs 1 and 4" true (h1 = h4)))

(* --- JSON validity ----------------------------------------------------------- *)

(* Minimal strict JSON recognizer.  The serializers are hand-rolled
   (no JSON library in the build), so validity is asserted against an
   independently written grammar rather than by trusting their output
   shape. *)
let check_json label s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "%s: invalid JSON at offset %d: %s" label !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let skip_ws () =
    while match peek () with Some (' ' | '\t' | '\n' | '\r') -> true | _ -> false do
      advance ()
    done
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') ->
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done;
              go ()
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "unescaped control character"
      | Some _ ->
          advance ();
          go ()
    in
    go ()
  in
  let digits () =
    let saw = ref false in
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      saw := true;
      advance ()
    done;
    if not !saw then fail "expected digit"
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    digits ();
    (match peek () with
    | Some '.' ->
        advance ();
        digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' -> (
        advance ();
        skip_ws ();
        match peek () with
        | Some '}' -> advance ()
        | _ ->
            let rec members () =
              skip_ws ();
              string_lit ();
              skip_ws ();
              expect ':';
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  members ()
              | Some '}' -> advance ()
              | _ -> fail "expected ',' or '}'"
            in
            members ())
    | Some '[' -> (
        advance ();
        skip_ws ();
        match peek () with
        | Some ']' -> advance ()
        | _ ->
            let rec elements () =
              value ();
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  elements ()
              | Some ']' -> advance ()
              | _ -> fail "expected ',' or ']'"
            in
            elements ())
    | Some '"' -> string_lit ()
    | Some 't' -> String.iter expect "true"
    | Some 'f' -> String.iter expect "false"
    | Some 'n' -> String.iter expect "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "expected a value");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let test_serializers_emit_valid_json () =
  with_enabled (fun () ->
      (* Names and args with every character class the escaper must
         handle: quote, backslash, newline, tab, a raw control byte,
         and multi-byte UTF-8 passed through as-is. *)
      Obs.incr "tricky \"name\" with \\ and \t";
      Obs.observe "hist/π" 3;
      Obs.observe "hist/π" (-2);
      Obs.span "stage/inner"
        ~args:[ ("msg", "quote\" back\\slash\nnewline \001ctl"); ("loop", "liv.7") ]
        nop;
      Obs.span "stage/outer" (fun () -> Obs.span "stage/inner" nop);
      let trace = Obs.trace_json () in
      let metrics = Obs.metrics_json () in
      check_json "trace_json" trace;
      check_json "metrics_json" metrics;
      (* Chrome trace shape: complete events plus lane-name metadata. *)
      let contains sub str =
        let ls = String.length sub and ln = String.length str in
        let rec at i = i + ls <= ln && (String.sub str i ls = sub || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "trace has complete events" true (contains "\"ph\": \"X\"" trace);
      Alcotest.(check bool) "trace names lanes" true (contains "thread_name" trace);
      Alcotest.(check bool) "metrics has counters" true (contains "\"counters\"" metrics);
      Alcotest.(check bool) "metrics has runtime section" true (contains "\"runtime\"" metrics))

(* --- evaluation cache statistics --------------------------------------------- *)

let test_cache_stats_count_and_reset () =
  Core.Evaluate.clear_cache ();
  let z = Core.Evaluate.cache_stats `Loop in
  Alcotest.(check bool) "loop stats start at zero" true (z.Core.Evaluate.hits = 0 && z.misses = 0);
  let loop = K.daxpy () in
  let c = Config.xwy ~registers:64 ~x:2 ~y:1 () in
  let eval () =
    ignore (Core.Evaluate.loop_cached ~suite_id:"obs-cache" ~index:0 c ~cycle_model:cm ~registers:64 loop)
  in
  eval ();
  eval ();
  eval ();
  let s = Core.Evaluate.cache_stats `Loop in
  Alcotest.(check int) "one loop miss" 1 s.Core.Evaluate.misses;
  Alcotest.(check int) "two loop hits" 2 s.Core.Evaluate.hits;
  let loops = [| loop |] in
  let run () =
    ignore (Core.Evaluate.suite_on ~suite_id:"obs-cache-suite" c ~cycle_model:cm ~registers:64 loops)
  in
  run ();
  run ();
  let s = Core.Evaluate.cache_stats `Suite in
  Alcotest.(check int) "one suite miss" 1 s.Core.Evaluate.misses;
  Alcotest.(check int) "one suite hit" 1 s.Core.Evaluate.hits;
  Core.Evaluate.clear_cache ();
  let s_loop = Core.Evaluate.cache_stats `Loop in
  let s_suite = Core.Evaluate.cache_stats `Suite in
  Alcotest.(check bool) "clear_cache resets both levels" true
    (s_loop.Core.Evaluate.hits = 0 && s_loop.misses = 0 && s_suite.hits = 0 && s_suite.misses = 0)

(* --- the environment sizes nothing ------------------------------------------ *)

(* Only [--jobs] ([Pool.set_default_jobs]) sizes the pool: a WR_JOBS
   left in the shell changes nothing. *)
let test_env_does_not_size_pool () =
  let saved = Option.value ~default:"" (Sys.getenv_opt "WR_JOBS") in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "WR_JOBS" saved)
    (fun () ->
      Unix.putenv "WR_JOBS" "3";
      Alcotest.(check int) "core count" (Domain.recommended_domain_count ())
        (Pool.default_jobs ()))

let () =
  Alcotest.run "obs"
    [
      ( "disabled",
        [ Alcotest.test_case "recording is free and records nothing" `Quick test_disabled_is_free ] );
      ( "recording",
        [ Alcotest.test_case "counters, histograms, spans, reset" `Quick test_record_and_snapshot;
          Alcotest.test_case "clamped histograms keep overflow counts" `Quick
            test_observe_clamped_overflow ] );
      ( "determinism",
        [
          Alcotest.test_case "merged metrics identical at jobs 1 vs 4" `Quick
            test_merged_metrics_pool_size_independent;
        ] );
      ("json", [ Alcotest.test_case "trace and metrics are valid JSON" `Quick test_serializers_emit_valid_json ]);
      ( "cache",
        [ Alcotest.test_case "cache_stats counts and clear_cache resets" `Quick test_cache_stats_count_and_reset ]
      );
      ( "env",
        [ Alcotest.test_case "the environment does not size the pool" `Quick
            test_env_does_not_size_pool ] );
    ]
