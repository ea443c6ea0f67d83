(* Run ledger and decision provenance: per-point records are emitted
   exactly once, ledger files are byte-identical for any pool size and
   checksum-verified on load, the observatory classifies divergences
   between two runs, and the versioned bench schema round-trips the
   committed BENCH_*.json artifacts. *)

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Evaluate = Core.Evaluate
module Provenance = Core.Provenance
module Observatory = Core.Observatory
module B = Core.Bench_schema
module Ledger = Wr_obs.Ledger
module Fault = Wr_util.Fault
module Pool = Wr_util.Pool

let cm = Cycle_model.Cycles_4

let cfg = Config.xwy ~registers:64 ~x:2 ~y:2 ()

let loops = Wr_workload.Suite.sample 8

let fresh () =
  Fault.configure [];
  Provenance.set_capture false;
  Provenance.set_wall false;
  Provenance.reset ();
  Evaluate.reset_quarantine ();
  Evaluate.clear_cache ()

let with_clean_state f = fresh (); Fun.protect ~finally:fresh f

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let with_tmp_file f =
  let path = Filename.temp_file "wr_ledger" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains s sub = find_sub s sub <> None

let run_suite ~suite_id jobs =
  Evaluate.clear_cache ();
  Provenance.reset ();
  with_pool jobs @@ fun pool ->
  ignore (Evaluate.suite_on ~pool ~suite_id cfg ~cycle_model:cm ~registers:64 loops);
  Provenance.records ()

(* --- ledger files ---------------------------------------------------------- *)

let test_ledger_deterministic_across_jobs () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  with_tmp_file @@ fun p1 ->
  with_tmp_file @@ fun p4 ->
  ignore (run_suite ~suite_id:"prov-det" 1);
  Provenance.write p1;
  ignore (run_suite ~suite_id:"prov-det" 4);
  Provenance.write p4;
  Alcotest.(check bool) "ledger bytes identical for jobs 1 and 4" true
    (String.equal (read p1) (read p4));
  (* And the file round-trips: every record, every field. *)
  match Provenance.load p1 with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok records ->
      Alcotest.(check int) "one record per (loop, point)" (Array.length loops)
        (List.length records);
      List.iter
        (fun (r : Provenance.t) ->
          Alcotest.(check string) "suite" "prov-det" r.Provenance.suite;
          Alcotest.(check bool) "hash nonzero" true (r.Provenance.hash <> 0L);
          Alcotest.(check bool) "no wall time by default" true (r.Provenance.wall_us = None))
        records

let test_ledger_detects_corruption () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  ignore (run_suite ~suite_id:"prov-corrupt" 1);
  with_tmp_file @@ fun path ->
  Provenance.write path;
  let s = In_channel.with_open_bin path In_channel.input_all in
  (* Flip one digit inside a payload: the line checksum must catch it. *)
  let i =
    match find_sub s {|"cycles": |} with
    | Some i -> i + String.length {|"cycles": |}
    | None -> Alcotest.fail "no cycles field in the ledger"
  in
  let b = Bytes.of_string s in
  Bytes.set b i (if Bytes.get b i = '9' then '8' else '9');
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  match Provenance.load path with
  | Ok _ -> Alcotest.fail "corrupted ledger loaded"
  | Error e -> Alcotest.(check bool) "error is descriptive" true (String.length e > 0)

let test_point_hash_keys_full_input () =
  let loop = loops.(0) in
  let h ?(registers = 64) ?(index = 0) ?(suite_id = "s") () =
    Provenance.point_hash ~suite_id ~index ~config:cfg ~registers ~cycle_model:cm loop
  in
  Alcotest.(check bool) "stable" true (h () = h ());
  Alcotest.(check bool) "registers change the hash" true (h () <> h ~registers:32 ());
  Alcotest.(check bool) "index changes the hash" true (h () <> h ~index:1 ());
  Alcotest.(check bool) "suite changes the hash" true (h () <> h ~suite_id:"t" ())

let test_wall_opt_in () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  Provenance.set_wall true;
  let records = run_suite ~suite_id:"prov-wall" 1 in
  Alcotest.(check bool) "wall time present when opted in" true
    (List.for_all (fun (r : Provenance.t) -> r.Provenance.wall_us <> None) records)

(* --- quarantine provenance -------------------------------------------------- *)

let test_quarantine_tag_in_provenance () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  Fault.configure [ { Fault.site = "widen"; prob = 1.0; seed = 0xFA17L; action = Fault.Raise } ];
  let records = run_suite ~suite_id:"prov-quar" 2 in
  Alcotest.(check int) "every point still recorded" (Array.length loops)
    (List.length records);
  List.iter
    (fun (r : Provenance.t) ->
      Alcotest.(check bool) "marked quarantined" true r.Provenance.quarantined;
      Alcotest.(check bool) "carries the exception tag" true
        (String.length r.Provenance.tag > 0);
      Alcotest.(check bool) "degraded points are unpipelined" false r.Provenance.pipelined)
    records

(* --- observatory ------------------------------------------------------------ *)

let base_records () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  run_suite ~suite_id:"prov-diff" 1

let test_self_diff_empty () =
  let records = base_records () in
  let ds = Observatory.diff records records in
  Alcotest.(check int) "self-diff has no divergences" 0 (List.length ds);
  Alcotest.(check bool) "no regressions" false (Observatory.has_regressions ds);
  Alcotest.(check string) "render" "no divergences\n" (Observatory.render_diff ds)

let test_diff_classification () =
  let records = base_records () in
  match records with
  | r0 :: r1 :: r2 :: rest ->
      let perturbed =
        { r0 with Provenance.cycles = r0.Provenance.cycles *. 2.0 }
        :: { r1 with Provenance.ii = r1.Provenance.ii + 1 }
        :: { r2 with Provenance.quarantined = true; tag = "Injected" }
        :: List.tl rest
        (* drop one record: it must surface as vanished *)
      in
      let ds = Observatory.diff records perturbed in
      let classes = List.map (fun d -> d.Observatory.d_class) ds in
      let has c = List.mem c classes in
      Alcotest.(check bool) "cycles regression flagged" true (has "cycles_regression");
      Alcotest.(check bool) "II change flagged" true (has "ii_changed");
      Alcotest.(check bool) "quarantine flagged" true (has "verdict_changed");
      Alcotest.(check bool) "vanished point flagged" true (has "vanished");
      Alcotest.(check bool) "regressions gate" true (Observatory.has_regressions ds);
      (* The same doubled cycles pass under a generous threshold. *)
      let lenient =
        Observatory.diff ~threshold_pct:150.0 records
          [ { r0 with Provenance.cycles = r0.Provenance.cycles *. 2.0 } ]
      in
      Alcotest.(check bool) "threshold suppresses the cycles class" true
        (not
           (List.exists
              (fun d -> d.Observatory.d_class = "cycles_regression")
              lenient))
  | _ -> Alcotest.fail "suite too small"

let test_improvements_are_benign () =
  let records = base_records () in
  match records with
  | r0 :: _ ->
      let ds =
        Observatory.diff [ r0 ]
          [ { r0 with Provenance.cycles = r0.Provenance.cycles /. 2.0 } ]
      in
      Alcotest.(check int) "one divergence" 1 (List.length ds);
      Alcotest.(check bool) "improvement does not gate" false
        (Observatory.has_regressions ds);
      (* A point appearing in the new run only is likewise benign. *)
      let appeared = Observatory.diff [] [ r0 ] in
      Alcotest.(check bool) "appeared is benign" false
        (Observatory.has_regressions appeared)
  | _ -> Alcotest.fail "suite too small"

let test_report_renders () =
  let records = base_records () in
  let s = Observatory.report records in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true
        (contains s needle))
    [ "prov-diff"; "II over MII"; "Backend breakdown"; "heuristic"; "slowest" ]

(* --- bench schema ------------------------------------------------------------ *)

let bench_files = [ "BENCH_gap.json" ]

let bench_path name = Filename.concat "../" name

let test_bench_schema_roundtrip () =
  List.iter
    (fun name ->
      match B.load_file (bench_path name) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok j -> (
          (match B.validate j with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s invalid: %s" name e);
          (* Print and re-parse: the value survives, numbers verbatim. *)
          match B.parse (B.to_file_string j) with
          | Error e -> Alcotest.failf "%s re-parse: %s" name e
          | Ok j2 ->
              Alcotest.(check string)
                (name ^ " round-trips")
                (B.to_string j) (B.to_string j2)))
    bench_files

let test_bench_diff_gap () =
  let row family loop config heur_ii exact_ii status =
    B.Obj
      [
        ("family", B.str family); ("loop", B.str loop); ("config", B.str config);
        ("mii", B.int 2); ("heur_ii", B.int heur_ii); ("exact_ii", B.int exact_ii);
        ("gap", B.int (heur_ii - exact_ii)); ("status", B.str status); ("nodes", B.int 5);
      ]
  in
  let artifact rows =
    B.envelope ~kind:"gap"
      [
        ("suite", B.str "t"); ("points", B.int (List.length rows));
        ("proved_optimal", B.int 0); ("rows", B.List rows);
      ]
  in
  let old_j = artifact [ row "f" "l1" "2w1" 3 3 "proved_optimal"; row "f" "l2" "2w1" 4 3 "proved_optimal" ] in
  let new_j = artifact [ row "f" "l1" "2w1" 4 3 "improved_unproved"; row "f" "l2" "2w1" 4 3 "proved_optimal" ] in
  match Observatory.diff_bench old_j new_j with
  | Error e -> Alcotest.failf "diff_bench: %s" e
  | Ok ds ->
      Alcotest.(check bool) "heuristic II increase gates" true
        (Observatory.has_regressions ds);
      Alcotest.(check bool) "status weakening classified" true
        (List.exists (fun d -> d.Observatory.d_class = "verdict_changed") ds);
      (* Self-diff of either artifact is empty. *)
      (match Observatory.diff_bench old_j old_j with
      | Ok [] -> ()
      | Ok ds -> Alcotest.failf "self-diff: %d divergence(s)" (List.length ds)
      | Error e -> Alcotest.failf "self-diff: %s" e)

let test_bench_diff_kind_mismatch () =
  let sched =
    B.envelope ~kind:"sched"
      [ ("suite", B.str "t"); ("reps", B.int 1); ("loops", B.List []); ("total_s", B.float 0.0) ]
  in
  let gap =
    B.envelope ~kind:"gap"
      [ ("suite", B.str "t"); ("points", B.int 0); ("proved_optimal", B.int 0);
        ("rows", B.List []) ]
  in
  match Observatory.diff_bench sched gap with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kind mismatch accepted"

(* --- raw ledger line discipline ---------------------------------------------- *)

let test_ledger_line_roundtrip () =
  with_tmp_file @@ fun path ->
  let header = {|{"schema": "test/1"}|} in
  let payloads = [ {|{"a": 1}|}; {|{"b": [1, 2]}|} ] in
  Ledger.write ~path ~header ~records:payloads;
  (match Ledger.load path with
  | Error e -> Alcotest.failf "load: %s" e
  | Ok (h, ps) ->
      Alcotest.(check string) "header" header h;
      Alcotest.(check (list string)) "payloads" payloads ps);
  (* Truncate mid-line: strict load refuses the file. *)
  let s = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub s 0 (String.length s - 3)));
  match Ledger.load path with
  | Ok _ -> Alcotest.fail "torn ledger loaded"
  | Error _ -> ()

let () =
  Alcotest.run "provenance"
    [
      ( "ledger",
        [
          Alcotest.test_case "byte-identical across pool sizes" `Quick
            test_ledger_deterministic_across_jobs;
          Alcotest.test_case "corruption detected on load" `Quick
            test_ledger_detects_corruption;
          Alcotest.test_case "point hash keys the full input" `Quick
            test_point_hash_keys_full_input;
          Alcotest.test_case "wall time is opt-in" `Quick test_wall_opt_in;
          Alcotest.test_case "line discipline round-trips" `Quick
            test_ledger_line_roundtrip;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "exception tag flows into provenance" `Quick
            test_quarantine_tag_in_provenance;
        ] );
      ( "observatory",
        [
          Alcotest.test_case "self-diff empty" `Quick test_self_diff_empty;
          Alcotest.test_case "divergence classification" `Quick test_diff_classification;
          Alcotest.test_case "improvements are benign" `Quick test_improvements_are_benign;
          Alcotest.test_case "report renders" `Quick test_report_renders;
        ] );
      ( "bench-schema",
        [
          Alcotest.test_case "committed artifacts round-trip" `Quick
            test_bench_schema_roundtrip;
          Alcotest.test_case "gap diff classification" `Quick test_bench_diff_gap;
          Alcotest.test_case "kind mismatch rejected" `Quick test_bench_diff_kind_mismatch;
        ] );
    ]
