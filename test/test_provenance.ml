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

(* --- the point hash and the store keys ---------------------------------- *)

let hex = Ledger.hex64

let test_fnv1a64_known_answers () =
  List.iter
    (fun (s, h) ->
      Alcotest.(check string) (Printf.sprintf "fnv1a64 %S" s) h (hex (Ledger.fnv1a64 s)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ]

let test_fnv1a64_fold_streams () =
  let s = Provenance.loop_body loops.(0) in
  let whole = Ledger.fnv1a64 s in
  for k = 0 to String.length s do
    let prefix = String.sub s 0 k and rest = String.sub s k (String.length s - k) in
    if Ledger.fnv1a64_fold (Ledger.fnv1a64 prefix) rest <> whole then
      Alcotest.failf "folding split at offset %d differs from hashing whole" k
  done

(* Hashes computed by the earlier single-pass rendering: stores and
   ledgers written by earlier builds must keep their keys. *)
let test_point_hash_pinned () =
  let sample6 = Wr_workload.Suite.sample 6 in
  let config = Config.xwy ~registers:128 ~x:4 ~y:2 () in
  List.iteri
    (fun index expected ->
      let loop = sample6.(index) in
      let h =
        Provenance.point_hash ~suite_id:"sample6" ~index ~config ~registers:128 ~cycle_model:cm
          loop
      in
      Alcotest.(check string) (Printf.sprintf "sample6 loop %d" index) expected (hex h);
      Alcotest.(check string) "header then body" expected
        (hex
           (Provenance.point_hash_of_body ~suite_id:"sample6" ~index ~config ~registers:128
              ~cycle_model:cm (Provenance.loop_body loop))))
    [ "2b7690cb8cee204c"; "347a4afeacb4d3ff"; "c41a2d9a7ca5e1c8" ]

let with_tmp_dir f =
  let dir = Filename.temp_file "wr-prov-test" ".d" in
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
    (fun () -> f (Filename.concat dir "store"))

(* Every stored key of a small study is the point hash of its point
   (backend-mixed under a non-default backend), and nothing else is
   stored. *)
let check_study_keys ~suite_id ~key =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let study = Array.sub loops 0 4 in
  let configs = [ cfg; Config.xwy ~registers:32 ~x:4 ~y:1 () ] in
  ignore (Evaluate.attach_store dir);
  Fun.protect ~finally:Evaluate.detach_store (fun () ->
      List.iter
        (fun c ->
          ignore
            (Evaluate.suite_on ~suite_id c ~cycle_model:cm ~registers:c.Config.registers study))
        configs);
  let st, _ = Core.Store.open_dir dir in
  Fun.protect ~finally:(fun () -> Core.Store.close st) @@ fun () ->
  Alcotest.(check int) "one entry per point" (List.length configs * Array.length study)
    (Core.Store.length st);
  List.iter
    (fun (c : Config.t) ->
      Array.iteri
        (fun index loop ->
          let h =
            Provenance.point_hash ~suite_id ~index ~config:c ~registers:c.Config.registers
              ~cycle_model:cm loop
          in
          let r =
            (Evaluate.loop_cached ~suite_id ~index c ~cycle_model:cm
               ~registers:c.Config.registers loop)
              .Evaluate.result
          in
          match Core.Store.find st (key h) with
          | None -> Alcotest.failf "%s loop %d: not stored under its key" (Config.label c) index
          | Some e ->
              Alcotest.(check int) "stored II is the point's" r.Evaluate.ii e.Core.Store.ii)
        study)
    configs

let test_store_keys_are_point_hashes () = check_study_keys ~suite_id:"prov-keys" ~key:Fun.id

let test_store_keys_exact_backend () =
  let saved = Wr_sched.Backend.current () in
  Fun.protect ~finally:(fun () -> Wr_sched.Backend.set saved) @@ fun () ->
  Wr_sched.Backend.set Wr_sched.Backend.Exact;
  check_study_keys ~suite_id:"prov-keys-exact" ~key:(fun h ->
      Ledger.fnv1a64 (Printf.sprintf "%Lx backend=exact" h))

(* The rendered body is cached per (suite, index); a different loop
   passed under the same name must still be keyed by its own body. *)
let test_store_key_follows_the_loop_passed () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let c2 = Config.xwy ~registers:32 ~x:4 ~y:1 () in
  let points = [ (cfg, loops.(0)); (c2, loops.(1)) ] in
  ignore (Evaluate.attach_store dir);
  Fun.protect ~finally:Evaluate.detach_store (fun () ->
      List.iter
        (fun ((c : Config.t), loop) ->
          ignore
            (Evaluate.loop_cached ~suite_id:"prov-alias" ~index:0 c ~cycle_model:cm
               ~registers:c.Config.registers loop))
        points);
  let st, _ = Core.Store.open_dir dir in
  Fun.protect ~finally:(fun () -> Core.Store.close st) @@ fun () ->
  List.iter
    (fun ((c : Config.t), loop) ->
      let h =
        Provenance.point_hash ~suite_id:"prov-alias" ~index:0 ~config:c
          ~registers:c.Config.registers ~cycle_model:cm loop
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s stored under its own point hash" loop.Wr_ir.Loop.name)
        true
        (Core.Store.find st h <> None))
    points

(* Partitions reach neither the resources nor the memo key, so a memo
   entry must not be named after whichever partition count reached it
   first: 2w2(128:2) and 2w2(128) are one entry, one ledger record and
   one store key, in either order. *)
let test_partitions_do_not_name_the_entry () =
  let parted = Config.xwy ~registers:128 ~partitions:2 ~x:2 ~y:2 () in
  let plain = Config.xwy ~registers:128 ~x:2 ~y:2 () in
  let eval order =
    List.iter
      (fun c ->
        ignore
          (Evaluate.loop_cached ~suite_id:"prov-parts" ~index:0 c ~cycle_model:cm
             ~registers:128 loops.(0)))
      order
  in
  let ledger order =
    with_clean_state @@ fun () ->
    Provenance.set_capture true;
    eval order;
    Provenance.records ()
  in
  let a = ledger [ parted; plain ] and b = ledger [ plain; parted ] in
  Alcotest.(check int) "one record" 1 (List.length a);
  Alcotest.(check bool) "same record in either order" true (a = b);
  Alcotest.(check (list string)) "named by the one-partition label" [ "2w2(128)" ]
    (List.map (fun (r : Provenance.t) -> r.Provenance.config) a);
  let answers ~fill ~ask =
    with_clean_state @@ fun () ->
    with_tmp_dir @@ fun dir ->
    ignore (Evaluate.attach_store dir);
    Fun.protect ~finally:Evaluate.detach_store (fun () -> eval fill);
    Evaluate.clear_cache ();
    ignore (Evaluate.attach_store dir);
    Fun.protect ~finally:Evaluate.detach_store @@ fun () ->
    let before = Evaluate.evaluations () in
    eval ask;
    Alcotest.(check int) "answered from the store" 0 (Evaluate.evaluations () - before)
  in
  answers ~fill:[ parted; plain ] ~ask:[ plain; parted ];
  answers ~fill:[ plain; parted ] ~ask:[ parted; plain ]

(* Three loops of the 120-loop sample that spill somewhere on Fig. 3's
   grid (synth_0072, synth_0486, synth_0828). *)
let spilling_loops =
  let s = Wr_workload.Suite.sample 120 in
  [| s.(8); s.(54); s.(92) |]

(* The Fig. 3 ledger is the same whether the study evaluates its cells
   as one batch, sharing widened bodies and probes, or point by point;
   the shared probes' tallies are replayed into every point's record. *)
let test_batch_ledger_equals_points () =
  with_clean_state @@ fun () ->
  Provenance.set_capture true;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  with_tmp_file @@ fun batched ->
  with_tmp_file @@ fun pointwise ->
  ignore (Core.Spill_study.run ~suite_id:"prov-batch" spilling_loops);
  Provenance.write batched;
  let spilled =
    List.find_opt
      (fun (r : Provenance.t) ->
        r.Provenance.loop = "synth_0486" && r.Provenance.config = "4w2(64)")
      (Provenance.records ())
  in
  Evaluate.clear_cache ();
  Provenance.reset ();
  let eval config z =
    ignore
      (Evaluate.suite_on ~suite_id:"prov-batch" config ~cycle_model:cm ~registers:z
         spilling_loops)
  in
  eval (Config.xwy ~registers:256 ~x:1 ~y:1 ()) 256;
  List.iter
    (fun (x, y) ->
      List.iter (fun z -> eval (Config.xwy ~registers:z ~x ~y ()) z) [ 32; 64; 128; 256 ])
    [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4); (8, 1); (4, 2); (2, 4); (1, 8) ];
  Provenance.write pointwise;
  Alcotest.(check bool) "ledger bytes identical" true
    (String.equal (read batched) (read pointwise));
  match spilled with
  | None -> Alcotest.fail "no record for synth_0486 on 4w2(64)"
  | Some r ->
      Alcotest.(check int) "spill rounds" 1 r.Provenance.spill_rounds;
      Alcotest.(check int) "sched runs" 8 r.Provenance.sched_runs;
      Alcotest.(check int) "evictions" 16 r.Provenance.evictions

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
          Alcotest.test_case "fnv1a64 known answers" `Quick test_fnv1a64_known_answers;
          Alcotest.test_case "fnv1a64 folds split strings" `Quick test_fnv1a64_fold_streams;
          Alcotest.test_case "point hash pinned" `Quick test_point_hash_pinned;
          Alcotest.test_case "store keys are point hashes" `Quick
            test_store_keys_are_point_hashes;
          Alcotest.test_case "store keys under the exact backend" `Quick
            test_store_keys_exact_backend;
          Alcotest.test_case "store key follows the loop passed" `Quick
            test_store_key_follows_the_loop_passed;
          Alcotest.test_case "partitions do not name the entry" `Quick
            test_partitions_do_not_name_the_entry;
          Alcotest.test_case "batch ledger equals point by point" `Quick
            test_batch_ledger_equals_points;
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
