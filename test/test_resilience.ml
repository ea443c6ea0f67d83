(* Resilience layer: supervised evaluation (quarantine + degraded
   fallback), deterministic fault injection, cooperative budgets, and
   the crash-safe result store that resumes interrupted runs. *)

module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Evaluate = Core.Evaluate
module Store = Core.Store
module Fault = Wr_util.Fault
module Pool = Wr_util.Pool

let cm = Cycle_model.Cycles_4

let cfg = Config.xwy ~registers:64 ~x:2 ~y:2 ()

let loops = Wr_workload.Suite.sample 6

(* Each test starts from a clean slate and leaves one behind: the
   supervision knobs are process-global. *)
let fresh () =
  Fault.configure [];
  Evaluate.set_strict false;
  Evaluate.set_loop_budget_ms None;
  Evaluate.detach_store ();
  Evaluate.reset_quarantine ();
  Evaluate.clear_cache ()

let with_clean_state f = fresh (); Fun.protect ~finally:fresh f

let with_pool jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let raise_all_spec = { Fault.site = "widen"; prob = 1.0; seed = 0xFA17L; action = Fault.Raise }

let test_injection_degrades_not_kills () =
  with_clean_state @@ fun () ->
  Fault.configure [ raise_all_spec ];
  with_pool 2 @@ fun pool ->
  let agg = Evaluate.suite_on ~pool ~suite_id:"res-degrade" cfg ~cycle_model:cm ~registers:64 loops in
  Alcotest.(check int) "every loop degraded" (Array.length loops) agg.Evaluate.unpipelined;
  Alcotest.(check int) "every point quarantined" (Array.length loops)
    (Evaluate.quarantined_count ());
  List.iter
    (fun (q : Evaluate.quarantine_record) ->
      Alcotest.(check string) "suite named" "res-degrade" q.Evaluate.q_suite;
      Alcotest.(check bool) "reason names the injection" true
        (String.length q.Evaluate.q_reason > 0))
    (Evaluate.quarantined ())

let test_no_context_no_injection () =
  with_clean_state @@ fun () ->
  Fault.configure [ raise_all_spec ];
  (* Direct loop_on runs outside any evaluation context: a stray
     WR_FAULT must not perturb CLI scheduling or unit tests. *)
  let r = Evaluate.loop_on cfg ~cycle_model:cm ~registers:64 loops.(0) in
  Alcotest.(check bool) "pipelined normally" true r.Evaluate.pipelined

let quarantined_indices () =
  List.map (fun (q : Evaluate.quarantine_record) -> q.Evaluate.q_index)
    (Evaluate.quarantined ())

let test_injection_deterministic_across_jobs () =
  with_clean_state @@ fun () ->
  Fault.configure [ { Fault.site = "sched"; prob = 0.4; seed = 0x5EEDL; action = Fault.Raise } ];
  let run jobs =
    Evaluate.clear_cache ();
    Evaluate.reset_quarantine ();
    with_pool jobs @@ fun pool ->
    let agg =
      Evaluate.suite_on ~pool ~suite_id:"res-det" cfg ~cycle_model:cm ~registers:64
        (Wr_workload.Suite.sample 12)
    in
    (agg, quarantined_indices ())
  in
  let agg1, q1 = run 1 in
  let agg4, q4 = run 4 in
  Alcotest.(check bool) "some but not all points faulted" true
    (q1 <> [] && List.length q1 < 12);
  Alcotest.(check (list int)) "same quarantined points at any pool size" q1 q4;
  Alcotest.(check bool) "bit-identical aggregate" true (agg1 = agg4)

let test_strict_mode_fails_fast () =
  with_clean_state @@ fun () ->
  Fault.configure [ raise_all_spec ];
  Evaluate.set_strict true;
  with_pool 2 @@ fun pool ->
  (match
     Evaluate.suite_on ~pool ~suite_id:"res-strict" cfg ~cycle_model:cm ~registers:64 loops
   with
  | _ -> Alcotest.fail "expected Batch_failure"
  | exception Pool.Batch_failure failures ->
      Alcotest.(check bool) "failures carry the injection" true
        (List.exists (fun (_, e, _) -> match e with Fault.Injected _ -> true | _ -> false)
           failures));
  Alcotest.(check int) "nothing quarantined in strict mode" 0 (Evaluate.quarantined_count ())

let test_budget_overrun_degrades () =
  with_clean_state @@ fun () ->
  (* A deterministic overrun: the widen-site fault spins 50ms, then the
     first cooperative check (II-escalation boundary) trips the 1ms
     budget.  No reliance on the scheduler actually being slow. *)
  Fault.configure
    [ { Fault.site = "widen"; prob = 1.0; seed = 1L; action = Fault.Delay_ms 50 } ];
  Evaluate.set_loop_budget_ms (Some 1);
  with_pool 2 @@ fun pool ->
  let small = Wr_workload.Suite.sample 3 in
  let agg = Evaluate.suite_on ~pool ~suite_id:"res-budget" cfg ~cycle_model:cm ~registers:64 small in
  Alcotest.(check int) "every loop degraded" (Array.length small) agg.Evaluate.unpipelined;
  Alcotest.(check int) "every point quarantined" (Array.length small)
    (Evaluate.quarantined_count ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* --- persistent content-addressed store -------------------------------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "wrs-test" ".d" in
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

let mk_entry i =
  {
    Store.hash = Int64.of_int (0x1000 + i);
    ii = 1 + (i mod 7);
    cycles_bits = Int64.bits_of_float (1.5 *. float_of_int i);
    required_regs = 8 + i;
    spill_stores = i mod 3;
    spill_loads = i mod 2;
    spill_rounds = i mod 2;
    pipelined = i mod 5 <> 0;
    mii = 1 + (i mod 7);
    trip_count = 10 + i;
  }

(* 10 entries at 4 records/segment: seg1 holds 0-3, seg2 holds 4-7,
   seg3 (newest, active) holds 8-9. *)
let seed_store dir =
  let t, _ = Store.open_dir ~segment_records:4 dir in
  for i = 0 to 9 do
    Store.add t (mk_entry i)
  done;
  Store.close t

let seg dir n = Filename.concat dir (Printf.sprintf "seg-%06d.wrs" n)

let check_present t ~present ~absent =
  List.iter
    (fun i ->
      match Store.find t (Int64.of_int (0x1000 + i)) with
      | Some e -> Alcotest.(check bool) (Printf.sprintf "entry %d intact" i) true (e = mk_entry i)
      | None -> Alcotest.failf "entry %d missing" i)
    present;
  List.iter
    (fun i ->
      if Store.find t (Int64.of_int (0x1000 + i)) <> None then
        Alcotest.failf "entry %d should be lost" i)
    absent

let range a b = List.init (b - a + 1) (fun i -> a + i)

let test_store_roundtrip () =
  with_tmp_dir @@ fun dir ->
  seed_store dir;
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "all entries recovered" 10 r.Store.entries;
  Alcotest.(check int) "three segments" 3 r.Store.segments;
  Alcotest.(check int) "nothing quarantined" 0 r.Store.quarantined_segments;
  Alcotest.(check int) "no torn tail" 0 r.Store.truncated_bytes;
  check_present t ~present:(range 0 9) ~absent:[];
  Store.add t (mk_entry 0);
  Alcotest.(check int) "duplicate hash ignored" 0 (Store.appended t);
  Store.close t

let corrupt_checksum path line_no =
  let lines = String.split_on_char '\n' (read_file path) in
  let lines =
    List.mapi
      (fun i l ->
        if i <> line_no - 1 then l
        else
          (* Flip the final checksum character; length is preserved so
             only the self-check can notice. *)
          let last = String.length l - 1 in
          String.sub l 0 last ^ if l.[last] = '0' then "1" else "0")
      lines
  in
  write_file path (String.concat "\n" lines)

let test_store_bit_flip_quarantines_suffix () =
  with_tmp_dir @@ fun dir ->
  seed_store dir;
  (* Damage record 2 of the sealed first segment (line 1 is the version
     header).  Recovery must park the damaged original, keep the intact
     prefix (entry 0), and leave the other segments untouched. *)
  corrupt_checksum (seg dir 1) 3;
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "damaged segment quarantined" 1 r.Store.quarantined_segments;
  Alcotest.(check int) "prefix + later segments survive" 7 r.Store.entries;
  check_present t ~present:(0 :: range 4 9) ~absent:(range 1 3);
  Store.close t;
  Alcotest.(check bool) "damaged original parked as evidence" true
    (Sys.file_exists (seg dir 1 ^ ".quarantined"))

let test_store_torn_tail_truncated () =
  with_tmp_dir @@ fun dir ->
  seed_store dir;
  (* Chop the newest segment mid-record, as a crash during a write
     would.  Recovery truncates the torn bytes and keeps the rest. *)
  let newest = seg dir 3 in
  let bytes = read_file newest in
  write_file newest (String.sub bytes 0 (String.length bytes - 7));
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check bool) "torn bytes truncated" true (r.Store.truncated_bytes > 0);
  Alcotest.(check int) "nothing quarantined" 0 r.Store.quarantined_segments;
  Alcotest.(check int) "only the torn record lost" 9 r.Store.entries;
  check_present t ~present:(range 0 8) ~absent:[ 9 ];
  Store.close t;
  (* The truncation is persistent: a second open is clean. *)
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "second open sees a clean store" 0 r.Store.truncated_bytes;
  Alcotest.(check int) "entries stable" 9 r.Store.entries;
  Store.close t

let test_store_stale_version_header () =
  with_tmp_dir @@ fun dir ->
  seed_store dir;
  (* A segment from some future format version must be quarantined
     whole, not misparsed. *)
  let s2 = read_file (seg dir 2) in
  write_file (seg dir 2)
    ("wrstore/9" ^ String.sub s2 (String.length Store.version_tag) (String.length s2 - String.length Store.version_tag));
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "stale-version segment quarantined" 1 r.Store.quarantined_segments;
  Alcotest.(check int) "other segments survive" 6 r.Store.entries;
  check_present t ~present:(range 0 3 @ range 8 9) ~absent:(range 4 7);
  Store.close t;
  Alcotest.(check bool) "stale original parked" true
    (Sys.file_exists (seg dir 2 ^ ".quarantined"))

let test_store_mixed_corruption () =
  with_tmp_dir @@ fun dir ->
  seed_store dir;
  corrupt_checksum (seg dir 1) 3;
  let s2 = read_file (seg dir 2) in
  write_file (seg dir 2)
    ("wrstore/9" ^ String.sub s2 (String.length Store.version_tag) (String.length s2 - String.length Store.version_tag));
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "both damaged segments quarantined" 2 r.Store.quarantined_segments;
  Alcotest.(check int) "intact prefix and newest survive" 3 r.Store.entries;
  check_present t ~present:(0 :: range 8 9) ~absent:(range 1 7);
  (* The recovered store keeps working: lost points re-append. *)
  Store.add t (mk_entry 1);
  Store.close t;
  let t, r = Store.open_dir ~segment_records:4 dir in
  Alcotest.(check int) "re-appended entry persisted" 4 r.Store.entries;
  check_present t ~present:[ 0; 1; 8; 9 ] ~absent:(range 2 7);
  Store.close t

let test_store_second_open_locked () =
  with_tmp_dir @@ fun dir ->
  let t, _ = Store.open_dir dir in
  (match Store.open_dir dir with
  | exception Store.Locked msg ->
      Alcotest.(check bool) "diagnostic names a pid" true
        (contains msg (string_of_int (Unix.getpid ())))
  | t2, _ ->
      Store.close t2;
      Alcotest.fail "second open succeeded");
  Store.close t;
  let t, _ = Store.open_dir dir in
  Store.close t

let test_store_compact_canonical_bytes () =
  with_tmp_dir @@ fun dir1 ->
  with_tmp_dir @@ fun dir2 ->
  (* Same entry set, opposite arrival orders, different segmentation:
     after compaction the files are byte-identical. *)
  let t1, _ = Store.open_dir ~segment_records:3 dir1 in
  for i = 0 to 19 do Store.add t1 (mk_entry i) done;
  Store.compact t1;
  Store.close t1;
  let t2, _ = Store.open_dir ~segment_records:7 dir2 in
  for i = 19 downto 0 do Store.add t2 (mk_entry i) done;
  Store.compact t2;
  Store.close t2;
  Alcotest.(check bool) "canonical segment bytes identical" true
    (read_file (seg dir1 1) = read_file (seg dir2 1));
  Alcotest.(check bool) "compacted to a single segment" false (Sys.file_exists (seg dir1 2));
  let t, r = Store.open_dir dir1 in
  Alcotest.(check int) "compaction lost nothing" 20 r.Store.entries;
  check_present t ~present:(range 0 19) ~absent:[];
  Store.close t

let test_store_warm_start_zero_evaluations () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  with_pool 2 @@ fun pool ->
  ignore (Evaluate.attach_store dir);
  let agg1 = Evaluate.suite_on ~pool ~suite_id:"res-store" cfg ~cycle_model:cm ~registers:64 loops in
  Evaluate.detach_store ();
  let evals = Evaluate.evaluations () in
  (* Cold caches, same store: every point must come back from disk with
     the scheduler never invoked. *)
  Evaluate.clear_cache ();
  let r = Evaluate.attach_store dir in
  Alcotest.(check int) "every point persisted" (Array.length loops) r.Store.entries;
  let agg2 = Evaluate.suite_on ~pool ~suite_id:"res-store" cfg ~cycle_model:cm ~registers:64 loops in
  Evaluate.detach_store ();
  Alcotest.(check int) "zero re-evaluations from the store" evals (Evaluate.evaluations ());
  Alcotest.(check bool) "bit-identical aggregate" true (agg1 = agg2);
  let s = Evaluate.cache_stats `Store in
  Alcotest.(check int) "every point a store hit" (Array.length loops) s.Evaluate.hits

let test_store_torn_tail_reevaluates_one_point () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  with_pool 2 @@ fun pool ->
  ignore (Evaluate.attach_store dir);
  let agg1 = Evaluate.suite_on ~pool ~suite_id:"res-torn" cfg ~cycle_model:cm ~registers:64 loops in
  Evaluate.detach_store ();
  (* Simulate a crash mid-write: chop the newest record in half.  The
     resumed run must keep the intact prefix and recompute exactly the
     lost point. *)
  let newest = seg dir 1 in
  let bytes = read_file newest in
  write_file newest (String.sub bytes 0 (String.length bytes - 7));
  Evaluate.clear_cache ();
  let r = Evaluate.attach_store dir in
  Alcotest.(check int) "one record lost to the torn tail" (Array.length loops - 1) r.Store.entries;
  let evals = Evaluate.evaluations () in
  let agg2 = Evaluate.suite_on ~pool ~suite_id:"res-torn" cfg ~cycle_model:cm ~registers:64 loops in
  Evaluate.detach_store ();
  Alcotest.(check int) "exactly one fresh evaluation" (evals + 1) (Evaluate.evaluations ());
  Alcotest.(check bool) "resumed run matches the uninterrupted one" true (agg1 = agg2)

let test_store_quarantined_points_not_stored () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  with_pool 2 @@ fun pool ->
  Fault.configure [ raise_all_spec ];
  ignore (Evaluate.attach_store dir);
  ignore (Evaluate.suite_on ~pool ~suite_id:"res-store-q" cfg ~cycle_model:cm ~registers:64 loops);
  Evaluate.detach_store ();
  Alcotest.(check int) "faulted run quarantined everything" (Array.length loops)
    (Evaluate.quarantined_count ());
  (* Degraded results must not poison the cross-run cache: the store is
     empty, and a healthy rerun computes and persists real results. *)
  Fault.configure [];
  Evaluate.reset_quarantine ();
  Evaluate.clear_cache ();
  let r = Evaluate.attach_store dir in
  Alcotest.(check int) "no degraded result persisted" 0 r.Store.entries;
  let agg = Evaluate.suite_on ~pool ~suite_id:"res-store-q" cfg ~cycle_model:cm ~registers:64 loops in
  Evaluate.detach_store ();
  Alcotest.(check int) "retried points now pipeline" 0 agg.Evaluate.unpipelined;
  let r = Evaluate.attach_store dir in
  Alcotest.(check int) "healthy results persisted" (Array.length loops) r.Store.entries;
  Evaluate.detach_store ()

let test_store_keyed_by_backend () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "store" in
  let saved = Wr_sched.Backend.current () in
  Fun.protect ~finally:(fun () -> Wr_sched.Backend.set saved) @@ fun () ->
  (* heat1d on 1w2: the exact lane proves II 34 where the heuristic
     stops at 35, so the two backends give different results. *)
  let loop = Wr_workload.Stencil.heat1d () in
  let cfg = Config.xwy ~registers:128 ~x:1 ~y:2 () in
  let eval () =
    (Evaluate.loop_cached ~suite_id:"res-backend" ~index:0 cfg ~cycle_model:cm ~registers:128
       loop)
      .Evaluate.result
  in
  Wr_sched.Backend.set Wr_sched.Backend.Heuristic;
  let heuristic = Evaluate.loop_on cfg ~cycle_model:cm ~registers:128 loop in
  Wr_sched.Backend.set Wr_sched.Backend.Exact;
  ignore (Evaluate.attach_store dir);
  let exact = eval () in
  Evaluate.detach_store ();
  Alcotest.(check bool) "exact lane improves the point" true
    (exact.Evaluate.ii < heuristic.Evaluate.ii);
  (* A heuristic run on the same store must not be answered with the
     exact schedule: the point misses and is evaluated afresh. *)
  Wr_sched.Backend.set Wr_sched.Backend.Heuristic;
  Evaluate.clear_cache ();
  ignore (Evaluate.attach_store dir);
  let evals = Evaluate.evaluations () in
  let r = eval () in
  let s = Evaluate.cache_stats `Store in
  Evaluate.detach_store ();
  Alcotest.(check int) "no store hit across backends" 0 s.Evaluate.hits;
  Alcotest.(check int) "one store miss" 1 s.Evaluate.misses;
  Alcotest.(check int) "evaluated afresh" (evals + 1) (Evaluate.evaluations ());
  Alcotest.(check int) "heuristic II returned" heuristic.Evaluate.ii r.Evaluate.ii

let test_store_jobs_independent_canonical_bytes () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun root ->
  let run jobs sub =
    Evaluate.clear_cache ();
    let dir = Filename.concat root sub in
    ignore (Evaluate.attach_store dir);
    with_pool jobs (fun pool ->
        ignore
          (Evaluate.suite_on ~pool ~suite_id:"res-store-jobs" cfg ~cycle_model:cm ~registers:64
             (Wr_workload.Suite.sample 12)));
    Evaluate.detach_store ();
    let t, _ = Store.open_dir dir in
    Store.compact t;
    Store.close t;
    read_file (Filename.concat dir "seg-000001.wrs")
  in
  let b1 = run 1 "j1" in
  let b4 = run 4 "j4" in
  Alcotest.(check bool) "jobs=1 and jobs=4 compact to identical bytes" true (b1 = b4)

let test_fault_parse () =
  (match Fault.parse "sched:0.01:0x5EED" with
  | Ok [ { Fault.site = "sched"; prob = 0.01; seed = 0x5EEDL; action = Fault.Raise } ] -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e);
  (match Fault.parse "widen:1:7:delay=25,spill:0.5:9" with
  | Ok
      [
        { Fault.site = "widen"; prob = 1.0; seed = 7L; action = Fault.Delay_ms 25 };
        { Fault.site = "spill"; prob = 0.5; seed = 9L; action = Fault.Raise };
      ] -> ()
  | Ok _ -> Alcotest.fail "wrong multi-spec parse"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "sched"; "sched:2.0:1"; "sched:-0.1:1"; "sched:0.5:notanumber"; "sched:0.5:1:delay=x" ]

let () =
  Alcotest.run "resilience"
    [
      ( "supervision",
        [
          Alcotest.test_case "injection degrades, run completes" `Quick
            test_injection_degrades_not_kills;
          Alcotest.test_case "no context, no injection" `Quick test_no_context_no_injection;
          Alcotest.test_case "deterministic across pool sizes" `Quick
            test_injection_deterministic_across_jobs;
          Alcotest.test_case "strict mode fails fast" `Quick test_strict_mode_fails_fast;
          Alcotest.test_case "budget overrun degrades" `Quick test_budget_overrun_degrades;
        ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip across segments" `Quick test_store_roundtrip;
          Alcotest.test_case "bit flip quarantines damaged suffix" `Quick
            test_store_bit_flip_quarantines_suffix;
          Alcotest.test_case "torn tail truncated" `Quick test_store_torn_tail_truncated;
          Alcotest.test_case "stale version header quarantined" `Quick
            test_store_stale_version_header;
          Alcotest.test_case "mixed intact and corrupt segments" `Quick
            test_store_mixed_corruption;
          Alcotest.test_case "second open fails loudly" `Quick test_store_second_open_locked;
          Alcotest.test_case "compaction is canonical" `Quick
            test_store_compact_canonical_bytes;
          Alcotest.test_case "warm start re-evaluates nothing" `Quick
            test_store_warm_start_zero_evaluations;
          Alcotest.test_case "torn tail re-evaluates one point" `Quick
            test_store_torn_tail_reevaluates_one_point;
          Alcotest.test_case "quarantined points not persisted" `Quick
            test_store_quarantined_points_not_stored;
          Alcotest.test_case "keyed by scheduler backend" `Quick
            test_store_keyed_by_backend;
          Alcotest.test_case "canonical bytes independent of jobs" `Quick
            test_store_jobs_independent_canonical_bytes;
        ] );
      ("spec", [ Alcotest.test_case "WR_FAULT parsing" `Quick test_fault_parse ]);
    ]
