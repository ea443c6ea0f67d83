(* Golden-file tests: the figure CSVs regenerate bit-identically.

   The files under golden/ were produced by the bench harness
   ([bench/main.exe fig2|fig3|fig9 -s 120 --csv ...]) on the seed
   implementation and are compiled in as {!Golden_data} (a rule in
   test/dune), so no file is read at run time; the studies here rebuild
   the same CSV strings through {!Core.Csv_export} — the builders the
   harness itself uses — on the same deterministic 120-loop sample.
   Any change to the scheduler, allocator, cost model or CSV format
   that perturbs a single byte of the figures fails these tests. *)

let loops = lazy (Wr_workload.Suite.sample 120)

let suite_id = "sample120"

let check_golden name expected actual =
  Alcotest.(check string) (name ^ ".csv bit-identical") expected actual

let test_fig2 () =
  let t = Core.Peak_study.run (Lazy.force loops) in
  check_golden "fig2" Golden_data.fig2
    (Core.Csv_export.to_string ~header:Core.Csv_export.fig2_header
       (Core.Csv_export.fig2_rows t))

let test_fig3 () =
  let t = Core.Spill_study.run ~suite_id (Lazy.force loops) in
  check_golden "fig3" Golden_data.fig3
    (Core.Csv_export.to_string ~header:Core.Csv_export.fig3_header
       (Core.Csv_export.fig3_rows t))

let test_fig9 () =
  let t = Core.Tradeoff.figure9 ~suite_id (Lazy.force loops) in
  check_golden "fig9" Golden_data.fig9
    (Core.Csv_export.to_string ~header:Core.Csv_export.fig9_header
       (Core.Csv_export.fig9_rows t))

(* Per-family splits: the synthetic family is the sampled suite itself
   (and shares its evaluation cache), "real" is the hand-written kernel
   family.  Sample kept at 120 to match the harness smoke run. *)
let families = lazy (Wr_workload.Suite.families_for ~sample:(Some 120))

let test_fig3_families () =
  let fams = Core.Spill_study.run_families ~suite_id (Lazy.force families) in
  check_golden "fig3_families" Golden_data.fig3_families
    (Core.Csv_export.to_string ~header:Core.Csv_export.fig3_families_header
       (Core.Csv_export.fig3_families_rows fams))

let test_fig9_families () =
  let fams = Core.Tradeoff.figure9_families ~suite_id (Lazy.force families) in
  check_golden "fig9_families" Golden_data.fig9_families
    (Core.Csv_export.to_string ~header:Core.Csv_export.fig9_families_header
       (Core.Csv_export.fig9_families_rows fams))

let () =
  Alcotest.run "golden"
    [
      ( "figures",
        [
          Alcotest.test_case "fig2" `Slow test_fig2;
          Alcotest.test_case "fig3" `Slow test_fig3;
          Alcotest.test_case "fig9" `Slow test_fig9;
          Alcotest.test_case "fig3 families" `Slow test_fig3_families;
          Alcotest.test_case "fig9 families" `Slow test_fig9_families;
        ] );
    ]
