(* Tests for wr_cost: SIA data, register-cell geometry (exact Table 2),
   area (exact Table 3), access time (Table 4 within fitted tolerance),
   partitioning, implementability and code size. *)

module Config = Wr_machine.Config
module Sia = Wr_cost.Sia
module Register_cell = Wr_cost.Register_cell
module Area = Wr_cost.Area
module Access_time = Wr_cost.Access_time
module Code_size = Wr_cost.Code_size

let test_sia_table1 () =
  Alcotest.(check int) "five generations" 5 (List.length Sia.generations);
  (match Sia.by_year 1998 with
  | Some g ->
      Alcotest.(check (float 1e-9)) "lambda" 0.25 g.Sia.lambda_um;
      Alcotest.(check (float 1.0)) "capacity" 4800.0e6 g.Sia.lambda2_per_chip
  | None -> Alcotest.fail "1998 missing");
  Alcotest.(check bool) "unknown year" true (Sia.by_year 1999 = None)

let test_register_cell_exact_table2 () =
  (* The model must reproduce every published cell exactly. *)
  List.iter
    (fun ((r, w), (pw, ph)) ->
      let d = Register_cell.dimensions ~reads:r ~writes:w in
      Alcotest.(check (float 0.51))
        (Printf.sprintf "width %dR%dW" r w)
        (float_of_int pw) d.Register_cell.width;
      Alcotest.(check (float 0.51))
        (Printf.sprintf "height %dR%dW" r w)
        (float_of_int ph) d.Register_cell.height)
    Register_cell.paper_table

let test_register_cell_monotone () =
  (* More ports never shrink the cell. *)
  let area r w = Register_cell.area ~reads:r ~writes:w in
  let prev = ref 0.0 in
  List.iter
    (fun (r, w) ->
      let a = area r w in
      Alcotest.(check bool) "monotone" true (a >= !prev);
      prev := a)
    [ (1, 1); (2, 1); (5, 3); (10, 6); (20, 12); (40, 24); (80, 48) ]

let test_register_cell_rejects () =
  Alcotest.(check bool) "rejects zero ports" true
    (try
       ignore (Register_cell.dimensions ~reads:0 ~writes:1);
       false
     with Invalid_argument _ -> true)

let test_area_table3 () =
  (* Table 3: total RF area for 64 registers. *)
  let check x y expected_millions =
    let c = Config.xwy ~registers:64 ~x ~y () in
    let area = Area.rf_area c /. 1e6 in
    Alcotest.(check bool)
      (Printf.sprintf "%dw%d area %.0f ~ %.0f" x y area expected_millions)
      true
      (Float.abs (area -. expected_millions) /. expected_millions < 0.01)
  in
  check 4 1 598.0;
  check 2 2 375.0;
  check 1 4 215.0

let test_area_fpu () =
  let c = Config.xwy ~x:1 ~y:1 () in
  (* 2 scalar FPUs at 192e6 each. *)
  Alcotest.(check (float 1.0)) "fpu area" 384.0e6 (Area.fpu_area c);
  let w4 = Config.xwy ~x:1 ~y:4 () in
  Alcotest.(check (float 1.0)) "width scales fpus" (4.0 *. 384.0e6) (Area.fpu_area w4)

let test_area_same_fpu_cost_at_equal_factor () =
  (* Paper, Table 3 note: 4w1, 2w2 and 1w4 need the same FPU hardware. *)
  let a = Area.fpu_area (Config.xwy ~x:4 ~y:1 ()) in
  let b = Area.fpu_area (Config.xwy ~x:2 ~y:2 ()) in
  let c = Area.fpu_area (Config.xwy ~x:1 ~y:4 ()) in
  Alcotest.(check (float 1.0)) "4w1=2w2" a b;
  Alcotest.(check (float 1.0)) "2w2=1w4" b c

let test_area_replication_costs_more_than_widening () =
  (* At equal factor and register count, the RF of the replicated
     machine is the most expensive (more ports per cell). *)
  let rf x y = Area.rf_area (Config.xwy ~registers:64 ~x ~y ()) in
  Alcotest.(check bool) "4w1 > 2w2" true (rf 4 1 > rf 2 2);
  Alcotest.(check bool) "2w2 > 1w4" true (rf 2 2 > rf 1 4)

let test_access_time_table4_tolerance () =
  (* The fitted model reproduces the 60 published entries within 10%
     each and 5% rms. *)
  let pairs = Core.Cost_tables.table4_pairs () in
  Alcotest.(check int) "60 entries" 60 (List.length pairs);
  let sq_sum = ref 0.0 in
  List.iter
    (fun ((x, y, z), model, paper) ->
      let rel = Float.abs (model -. paper) /. paper in
      sq_sum := !sq_sum +. (rel *. rel);
      Alcotest.(check bool)
        (Printf.sprintf "%dw%d/%d: %.2f vs %.2f" x y z model paper)
        true (rel < 0.10))
    pairs;
  let rms = sqrt (!sq_sum /. 60.0) in
  Alcotest.(check bool) (Printf.sprintf "rms %.3f < 0.05" rms) true (rms < 0.05)

let test_access_time_baseline_is_one () =
  Alcotest.(check (float 1e-9)) "baseline" 1.0
    (Access_time.relative (Config.xwy ~registers:32 ~x:1 ~y:1 ()))

let test_access_time_monotone_in_registers () =
  List.iter
    (fun (x, y) ->
      let t z = Access_time.relative (Config.xwy ~registers:z ~x ~y ()) in
      Alcotest.(check bool) "32<64" true (t 32 < t 64);
      Alcotest.(check bool) "64<128" true (t 64 < t 128);
      Alcotest.(check bool) "128<256" true (t 128 < t 256))
    [ (1, 1); (4, 2); (1, 8) ]

let test_access_time_partitioning_faster_but_bigger () =
  (* Figure 6: partitioning an 8w1 64-RF trades area for speed. *)
  let at n = Config.xwy ~registers:64 ~partitions:n ~x:8 ~y:1 () in
  let t n = Access_time.raw_time (at n) in
  let a n = Area.rf_area (at n) in
  List.iter
    (fun (n, m) ->
      Alcotest.(check bool) (Printf.sprintf "time %d > %d" n m) true (t n > t m);
      Alcotest.(check bool) (Printf.sprintf "area %d < %d" n m) true (a n < a m))
    [ (1, 2); (2, 4); (4, 8) ];
  (* Magnitudes: 8 partitions roughly double the area and roughly halve
     the access time (paper's Figure 6 shape). *)
  Alcotest.(check bool) "area growth in [1.5, 3.5]" true
    (a 8 /. a 1 > 1.5 && a 8 /. a 1 < 3.5);
  Alcotest.(check bool) "time reduction in [0.4, 0.7]" true
    (t 8 /. t 1 > 0.4 && t 8 /. t 1 < 0.7)

let test_implementable_monotone_in_generation () =
  (* Anything the 1998 process can build, the 2010 process can too. *)
  let g98 = Option.get (Sia.by_year 1998) in
  let g10 = Option.get (Sia.by_year 2010) in
  List.iter
    (fun (x, y, z) ->
      let c = Config.xwy ~registers:z ~x ~y () in
      if Area.implementable c g98 then
        Alcotest.(check bool) "2010 superset" true (Area.implementable c g10))
    [ (1, 1, 32); (2, 1, 64); (1, 2, 256); (4, 2, 128); (8, 1, 64) ]

let test_implementable_1w1_1998 () =
  let g98 = Option.get (Sia.by_year 1998) in
  Alcotest.(check bool) "1w1/32 buildable in 1998" true
    (Area.implementable (Config.xwy ~registers:32 ~x:1 ~y:1 ()) g98);
  Alcotest.(check bool) "16w1/256 not buildable in 1998" false
    (Area.implementable (Config.xwy ~registers:256 ~x:16 ~y:1 ()) g98)

let test_icache_residency () =
  let c = Wr_cost.Icache.make ~size_bytes:4096 () in
  Alcotest.(check bool) "small fits" true (Wr_cost.Icache.resident c ~code_bytes:4096);
  Alcotest.(check bool) "big thrashes" false (Wr_cost.Icache.resident c ~code_bytes:4097)

let test_icache_cold_vs_thrash () =
  let c = Wr_cost.Icache.make ~size_bytes:1024 ~line_bytes:32 ~miss_penalty:10 () in
  (* Resident: cold misses only, independent of pass count. *)
  Alcotest.(check int) "cold misses" (32 * 10)
    (Wr_cost.Icache.fetch_stall_cycles c ~code_bytes:1024 ~kernel_passes:100);
  (* Oversized: every pass refetches every line. *)
  Alcotest.(check int) "streaming thrash" (64 * 100 * 10)
    (Wr_cost.Icache.fetch_stall_cycles c ~code_bytes:2048 ~kernel_passes:100)

let test_icache_validation () =
  Alcotest.(check bool) "line > cache rejected" true
    (try
       ignore (Wr_cost.Icache.make ~size_bytes:16 ~line_bytes:32 ());
       false
     with Invalid_argument _ -> true);
  let c = Wr_cost.Icache.make ~size_bytes:1024 () in
  Alcotest.(check int) "zero code" 0
    (Wr_cost.Icache.fetch_stall_cycles c ~code_bytes:0 ~kernel_passes:5)

let test_code_size_word_lengths () =
  (* Paper, Section 4.3: the word of 4w1 is 2x the word of 2w2 and 4x
     the word of 1w4. *)
  let w x y = Code_size.word_bits (Config.xwy ~x ~y ()) in
  Alcotest.(check int) "4w1 = 2 * 2w2" (w 4 1) (2 * w 2 2);
  Alcotest.(check int) "4w1 = 4 * 1w4" (w 4 1) (4 * w 1 4)

let test_code_size_relative () =
  let c41 = Config.xwy ~x:4 ~y:1 () and c14 = Config.xwy ~x:1 ~y:4 () in
  Alcotest.(check (float 1e-9)) "equal II gives width ratio" 0.25
    (Code_size.relative c14 ~ii:10 ~baseline:c41 ~baseline_ii:10)

let () =
  Alcotest.run "wr_cost"
    [
      ("sia", [ Alcotest.test_case "table 1" `Quick test_sia_table1 ]);
      ( "register_cell",
        [
          Alcotest.test_case "table 2 exact" `Quick test_register_cell_exact_table2;
          Alcotest.test_case "monotone" `Quick test_register_cell_monotone;
          Alcotest.test_case "rejects" `Quick test_register_cell_rejects;
        ] );
      ( "area",
        [
          Alcotest.test_case "table 3" `Quick test_area_table3;
          Alcotest.test_case "fpu" `Quick test_area_fpu;
          Alcotest.test_case "equal factor fpus" `Quick test_area_same_fpu_cost_at_equal_factor;
          Alcotest.test_case "replication dearer" `Quick test_area_replication_costs_more_than_widening;
        ] );
      ( "access_time",
        [
          Alcotest.test_case "table 4 tolerance" `Quick test_access_time_table4_tolerance;
          Alcotest.test_case "baseline" `Quick test_access_time_baseline_is_one;
          Alcotest.test_case "monotone in Z" `Quick test_access_time_monotone_in_registers;
          Alcotest.test_case "partitioning" `Quick test_access_time_partitioning_faster_but_bigger;
        ] );
      ( "implementability",
        [
          Alcotest.test_case "monotone" `Quick test_implementable_monotone_in_generation;
          Alcotest.test_case "1998 anchors" `Quick test_implementable_1w1_1998;
        ] );
      ( "code_size",
        [
          Alcotest.test_case "word lengths" `Quick test_code_size_word_lengths;
          Alcotest.test_case "relative" `Quick test_code_size_relative;
        ] );
      ( "icache",
        [
          Alcotest.test_case "residency" `Quick test_icache_residency;
          Alcotest.test_case "cold vs thrash" `Quick test_icache_cold_vs_thrash;
          Alcotest.test_case "validation" `Quick test_icache_validation;
        ] );
    ]
