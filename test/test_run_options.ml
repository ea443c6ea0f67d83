(* The run options shared by bench and [widening-cli serve]: argument
   parsing through Cmdliner, and the start/finish pair that attaches
   the store, writes the ledger and prints the [verify] line. *)

open Cmdliner
module Run_options = Wr_cli.Run_options
module Evaluate = Core.Evaluate
module Fault = Wr_util.Fault

let cfg = Wr_machine.Config.xwy ~registers:64 ~x:2 ~y:2 ()

let cm = Wr_machine.Cycle_model.Cycles_4

let loops = Wr_workload.Suite.sample 4

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* [None] on a usage error; the environment is [env], not the
   process's. *)
let parse ?(env = fun _ -> None) args =
  let term = Term.(const (fun o s -> (o, s)) $ Run_options.term $ Run_options.sample) in
  let quiet = Format.formatter_of_buffer (Buffer.create 64) in
  match
    Cmd.eval_value ~env ~err:quiet ~help:quiet
      ~argv:(Array.of_list ("run" :: args))
      (Cmd.v (Cmd.info "run") term)
  with
  | Ok (`Ok v) -> Some v
  | Ok (`Help | `Version) | Error _ -> None

let parse_ok ?env args =
  match parse ?env args with
  | Some (o, _) -> o
  | None -> Alcotest.failf "rejected: %s" (String.concat " " args)

let test_positive_rejects_zero () =
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args ^ " rejected") true (parse args = None))
    [
      [ "--jobs"; "0" ]; [ "-j"; "0" ]; [ "-s"; "0" ]; [ "--jobs"; "-2" ]; [ "--jobs"; "two" ];
      (* No option sets a wall-clock budget, whatever its value. *)
      [ "--loop-budget-ms"; "5" ];
    ];
  let conv = Arg.conv_parser Run_options.positive in
  Alcotest.(check bool) "0 is not positive" true (Result.is_error (conv "0"));
  Alcotest.(check bool) "1 is positive" true (conv "1" = Ok 1);
  match parse [ "--jobs"; "3"; "-s"; "7" ] with
  | Some (o, s) ->
      Alcotest.(check (option int)) "jobs" (Some 3) o.Run_options.jobs;
      Alcotest.(check (option int)) "sample" (Some 7) s
  | None -> Alcotest.fail "positive values rejected"

let test_backend_alias () =
  let o = parse_ok [ "--backend"; "bnb" ] in
  Alcotest.(check bool) "bnb is the exact backend" true
    (o.Run_options.backend = Some Wr_sched.Backend.Exact);
  Alcotest.(check bool) "unknown backend rejected" true (parse [ "--backend"; "fast" ] = None)

let test_store_env_fallback () =
  let env v = function "WR_STORE" -> Some v | _ -> None in
  let store ?env args = (parse_ok ?env args).Run_options.store in
  Alcotest.(check (option string)) "no flag, no env" None (store []);
  Alcotest.(check (option string)) "env alone" (Some "/env") (store ~env:(env "/env") []);
  Alcotest.(check (option string)) "flag beats env" (Some "/flag")
    (store ~env:(env "/env") [ "--store"; "/flag" ]);
  Alcotest.(check (option string)) "empty env means no store" None (store ~env:(env "") [])

let with_tmp_dir f =
  let dir = Filename.temp_file "wr-run-options" ".d" in
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

let test_bad_paths_rejected () =
  with_tmp_dir @@ fun dir ->
  let file = Filename.concat dir "file" in
  Out_channel.with_open_text file ignore;
  let missing = Filename.concat dir "missing" in
  List.iter
    (fun args ->
      Alcotest.(check bool) (String.concat " " args ^ " rejected") true (parse args = None))
    [
      [ "--store"; file ];
      [ "--store"; Filename.concat missing "store" ];
      [ "--ledger"; Filename.concat missing "l.jsonl" ];
      [ "--trace"; Filename.concat missing "t.json" ];
      [ "--metrics"; Filename.concat missing "m.json" ];
      [ "--ledger"; dir ];
      [ "--trace"; dir ];
      [ "--metrics"; dir ];
    ];
  Alcotest.(check bool) "WR_STORE naming a file rejected" true
    (parse ~env:(function "WR_STORE" -> Some file | _ -> None) [] = None);
  let o =
    parse_ok
      [
        "--store"; Filename.concat dir "new-store"; "--ledger"; Filename.concat dir "l.jsonl";
        "--trace"; file; "--metrics"; Filename.concat dir "m.json";
      ]
  in
  Alcotest.(check (option string)) "new store in an existing directory"
    (Some (Filename.concat dir "new-store")) o.Run_options.store;
  Alcotest.(check (option string)) "existing file overwritten" (Some file) o.Run_options.trace;
  Alcotest.(check (option string)) "existing store directory" (Some dir)
    (parse_ok [ "--store"; dir ]).Run_options.store

let clean () =
  Fault.configure [];
  Evaluate.set_verify false;
  Evaluate.detach_store ();
  Evaluate.reset_quarantine ();
  Evaluate.clear_cache ();
  Core.Provenance.set_capture false;
  Core.Provenance.reset ()

let with_clean_state f =
  clean ();
  Fun.protect ~finally:clean f

(* [f out], then everything it wrote to [out]. *)
let output_of dir f =
  let path = Filename.concat dir "out.txt" in
  Out_channel.with_open_text path f;
  In_channel.with_open_text path In_channel.input_all

let test_start_finish_store_ledger () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun dir ->
  let store = Filename.concat dir "store" and ledger = Filename.concat dir "run.jsonl" in
  let opts = parse_ok [ "--store"; store; "--ledger"; ledger ] in
  let out =
    output_of dir (fun out ->
        Run_options.start ~out opts;
        ignore (Evaluate.suite_on ~suite_id:"run-options" cfg ~cycle_model:cm ~registers:64 loops);
        Run_options.finish ~out opts)
  in
  Alcotest.(check bool) "recovery line" true (contains out (Printf.sprintf "[store] %s: 0 entries" store));
  Alcotest.(check bool) "store summary" true (contains out "appended");
  (match Core.Provenance.load ledger with
  | Ok records ->
      Alcotest.(check int) "one record per point" (Array.length loops) (List.length records)
  | Error msg -> Alcotest.failf "ledger rejected: %s" msg);
  Alcotest.(check (option string)) "store detached" None (Evaluate.store_dir ());
  match Core.Store.open_dir store with
  | t, r ->
      Alcotest.(check int) "every point stored" (Array.length loops) r.Core.Store.entries;
      Core.Store.close t
  | exception Core.Store.Locked msg -> Alcotest.failf "store lock not released: %s" msg

let test_verify_line_counts_quarantine () =
  with_clean_state @@ fun () ->
  with_tmp_dir @@ fun dir ->
  Evaluate.set_verify true;
  Fault.configure [ { Fault.site = "widen"; prob = 1.0; seed = 7L; action = Fault.Raise } ];
  ignore (Evaluate.suite_on ~suite_id:"run-options-verify" cfg ~cycle_model:cm ~registers:64 loops);
  let quarantined = Evaluate.quarantined_count () in
  Alcotest.(check int) "every point quarantined" (Array.length loops) quarantined;
  let out = output_of dir (fun out -> Run_options.finish ~out (parse_ok [])) in
  Alcotest.(check bool) "reports the quarantined points" true
    (contains out (Printf.sprintf "%d quarantined" quarantined));
  Alcotest.(check bool) "does not claim 0 violations" false (contains out "0 violations")

let () =
  Alcotest.run "run_options"
    [
      ( "parse",
        [
          Alcotest.test_case "positive arguments reject 0" `Quick test_positive_rejects_zero;
          Alcotest.test_case "--backend bnb is exact" `Quick test_backend_alias;
          Alcotest.test_case "--store beats WR_STORE" `Quick test_store_env_fallback;
          Alcotest.test_case "bad paths are usage errors" `Quick test_bad_paths_rejected;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "start/finish with store and ledger" `Quick
            test_start_finish_store_ledger;
          Alcotest.test_case "verify line counts quarantined points" `Quick
            test_verify_line_counts_quarantine;
        ] );
    ]
