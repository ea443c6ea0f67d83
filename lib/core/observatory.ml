(* Cross-run regression observatory over provenance ledgers and
   BENCH_*.json artifacts.  Pure functions over already-loaded records:
   the bench driver owns file IO and exit codes. *)

type divergence = {
  d_class : string;
  d_regression : bool;
  d_point : string;
  d_detail : string;
}

let point_label (r : Provenance.t) =
  Printf.sprintf "%s #%d %s %s r%d cm%d" r.Provenance.suite r.Provenance.index
    r.Provenance.loop r.Provenance.config r.Provenance.registers r.Provenance.cycle_model

(* Collapse the exact tally to one comparable verdict.  The order is a
   strength ranking: proving optimality beats an unproved improvement
   beats falling back to the heuristic. *)
let exact_verdict (e : Provenance.exact) =
  if e.Provenance.solves = 0 then "none"
  else if e.Provenance.fallback > 0 then "fallback"
  else if e.Provenance.unproved > 0 then "unproved"
  else "proved"

let verdict_rank = function
  | "proved" -> 0
  | "unproved" -> 1
  | "fallback" -> 2
  | _ -> 3 (* "none": no exact solves ran; rank changes involving it are benign *)

let compare_point ~threshold_pct (o : Provenance.t) (n : Provenance.t) =
  let ds = ref [] in
  let push d = ds := d :: !ds in
  let point = point_label n in
  (* Cycles: the one numeric class with a noise threshold. *)
  let oc = o.Provenance.cycles and nc = n.Provenance.cycles in
  if nc <> oc then begin
    let margin = Float.abs oc *. threshold_pct /. 100.0 in
    if nc > oc +. margin then
      push
        {
          d_class = "cycles_regression";
          d_regression = true;
          d_point = point;
          d_detail = Printf.sprintf "cycles %.2f -> %.2f (+%.2f%%)" oc nc
              (if oc = 0.0 then Float.infinity else (nc -. oc) /. oc *. 100.0);
        }
    else if nc < oc -. margin then
      push
        {
          d_class = "cycles_improvement";
          d_regression = false;
          d_point = point;
          d_detail = Printf.sprintf "cycles %.2f -> %.2f (%.2f%%)" oc nc
              (if oc = 0.0 then Float.neg_infinity else (nc -. oc) /. oc *. 100.0);
        }
  end;
  if n.Provenance.ii <> o.Provenance.ii then
    push
      {
        d_class = "ii_changed";
        d_regression = n.Provenance.ii > o.Provenance.ii;
        d_point = point;
        d_detail =
          Printf.sprintf "II %d -> %d (MII %d -> %d)" o.Provenance.ii n.Provenance.ii
            o.Provenance.mii n.Provenance.mii;
      };
  let verdict ~regression detail =
    push { d_class = "verdict_changed"; d_regression = regression; d_point = point; d_detail = detail }
  in
  if o.Provenance.pipelined <> n.Provenance.pipelined then
    verdict ~regression:(not n.Provenance.pipelined)
      (Printf.sprintf "pipelined %b -> %b" o.Provenance.pipelined n.Provenance.pipelined);
  if o.Provenance.oracle <> n.Provenance.oracle then
    verdict
      ~regression:(o.Provenance.oracle = "verified" && n.Provenance.oracle <> "verified")
      (Printf.sprintf "oracle %s -> %s" o.Provenance.oracle n.Provenance.oracle);
  if o.Provenance.quarantined <> n.Provenance.quarantined then
    verdict ~regression:n.Provenance.quarantined
      (if n.Provenance.quarantined then
         Printf.sprintf "newly quarantined (%s)" n.Provenance.tag
       else "no longer quarantined");
  let ov = exact_verdict o.Provenance.exact and nv = exact_verdict n.Provenance.exact in
  if ov <> nv then
    verdict
      ~regression:(verdict_rank nv > verdict_rank ov && nv <> "none")
      (Printf.sprintf "exact status %s -> %s" ov nv);
  if
    o.Provenance.spill_stores + o.Provenance.spill_loads
    <> n.Provenance.spill_stores + n.Provenance.spill_loads
  then
    verdict ~regression:false
      (Printf.sprintf "spill ops %d -> %d"
         (o.Provenance.spill_stores + o.Provenance.spill_loads)
         (n.Provenance.spill_stores + n.Provenance.spill_loads));
  if o.Provenance.backend <> n.Provenance.backend then
    verdict ~regression:false
      (Printf.sprintf "backend %s -> %s" o.Provenance.backend n.Provenance.backend);
  List.rev !ds

let diff ?(threshold_pct = 0.0) old_records new_records =
  let old_by_hash = Hashtbl.create (List.length old_records) in
  List.iter
    (fun (r : Provenance.t) ->
      if not (Hashtbl.mem old_by_hash r.Provenance.hash) then
        Hashtbl.add old_by_hash r.Provenance.hash r)
    old_records;
  let matched = Hashtbl.create (List.length new_records) in
  let joined =
    List.concat_map
      (fun (n : Provenance.t) ->
        match Hashtbl.find_opt old_by_hash n.Provenance.hash with
        | Some o ->
            Hashtbl.replace matched n.Provenance.hash ();
            compare_point ~threshold_pct o n
        | None ->
            [
              {
                d_class = "appeared";
                d_regression = false;
                d_point = point_label n;
                d_detail = Printf.sprintf "new point (cycles %.2f, II %d)" n.Provenance.cycles n.Provenance.ii;
              };
            ])
      new_records
  in
  let vanished =
    List.filter_map
      (fun (o : Provenance.t) ->
        if Hashtbl.mem matched o.Provenance.hash || not (Hashtbl.mem old_by_hash o.Provenance.hash)
        then None
        else begin
          (* Only report the first occurrence of a duplicated old hash. *)
          Hashtbl.remove old_by_hash o.Provenance.hash;
          Some
            {
              d_class = "vanished";
              d_regression = true;
              d_point = point_label o;
              d_detail = "point present in the old run only";
            }
        end)
      old_records
  in
  joined @ vanished

let has_regressions = List.exists (fun d -> d.d_regression)

let render_diff ds =
  match ds with
  | [] -> "no divergences\n"
  | _ ->
      let buf = Buffer.create 1024 in
      List.iter
        (fun d ->
          Buffer.add_string buf
            (Printf.sprintf "%-10s %-20s %s: %s\n"
               (if d.d_regression then "REGRESSION" else "benign")
               d.d_class d.d_point d.d_detail))
        ds;
      let regressions = List.length (List.filter (fun d -> d.d_regression) ds) in
      Buffer.add_string buf
        (Printf.sprintf "%d divergence(s): %d regression(s), %d benign\n" (List.length ds)
           regressions
           (List.length ds - regressions));
      Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Single-run dashboard                                                *)

let top_n = 10

let report (records : Provenance.t list) =
  let buf = Buffer.create 4096 in
  let n = List.length records in
  Buffer.add_string buf (Printf.sprintf "Run ledger report: %d point(s)\n\n" n);
  if n = 0 then Buffer.contents buf
  else begin
    (* Stage table per (suite, config): the same aggregate shape the
       studies print, recomputed from provenance alone. *)
    let keys =
      List.sort_uniq compare
        (List.map (fun (r : Provenance.t) -> (r.Provenance.suite, r.Provenance.config)) records)
    in
    Buffer.add_string buf
      (Printf.sprintf "%-16s %-12s %7s %6s %8s %7s %6s %6s %14s\n" "suite" "config" "points"
         "pipe" "spilled" "quar" "ii_sum" "evict" "cycles_total");
    List.iter
      (fun (suite, config) ->
        let rs =
          List.filter
            (fun (r : Provenance.t) -> r.Provenance.suite = suite && r.Provenance.config = config)
            records
        in
        let count p = List.length (List.filter p rs) in
        Buffer.add_string buf
          (Printf.sprintf "%-16s %-12s %7d %6d %8d %7d %6d %6d %14.1f\n" suite config
             (List.length rs)
             (count (fun r -> r.Provenance.pipelined))
             (count (fun r -> r.Provenance.spill_stores + r.Provenance.spill_loads > 0))
             (count (fun r -> r.Provenance.quarantined))
             (List.fold_left (fun acc r -> acc + r.Provenance.ii) 0 rs)
             (List.fold_left (fun acc r -> acc + r.Provenance.evictions) 0 rs)
             (List.fold_left (fun acc r -> acc +. r.Provenance.cycles) 0.0 rs)))
      keys;
    (* II-over-MII histogram: how far the pipeline sits from its bound. *)
    let deltas =
      List.filter_map
        (fun (r : Provenance.t) ->
          if r.Provenance.pipelined then Some (r.Provenance.ii - r.Provenance.mii) else None)
        records
    in
    Buffer.add_string buf "\nII over MII (pipelined points):\n";
    if deltas = [] then Buffer.add_string buf "  (no pipelined points)\n"
    else begin
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun d ->
          let d = if d > 16 then 17 else d in
          Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
        deltas;
      let bins = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
      let total = List.length deltas in
      List.iter
        (fun (d, c) ->
          let label = if d > 16 then ">16" else Printf.sprintf "+%d" d in
          Buffer.add_string buf
            (Printf.sprintf "  %-4s %7d  (%5.1f%%)\n" label c
               (100.0 *. float_of_int c /. float_of_int total)))
        bins
    end;
    (* Backend and exact-status breakdown. *)
    let backends =
      List.sort_uniq compare (List.map (fun (r : Provenance.t) -> r.Provenance.backend) records)
    in
    Buffer.add_string buf "\nBackend breakdown:\n";
    List.iter
      (fun b ->
        let rs = List.filter (fun (r : Provenance.t) -> r.Provenance.backend = b) records in
        let sum f = List.fold_left (fun acc (r : Provenance.t) -> acc + f r.Provenance.exact) 0 rs in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-10s %6d point(s), %d exact solve(s): %d proved, %d unproved, %d fallback, \
              %d node(s), %d II(s) refuted\n"
             b (List.length rs)
             (sum (fun e -> e.Provenance.solves))
             (sum (fun e -> e.Provenance.proved))
             (sum (fun e -> e.Provenance.unproved))
             (sum (fun e -> e.Provenance.fallback))
             (sum (fun e -> e.Provenance.nodes))
             (sum (fun e -> e.Provenance.iis_refuted))))
      backends;
    (* Top-N slowest: wall time when the ledger recorded it, cycles
       otherwise (the deterministic default has no wall times). *)
    let have_wall = List.exists (fun (r : Provenance.t) -> r.Provenance.wall_us <> None) records in
    let slow_key (r : Provenance.t) =
      if have_wall then float_of_int (Option.value ~default:0 r.Provenance.wall_us)
      else r.Provenance.cycles
    in
    let slowest =
      List.filteri (fun i _ -> i < top_n)
        (List.stable_sort (fun a b -> compare (slow_key b) (slow_key a)) records)
    in
    Buffer.add_string buf
      (Printf.sprintf "\nTop %d slowest points (%s):\n" top_n
         (if have_wall then "by wall time" else "by weighted cycles"));
    List.iter
      (fun (r : Provenance.t) ->
        Buffer.add_string buf
          (if have_wall then
             Printf.sprintf "  %10.2f ms  %s\n"
               (float_of_int (Option.value ~default:0 r.Provenance.wall_us) /. 1e3)
               (point_label r)
           else Printf.sprintf "  %14.1f cy  %s\n" r.Provenance.cycles (point_label r)))
      slowest;
    (* Top-N most-evicted: where the scheduler fought hardest. *)
    let evicted =
      List.filteri (fun i _ -> i < top_n)
        (List.stable_sort
           (fun (a : Provenance.t) (b : Provenance.t) ->
             compare b.Provenance.evictions a.Provenance.evictions)
           records)
    in
    if List.exists (fun (r : Provenance.t) -> r.Provenance.evictions > 0) evicted then begin
      Buffer.add_string buf (Printf.sprintf "\nTop %d most-evicted points:\n" top_n);
      List.iter
        (fun (r : Provenance.t) ->
          if r.Provenance.evictions > 0 then
            Buffer.add_string buf
              (Printf.sprintf "  %6d eviction(s)  %s\n" r.Provenance.evictions (point_label r)))
        evicted
    end;
    let quarantined = List.filter (fun (r : Provenance.t) -> r.Provenance.quarantined) records in
    if quarantined <> [] then begin
      Buffer.add_string buf
        (Printf.sprintf "\nQuarantined points (%d):\n" (List.length quarantined));
      List.iter
        (fun (r : Provenance.t) ->
          Buffer.add_string buf (Printf.sprintf "  %s: %s\n" (point_label r) r.Provenance.tag))
        quarantined
    end;
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* BENCH_*.json diff                                                   *)

let ( let* ) = Result.bind

let str_member key obj = Option.bind (Bench_schema.member key obj) Bench_schema.to_str

let num_member key obj = Option.bind (Bench_schema.member key obj) Bench_schema.to_float

let rows_of key j =
  match Bench_schema.member key j with Some (Bench_schema.List l) -> l | _ -> []

(* gap rows carry discrete results: II movements and status changes
   gate like ledger points do. *)
let diff_gap old_j new_j =
  let key row =
    match (str_member "family" row, str_member "loop" row, str_member "config" row) with
    | Some f, Some l, Some c -> Some (f ^ "/" ^ l ^ "/" ^ c)
    | _ -> None
  in
  let old_rows = Hashtbl.create 64 in
  List.iter
    (fun row ->
      match key row with
      | Some k when not (Hashtbl.mem old_rows k) -> Hashtbl.add old_rows k row
      | _ -> ())
    (rows_of "rows" old_j);
  let matched = Hashtbl.create 64 in
  let joined =
    List.concat_map
      (fun nrow ->
        match key nrow with
        | None -> []
        | Some k -> (
            match Hashtbl.find_opt old_rows k with
            | None ->
                [ { d_class = "appeared"; d_regression = false; d_point = k;
                    d_detail = "new gap row" } ]
            | Some orow ->
                Hashtbl.replace matched k ();
                let ds = ref [] in
                let push d = ds := d :: !ds in
                let field name = (num_member name orow, num_member name nrow) in
                (match field "heur_ii" with
                | Some o, Some n when o <> n ->
                    push
                      { d_class = "ii_changed"; d_regression = n > o; d_point = k;
                        d_detail = Printf.sprintf "heuristic II %.0f -> %.0f" o n }
                | _ -> ());
                (match field "exact_ii" with
                | Some o, Some n when o <> n ->
                    push
                      { d_class = (if n > o then "cycles_regression" else "cycles_improvement");
                        d_regression = n > o; d_point = k;
                        d_detail = Printf.sprintf "exact II %.0f -> %.0f" o n }
                | _ -> ());
                (match (str_member "status" orow, str_member "status" nrow) with
                | Some o, Some n when o <> n ->
                    let rank = function
                      | "proved_optimal" -> 0
                      | "improved_unproved" -> 1
                      | _ -> 2
                    in
                    push
                      { d_class = "verdict_changed"; d_regression = rank n > rank o;
                        d_point = k; d_detail = Printf.sprintf "status %s -> %s" o n }
                | _ -> ());
                List.rev !ds))
      (rows_of "rows" new_j)
  in
  let vanished =
    List.filter_map
      (fun orow ->
        match key orow with
        | Some k when Hashtbl.mem old_rows k && not (Hashtbl.mem matched k) ->
            Hashtbl.remove old_rows k;
            Some
              { d_class = "vanished"; d_regression = true; d_point = k;
                d_detail = "gap row present in the old run only" }
        | _ -> None)
      (rows_of "rows" old_j)
  in
  joined @ vanished

let diff_bench old_j new_j =
  let* old_kind = Bench_schema.validate old_j in
  let* new_kind = Bench_schema.validate new_j in
  if old_kind <> new_kind then
    Error (Printf.sprintf "kind mismatch: %s vs %s" old_kind new_kind)
  else
    match old_kind with
    | "gap" -> Ok (diff_gap old_j new_j)
    | k -> Error (Printf.sprintf "unknown bench kind %s" k)
