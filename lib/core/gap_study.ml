module Config = Wr_machine.Config
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Loop = Wr_ir.Loop
module Ddg = Wr_ir.Ddg
module Exact = Wr_sched.Exact
module Modulo = Wr_sched.Modulo
module Schedule = Wr_sched.Schedule
module Pool = Wr_util.Pool
module Obs = Wr_obs.Obs

type row = {
  family : string;
  loop_name : string;
  index : int;
  config : Config.t;
  ops : int;
  mii : int;
  heur_ii : int;
  exact_ii : int;
  gap : int;
  status : Exact.status;
  nodes : int;
  evictions : int;
}

type t = {
  rows : row list;
  points : int;
  proved_optimal : int;
  improved : int;
  fallback : int;
  gap_total : int;
  max_gap : int;
  nodes_total : int;
}

(* The replication/widening mixes where the heuristic has real work to
   do: the 1w1 and the very wide machines schedule almost everything at
   the MII, which proves nothing about heuristic quality. *)
let default_configs =
  List.map (fun (x, y) -> Config.xwy ~x ~y ()) [ (2, 1); (1, 2); (4, 1); (2, 2); (1, 4) ]

let status_string = function
  | Exact.Proved_optimal -> "proved_optimal"
  | Exact.Feasible_unproved -> "improved_unproved"
  | Exact.Fallback -> "timeout"

let point ~cycle_model ~max_nodes (family, index, loop, config) =
  let wall = Provenance.capture_enabled () && Provenance.wall_enabled () in
  let t0 = if wall then Obs.now_ns () else 0 in
  let row =
    (if not (Obs.enabled ()) then fun f -> f ()
     else
       Obs.span "gap/point"
         ~args:[ ("family", family); ("loop", loop.Loop.name); ("config", Config.label config) ])
    @@ fun () ->
    let wide, _ = Wr_widen.Transform.widen loop ~width:config.Config.width in
    let ddg = wide.Loop.ddg in
    let resource = Resource.of_config config in
    let r = Exact.solve resource ~cycle_model ~max_nodes ddg in
    let heur_ii = r.Exact.base.Modulo.schedule.Schedule.ii in
    if Obs.enabled () then begin
      Obs.incr "gap/points";
      Obs.incr
        (match r.Exact.status with
        | Exact.Proved_optimal -> "gap/proved"
        | Exact.Feasible_unproved -> "gap/improved_unproved"
        | Exact.Fallback -> "gap/timeout");
      Obs.observe_clamped "gap/nodes_per_point" ~top:1024 r.Exact.nodes
    end;
    {
      family;
      loop_name = loop.Loop.name;
      index;
      config;
      ops = Ddg.num_ops ddg;
      mii = r.Exact.mii;
      heur_ii;
      exact_ii = r.Exact.ii;
      gap = heur_ii - r.Exact.ii;
      status = r.Exact.status;
      nodes = r.Exact.nodes;
      evictions = r.Exact.base.Modulo.evictions;
    }
  in
  (* Gap points flow into the same provenance ledger as study points,
     under a "gap:<family>" suite: [ii] carries the heuristic's II (an
     II increase diffs as a heuristic regression), [cycles] carries the
     exact reference II, and the exact tally carries the proof
     status. *)
  if Provenance.capture_enabled () then
    Provenance.record
      {
        Provenance.hash =
          Provenance.point_hash ~suite_id:("gap:" ^ family) ~index ~config ~registers:0
            ~cycle_model loop;
        suite = "gap:" ^ family;
        index;
        loop = loop.Loop.name;
        config = Config.label config;
        registers = 0;
        cycle_model = Cycle_model.cycles cycle_model;
        ii = row.heur_ii;
        mii = row.mii;
        cycles = float_of_int row.exact_ii;
        pipelined = true;
        spill_rounds = 0;
        spill_stores = 0;
        spill_loads = 0;
        backend = "exact";
        sched_runs = 1;
        evictions = row.evictions;
        exact =
          {
            Provenance.solves = 1;
            proved = (match row.status with Exact.Proved_optimal -> 1 | _ -> 0);
            unproved = (match row.status with Exact.Feasible_unproved -> 1 | _ -> 0);
            fallback = (match row.status with Exact.Fallback -> 1 | _ -> 0);
            nodes = row.nodes;
            iis_refuted = (if row.status = Exact.Proved_optimal then row.heur_ii - row.exact_ii else 0);
          };
        oracle = "unverified";
        quarantined = false;
        tag = "";
        wall_us = (if wall then Some ((Obs.now_ns () - t0) / 1000) else None);
      };
  row

let run ?(configs = default_configs) ?(cycle_model = Cycle_model.Cycles_4)
    ?(max_nodes = 200_000) families =
  Obs.span "gap/run" @@ fun () ->
  let points =
    List.concat_map
      (fun (family, loops) ->
        List.concat
          (Array.to_list
             (Array.mapi
                (fun i loop -> List.map (fun c -> (family, i, loop, c)) configs)
                loops)))
      families
  in
  (* One point per pool task; order-preserving map keeps the row order
     (families, then suite order, then config order) deterministic for
     the CSV no matter the pool size — and the node budget alone cuts
     the search, so every cell (status and node count included) is
     bit-identical for any [--jobs]. *)
  let rows = Pool.parallel_list_map points ~f:(point ~cycle_model ~max_nodes) in
  let count p = List.length (List.filter p rows) in
  {
    rows;
    points = List.length rows;
    proved_optimal = count (fun r -> r.status = Exact.Proved_optimal);
    improved = count (fun r -> r.gap > 0);
    fallback = count (fun r -> r.status = Exact.Fallback);
    gap_total = List.fold_left (fun acc r -> acc + r.gap) 0 rows;
    max_gap = List.fold_left (fun acc r -> Stdlib.max acc r.gap) 0 rows;
    nodes_total = List.fold_left (fun acc r -> acc + r.nodes) 0 rows;
  }

let to_text t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "HRMS-vs-optimal II gap (exact branch-and-bound backend as the reference)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-12s %7s %8s %9s %8s %8s %8s\n" "family" "config" "points"
       "proved" "improved" "timeout" "gap_sum" "gap_max");
  let keys =
    List.sort_uniq compare (List.map (fun r -> (r.family, Config.label r.config)) t.rows)
  in
  List.iter
    (fun (family, label) ->
      let rs =
        List.filter (fun r -> r.family = family && Config.label r.config = label) t.rows
      in
      let count p = List.length (List.filter p rs) in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-12s %7d %8d %9d %8d %8d %8d\n" family label
           (List.length rs)
           (count (fun r -> r.status = Exact.Proved_optimal))
           (count (fun r -> r.gap > 0))
           (count (fun r -> r.status = Exact.Fallback))
           (List.fold_left (fun acc r -> acc + r.gap) 0 rs)
           (List.fold_left (fun acc r -> Stdlib.max acc r.gap) 0 rs)))
    keys;
  Buffer.add_string buf
    (Printf.sprintf
       "\ntotal: %d points — %d proved optimal (%.1f%%), %d improved by the exact backend, \
        %d timed out, %d search nodes\n"
       t.points t.proved_optimal
       (100.0 *. float_of_int t.proved_optimal /. float_of_int (Stdlib.max 1 t.points))
       t.improved t.fallback t.nodes_total);
  Buffer.contents buf
