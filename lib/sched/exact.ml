module Ddg = Wr_ir.Ddg
module Dependence = Wr_ir.Dependence
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Obs = Wr_obs.Obs

type outcome = Feasible of Schedule.t | Infeasible | Gave_up

type status = Proved_optimal | Feasible_unproved | Fallback

type t = {
  base : Modulo.result;
  schedule : Schedule.t;
  ii : int;
  mii : int;
  status : status;
  nodes : int;
  iis_refuted : int;
}

exception Out_of_budget

let neg_inf = min_int / 4

(* The scratch matrix must be at least n x n; rows are reset here, so a
   caller (solve/min_ii) can hand the same buffer to every II attempt
   instead of paying an O(n^2) allocation per retry. *)
let path_matrix ?scratch n =
  match scratch with
  | Some m when Array.length m >= n && (n = 0 || Array.length m.(0) >= n) ->
      for i = 0 to n - 1 do
        Array.fill m.(i) 0 n neg_inf
      done;
      m
  | _ -> Array.make_matrix n n neg_inf

(* Exhaustive branch-and-bound search for a modulo schedule at exactly
   [ii], following the SMT-paper encoding (per-op start time, pairwise
   dependence inequalities [t_dst - t_src >= delay - II*distance],
   modulo resource constraints) but solved by backtracking over the
   CSR edge view and the MRT instead of an external solver.

   Soundness of [Infeasible] (this is what optimality proofs rest on):
   each weakly-connected component's first operation ("anchor") ranges
   over [0, II-1] — any schedule can be shifted per-component so this
   holds.  Every other operation ranges over its full transitive
   dependence window intersected with the box [anchor +/- B], where
   B = (n+1) * (max_delay + II).  If a schedule exists at this II, one
   exists inside that box: take a solution minimising the sum of start
   times with the component non-negative; any operation at t >= II
   whose time dropped by II would stay resource-identical, so it must
   be dependence-blocked within (max_delay + II) of some predecessor,
   and chaining that argument from an operation below II bounds every
   start time by n * (max_delay + II).  Re-anchoring shifts by at most
   that again, hence the box.  Enumerating every in-box, in-window slot
   with backtracking is therefore exhaustive: [Infeasible] is a proof,
   [Gave_up] (node budget) is not. *)
let at_ii resource ~cycle_model ~ii ?(max_nodes = 200_000) ?scratch ?(nodes_out = ref 0) g =
  let n = Ddg.num_ops g in
  if n = 0 then Feasible (Schedule.make ~ii ~times:[||] ~cycle_model)
  else begin
    (* Assignment order: critical recurrences, then height — the same
       priority the heuristic uses, which keeps windows tight early. *)
    let critical = Mii.critical_recurrence_ops ~cycle_model g ~ii:(Mii.rec_mii ~cycle_model g) in
    let h = Modulo.heights ~cycle_model g ~ii in
    let priority = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        match compare critical.(b) critical.(a) with
        | 0 -> ( match compare h.(b) h.(a) with 0 -> compare a b | c -> c)
        | c -> c)
      priority;
    (* Traverse each weakly-connected component contiguously (BFS over
       undirected adjacency from the highest-priority seed): every
       operation after a component's anchor has an assigned neighbour,
       and only anchors may pin a fresh [0, II-1] region. *)
    let order = Array.make n 0 in
    let anchor = Array.make n false in
    let visited = Array.make n false in
    let pos = ref 0 in
    let neighbours v =
      List.map (fun (e : Dependence.t) -> e.dst) (Ddg.succs g v)
      @ List.map (fun (e : Dependence.t) -> e.src) (Ddg.preds g v)
    in
    Array.iter
      (fun seed ->
        if not visited.(seed) then begin
          let queue = Queue.create () in
          Queue.add seed queue;
          visited.(seed) <- true;
          anchor.(seed) <- true;
          while not (Queue.is_empty queue) do
            let v = Queue.pop queue in
            order.(!pos) <- v;
            incr pos;
            List.iter
              (fun w ->
                if not visited.(w) then begin
                  visited.(w) <- true;
                  Queue.add w queue
                end)
              (neighbours v)
          done
        end)
      priority;
    let time = Array.make n (-1) in
    let assigned = Array.make n false in
    let mrt = Mrt.create ~ii resource in
    let nodes = nodes_out in
    let start_nodes = !nodes in
    let cls i = Opcode.resource_class (Ddg.op g i).Operation.opcode in
    let occ i = Cycle_model.occupancy cycle_model (Ddg.op g i).Operation.opcode in
    (* All-pairs longest dependence paths at this II (max-plus
       Floyd-Warshall over weights [delay - II*distance]; no positive
       cycles at II >= RecMII).  Windows below use the TRANSITIVE
       bounds — an operation's window accounts for chains through
       still-unassigned intermediates, which direct-neighbour bounds
       miss. *)
    let path = path_matrix ?scratch n in
    for v = 0 to n - 1 do
      path.(v).(v) <- 0
    done;
    let view = Ddg.edge_view g in
    let delays = Mii.edge_delays ~cycle_model g in
    let max_delay = Array.fold_left Stdlib.max 1 delays in
    (* The completeness box (see the header comment). *)
    let box = (n + 1) * (max_delay + ii) in
    for e = 0 to view.Ddg.n_edges - 1 do
      let w = delays.(e) - (ii * view.Ddg.e_dist.(e)) in
      if w > path.(view.Ddg.e_src.(e)).(view.Ddg.e_dst.(e)) then
        path.(view.Ddg.e_src.(e)).(view.Ddg.e_dst.(e)) <- w
    done;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if path.(i).(k) > neg_inf then
          for j = 0 to n - 1 do
            if path.(k).(j) > neg_inf && path.(i).(k) + path.(k).(j) > path.(i).(j) then
              path.(i).(j) <- path.(i).(k) + path.(k).(j)
          done
      done
    done;
    (* Window of [op] given the assigned set: times may go negative (a
       producer assigned after its consumer sits below it); the final
       schedule is shifted to non-negative.  A component anchor pins
       [0, II-1].  In the clipped pass every other operation's window
       is narrowed to II consecutive slots — all residues mod II, a
       fast heuristic-complete probe for feasibility.  In the proving
       pass it keeps its full dependence window clamped to the
       completeness box, which is what makes a refutation sound. *)
    let window ~clip op =
      let lo = ref None and hi = ref None in
      for v = 0 to n - 1 do
        if assigned.(v) then begin
          if path.(v).(op) > neg_inf then
            lo :=
              Some
                (Stdlib.max (Option.value ~default:min_int !lo) (time.(v) + path.(v).(op)));
          if path.(op).(v) > neg_inf then
            hi :=
              Some
                (Stdlib.min (Option.value ~default:max_int !hi) (time.(v) - path.(op).(v)))
        end
      done;
      if anchor.(op) then (0, ii - 1)
      else if clip then
        match (!lo, !hi) with
        | None, None -> (0, ii - 1)
        | Some lo, None -> (lo, lo + ii - 1)
        | None, Some hi -> (hi - ii + 1, hi)
        | Some lo, Some hi -> (lo, Stdlib.min hi (lo + ii - 1))
      else
        (Stdlib.max (Option.value ~default:(-box) !lo) (-box),
         Stdlib.min (Option.value ~default:box !hi) box)
    in
    (* Prune tallies live in plain refs (the search loop pays one
       local increment) and are flushed to [Obs] once per at_ii call:
       [prune_resource] counts slots rejected by the MRT,
       [prune_window] counts operations whose dependence window came
       up empty, [prune_backtrack] counts exhausted windows that undid
       a placement. *)
    let prune_resource = ref 0 in
    let prune_window = ref 0 in
    let prune_backtrack = ref 0 in
    let ran_phase2 = ref false in
    let attempt ~clip =
      Array.fill time 0 n (-1);
      Array.fill assigned 0 n false;
      Mrt.reset mrt ~ii;
      let rec assign k =
        if k = n then true
        else begin
          let op = order.(k) in
          let lo, hi = window ~clip op in
          if lo > hi then incr prune_window;
          let rec try_time t =
            if t > hi then begin
              if k > 0 then incr prune_backtrack;
              false
            end
            else begin
              incr nodes;
              if !nodes - start_nodes > max_nodes then raise Out_of_budget;
              if Mrt.can_place mrt (cls op) ~time:t ~occupancy:(occ op) then begin
                Mrt.place mrt (cls op) ~time:t ~occupancy:(occ op);
                time.(op) <- t;
                assigned.(op) <- true;
                if assign (k + 1) then true
                else begin
                  Mrt.remove mrt (cls op) ~time:t ~occupancy:(occ op);
                  assigned.(op) <- false;
                  try_time (t + 1)
                end
              end
              else begin
                incr prune_resource;
                try_time (t + 1)
              end
            end
          in
          try_time lo
        end
      in
      assign 0
    in
    (* Two passes sharing one node budget: the clipped probe finds
       feasible schedules as fast as the historical search did; only
       when it comes back empty does the exhaustive pass run, turning
       "not found" into a proof (or, rarely, finding a schedule the
       clipped windows missed). *)
    let search () =
      if attempt ~clip:true then true
      else begin
        ran_phase2 := true;
        attempt ~clip:false
      end
    in
    let flush outcome_counter =
      if Obs.enabled () then begin
        Obs.incr "search/at_ii";
        Obs.add "search/nodes" (!nodes - start_nodes);
        Obs.observe_clamped "search/nodes_per_attempt" ~top:1024 (!nodes - start_nodes);
        Obs.incr "search/phase1_probes";
        if !ran_phase2 then Obs.incr "search/phase2_probes";
        Obs.add "search/prune_resource" !prune_resource;
        Obs.add "search/prune_window" !prune_window;
        Obs.add "search/prune_backtrack" !prune_backtrack;
        Obs.incr outcome_counter
      end
    in
    match search () with
    | exception Out_of_budget ->
        flush "search/gave_up";
        Gave_up
    | false ->
        flush "search/infeasible";
        Infeasible
    | true -> (
        flush "search/feasible";
        (* Normalize to non-negative times: a uniform shift preserves
           dependences and rotates the reservation table consistently. *)
        let lowest = Array.fold_left Stdlib.min time.(0) time in
        let shift = if lowest < 0 then -lowest else 0 in
        let time = Array.map (fun t -> t + shift) time in
        let schedule = Schedule.make ~ii ~times:time ~cycle_model in
        match Schedule.validate g resource schedule with
        | Ok () -> Feasible schedule
        | Error msg -> failwith ("Exact.at_ii: produced an invalid schedule: " ^ msg))
  end

let min_ii resource ~cycle_model ?max_nodes g =
  let mii = Mii.mii resource ~cycle_model g in
  (* One scratch path matrix shared by all (up to 32) II attempts. *)
  let n = Ddg.num_ops g in
  let scratch = Array.make_matrix n n neg_inf in
  let rec go ii attempts_left =
    if attempts_left = 0 then None
    else
      match at_ii resource ~cycle_model ~ii ?max_nodes ~scratch g with
      | Feasible s -> Some (ii, s)
      | Infeasible | Gave_up -> go (ii + 1) (attempts_left - 1)
  in
  let r = Obs.span "search/min_ii" (fun () -> go mii 32) in
  if Obs.enabled () then begin
    Obs.incr "search/runs";
    match r with
    | Some (ii, _) -> Obs.observe "search/ii_minus_mii" (ii - mii)
    | None -> Obs.incr "search/exhausted"
  end;
  r

(* Refinement driver: the heuristic result is both the upper bound and
   the fallback payload.  The exact search only ever has to decide the
   IIs in [mii, heuristic_ii - 1]; refuting all of them proves the
   heuristic optimal, finding a schedule at one of them improves it. *)
let solve resource ~cycle_model ?(max_nodes = 200_000) ?min_ii:minimum ?max_ii ?base g =
  Obs.span "exact/solve" @@ fun () ->
  let base =
    match base with
    | Some b -> b
    | None -> Modulo.run resource ~cycle_model ?min_ii:minimum ?max_ii g
  in
  let n = Ddg.num_ops g in
  let hii = base.Modulo.schedule.Schedule.ii in
  let mii =
    if n = 0 then hii
    else Stdlib.max (Mii.mii resource ~cycle_model g) (Option.value minimum ~default:1)
  in
  let finish status schedule ii nodes iis_refuted =
    if Obs.enabled () then begin
      Obs.add "exact/nodes" nodes;
      Obs.observe_clamped "exact/nodes_per_solve" ~top:1024 nodes;
      Obs.incr
        (match status with
        | Proved_optimal -> "exact/proved"
        | Feasible_unproved -> "exact/feasible"
        | Fallback -> "exact/fallback");
      if ii < hii then Obs.incr "exact/improved";
      Obs.observe "exact/gap" (hii - ii)
    end;
    { base; schedule; ii; mii; status; nodes; iis_refuted }
  in
  if n = 0 || hii <= mii then finish Proved_optimal base.Modulo.schedule hii 0 0
  else begin
    let scratch = Array.make_matrix n n neg_inf in
    let nodes = ref 0 in
    let rec go ii all_refuted =
      if ii >= hii then
        if all_refuted then
          (* Every II below the heuristic's refuted: proved optimal. *)
          finish Proved_optimal base.Modulo.schedule hii !nodes (hii - mii)
        else finish Fallback base.Modulo.schedule hii !nodes 0
      else
        match at_ii resource ~cycle_model ~ii ~max_nodes ~scratch ~nodes_out:nodes g with
        | Feasible s ->
            finish
              (if all_refuted then Proved_optimal else Feasible_unproved)
              s ii !nodes (ii - mii)
        | Infeasible -> go (ii + 1) all_refuted
        | Gave_up -> go (ii + 1) false
    in
    go mii true
  end
