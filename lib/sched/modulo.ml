module Ddg = Wr_ir.Ddg
module Operation = Wr_ir.Operation
module Opcode = Wr_ir.Opcode
module Cycle_model = Wr_machine.Cycle_model
module Resource = Wr_machine.Resource
module Obs = Wr_obs.Obs

type result = {
  schedule : Schedule.t;
  mii : int;
  res_mii : int;
  rec_mii : int;
  placements : int;
  evictions : int;
}

let empty_schedule ~cycle_model = Schedule.make ~ii:1 ~times:[||] ~cycle_model

(* height(v): longest weighted path out of v at the given II; the
   classic IMS priority.  Weights [delay - II * distance] admit no
   positive cycle once II >= RecMII, so upward value iteration from
   zero converges to the least fixpoint in at most n passes. *)
let cold_heights (view : Ddg.edge_view) delays ~ii ~n h =
  Array.fill h 0 n 0;
  let changed = ref true in
  let pass = ref 0 in
  while !changed && !pass <= n do
    changed := false;
    for e = 0 to view.Ddg.n_edges - 1 do
      let w = delays.(e) - (ii * view.Ddg.e_dist.(e)) in
      if w + h.(view.Ddg.e_dst.(e)) > h.(view.Ddg.e_src.(e)) then begin
        h.(view.Ddg.e_src.(e)) <- w + h.(view.Ddg.e_dst.(e));
        changed := true
      end
    done;
    incr pass
  done

let heights ~cycle_model g ~ii =
  let n = Ddg.num_ops g in
  let h = Array.make n 0 in
  cold_heights (Ddg.edge_view g) (Mii.edge_delays ~cycle_model g) ~ii ~n h;
  h

(* Reusable per-run working set: the II-escalation loop re-arms these
   buffers instead of allocating a fresh set per attempt. *)
type scratch = {
  n : int;
  h : int array;
  mutable h_ii : int;  (* II the heights currently describe; -1 = none *)
  time : int array;
  prev_time : int array;
  scheduled : bool array;
  order : int array;
  position : int array;
  op_cls : Opcode.resource_class array;
  op_occ : int array;
  mrt : Mrt.t;
}

let make_scratch resource ~cycle_model g =
  let n = Ddg.num_ops g in
  let ops = Ddg.ops g in
  {
    n;
    h = Array.make n 0;
    h_ii = -1;
    time = Array.make n (-1);
    prev_time = Array.make n (-1);
    scheduled = Array.make n false;
    order = Array.init n (fun i -> i);
    position = Array.make n 0;
    op_cls =
      Array.map (fun (o : Operation.t) -> Opcode.resource_class o.Operation.opcode) ops;
    op_occ =
      Array.map
        (fun (o : Operation.t) -> Cycle_model.occupancy cycle_model o.Operation.opcode)
        ops;
    mrt = Mrt.create ~ii:1 resource;
  }

(* Bring [s.h] to the heights for [ii].  When the scratch already holds
   the heights of a smaller II and [ii > rec_mii], warm-start instead of
   recomputing from zero: larger II means smaller edge weights, so the
   previous fixpoint h0 satisfies F(h0) <= h0, and Gauss-Seidel
   per-node recomputation from it decreases monotonically to the
   fixpoint — which is unique above RecMII (every cycle weight is
   strictly negative), hence exactly the cold-start least fixpoint.
   The pass cap is a safety net only; on hitting it we recompute cold,
   so the result never depends on the warm path converging. *)
let heights_into (view : Ddg.edge_view) delays ~ii ~rec_mii s =
  if s.h_ii <> ii then begin
    let n = s.n and h = s.h in
    let warm = s.h_ii >= 0 && s.h_ii < ii && ii > rec_mii in
    let converged = ref false in
    if warm then begin
      let changed = ref true in
      let pass = ref 0 in
      while !changed && !pass <= n do
        changed := false;
        for v = 0 to n - 1 do
          let nh = ref 0 in
          for k = view.Ddg.succ_off.(v) to view.Ddg.succ_off.(v + 1) - 1 do
            let e = view.Ddg.succ_edges.(k) in
            let c = delays.(e) - (ii * view.Ddg.e_dist.(e)) + h.(view.Ddg.e_dst.(e)) in
            if c > !nh then nh := c
          done;
          if !nh <> h.(v) then begin
            h.(v) <- !nh;
            changed := true
          end
        done;
        incr pass
      done;
      converged := not !changed
    end;
    if not !converged then cold_heights view delays ~ii ~n h;
    s.h_ii <- ii
  end

(* One scheduling attempt at a fixed II.  Returns the times array and
   the number of placements used, or None on budget exhaustion. *)
let attempt ~cycle_model g ~view ~delays ~ii ~rec_mii ~critical ~budget ~ordering s =
  let n = s.n in
  heights_into view delays ~ii ~rec_mii s;
  let h = s.h in
  Mrt.reset s.mrt ~ii;
  let mrt = s.mrt in
  let time = s.time
  and prev_time = s.prev_time
  and scheduled = s.scheduled
  and op_cls = s.op_cls
  and op_occ = s.op_occ in
  Array.fill time 0 n (-1);
  Array.fill prev_time 0 n (-1);
  Array.fill scheduled 0 n false;
  let num_scheduled = ref 0 in
  let placements = ref 0 in
  (* Telemetry tallies are kept in plain refs and flushed once per
     attempt, so the placement loop pays nothing for them. *)
  let evictions = ref 0 in
  let forces = ref 0 in
  (* Static priority order.  IMS: critical recurrences first, then
     greater height, then lower id for determinism.  SMS: the
     lifetime-sensitive swing order.  A cursor walks the order;
     evictions rewind it, so pick() is O(1) amortized instead of a
     linear scan per placement. *)
  let order = s.order in
  (match ordering with
  | `Sms -> Array.blit (Sms_order.compute ~cycle_model g ~ii) 0 order 0 n
  | `Ims ->
      (* The comparator is a total order, so sorting whatever
         permutation the previous attempt left behind is
         deterministic. *)
      Array.sort
        (fun a b ->
          match compare critical.(b) critical.(a) with
          | 0 -> ( match compare h.(b) h.(a) with 0 -> compare a b | c -> c)
          | c -> c)
        order);
  let position = s.position in
  Array.iteri (fun pos i -> position.(i) <- pos) order;
  let cursor = ref 0 in
  let unschedule q =
    Mrt.remove mrt op_cls.(q) ~time:time.(q) ~occupancy:op_occ.(q);
    scheduled.(q) <- false;
    decr num_scheduled;
    incr evictions;
    if position.(q) < !cursor then cursor := position.(q)
  in
  let pick () =
    while !cursor < n && scheduled.(order.(!cursor)) do
      incr cursor
    done;
    order.(!cursor)
  in
  let estart op =
    let acc = ref 0 in
    for k = view.Ddg.pred_off.(op) to view.Ddg.pred_off.(op + 1) - 1 do
      let e = view.Ddg.pred_edges.(k) in
      let src = view.Ddg.e_src.(e) in
      if src <> op && scheduled.(src) then begin
        let b = time.(src) + delays.(e) - (ii * view.Ddg.e_dist.(e)) in
        if b > !acc then acc := b
      end
    done;
    !acc
  in
  (* max_int means "no scheduled successor". *)
  let lend op =
    let acc = ref max_int in
    for k = view.Ddg.succ_off.(op) to view.Ddg.succ_off.(op + 1) - 1 do
      let e = view.Ddg.succ_edges.(k) in
      let dst = view.Ddg.e_dst.(e) in
      if dst <> op && scheduled.(dst) then begin
        let b = time.(dst) - delays.(e) + (ii * view.Ddg.e_dist.(e)) in
        if b < !acc then acc := b
      end
    done;
    !acc
  in
  let has_sched_pred op =
    let rec go k =
      k < view.Ddg.pred_off.(op + 1)
      &&
      let src = view.Ddg.e_src.(view.Ddg.pred_edges.(k)) in
      (src <> op && scheduled.(src)) || go (k + 1)
    in
    go view.Ddg.pred_off.(op)
  in
  let try_place op t =
    if t < 0 then false
    else if Mrt.can_place mrt op_cls.(op) ~time:t ~occupancy:op_occ.(op) then begin
      Mrt.place mrt op_cls.(op) ~time:t ~occupancy:op_occ.(op);
      time.(op) <- t;
      prev_time.(op) <- t;
      scheduled.(op) <- true;
      incr num_scheduled;
      true
    end
    else false
  in
  (* After placing [op] at [t], unschedule any scheduled successor the
     placement pushed out of legality (Rau's eviction rule). *)
  let evict_violated_succs op t =
    for k = view.Ddg.succ_off.(op) to view.Ddg.succ_off.(op + 1) - 1 do
      let e = view.Ddg.succ_edges.(k) in
      let dst = view.Ddg.e_dst.(e) in
      if
        dst <> op && scheduled.(dst)
        && time.(dst) < t + delays.(e) - (ii * view.Ddg.e_dist.(e))
      then unschedule dst
    done
  in
  let force op t =
    (* Evict same-class operations until the slot frees up, then any
       scheduled successor whose constraint the new placement breaks. *)
    incr forces;
    let t = Stdlib.max t 0 in
    let evictable = ref [] in
    for q = 0 to n - 1 do
      if q <> op && scheduled.(q) && op_cls.(q) = op_cls.(op) then evictable := q :: !evictable
    done;
    (* Evict lower-priority victims first. *)
    let victims =
      List.sort (fun a b -> compare (critical.(a), h.(a)) (critical.(b), h.(b))) !evictable
    in
    let rec evict = function
      | [] -> ()
      | q :: rest ->
          if not (Mrt.can_place mrt op_cls.(op) ~time:t ~occupancy:op_occ.(op)) then begin
            unschedule q;
            evict rest
          end
      in
    evict victims;
    if not (try_place op t) then
      (* Should be impossible: with every same-class op evicted the
         table is empty for this class. *)
      failwith "Modulo.force: could not place after full eviction";
    evict_violated_succs op t
  in
  let ok = ref true in
  while !ok && !num_scheduled < n do
    if !placements >= budget then ok := false
    else begin
      incr placements;
      let op = pick () in
      let lo = estart op in
      (* Preferred window respects scheduled successors (keeps
         lifetimes short, HRMS-style); if it has no free slot, fall
         back to Rau's full [Estart, Estart+II-1] resource scan and
         evict the successors the placement invalidates — without this
         fallback, an op whose consumers sit early can only creep
         forward one slot per visit and the budget drains without
         progress.  Forcing is the last resort. *)
      let fallback () =
        let hi = lo + ii - 1 in
        let rec up t = if t > hi then None else if try_place op t then Some t else up (t + 1) in
        match up lo with
        | Some t -> evict_violated_succs op t
        | None ->
            force op (if prev_time.(op) >= 0 then Stdlib.max lo (prev_time.(op) + 1) else lo)
      in
      let le = lend op in
      if le <> max_int && not (has_sched_pred op) then begin
        (* Only consumers are placed: sit as close below them as
           possible (ALAP) to shorten the produced lifetime. *)
        let lo' = Stdlib.max lo (le - ii + 1) in
        let rec down t =
          if t < lo' then None else if try_place op t then Some () else down (t - 1)
        in
        match down le with Some () -> () | None -> fallback ()
      end
      else begin
        let hi = if le <> max_int then Stdlib.min le (lo + ii - 1) else lo + ii - 1 in
        let rec up t = if t > hi then None else if try_place op t then Some () else up (t + 1) in
        match up lo with Some () -> () | None -> fallback ()
      end
    end
  done;
  if Obs.enabled () then begin
    Obs.incr "sched/attempts";
    Obs.add "sched/evictions" !evictions;
    Obs.add "sched/forces" !forces;
    if not !ok then Obs.incr "sched/budget_exhausted"
  end;
  ((if !ok then Some (Array.copy time) else None), !placements, !evictions)

let run resource ~cycle_model ?(budget_ratio = 8) ?(min_ii = 1) ?max_ii ?(ordering = `Ims) g =
  let n = Ddg.num_ops g in
  let res_mii = Mii.res_mii resource ~cycle_model g in
  let rec_mii = Mii.rec_mii ~cycle_model g in
  let mii = Stdlib.max res_mii rec_mii in
  if min_ii < 1 then invalid_arg "Modulo.run: min_ii must be positive";
  if n = 0 then
    {
      schedule = empty_schedule ~cycle_model;
      mii = 1;
      res_mii;
      rec_mii;
      placements = 0;
      evictions = 0;
    }
  else begin
    let view = Ddg.edge_view g in
    let delays = Mii.edge_delays ~cycle_model g in
    let default_max =
      let bus, fpu = Resource.total_slot_demand resource ~cycle_model g in
      let total_delay = Array.fold_left ( + ) 0 delays in
      bus + fpu + total_delay + Stdlib.max mii min_ii + 1
    in
    let max_ii = match max_ii with Some m -> m | None -> default_max in
    let critical = Mii.critical_recurrence_ops ~cycle_model g ~ii:rec_mii in
    let budget = Stdlib.max 32 (budget_ratio * n) in
    let s = make_scratch resource ~cycle_model g in
    let total_placements = ref 0 in
    let total_evictions = ref 0 in
    let rec loop ii =
      if ii > max_ii then
        failwith
          (Printf.sprintf "Modulo.run: no schedule found up to II=%d (%d ops)" max_ii n)
      else
        (* The swing order has no backtracking discipline of its own;
           if it cannot close a schedule near the MII, fall back to the
           eviction-hardened IMS priority for the larger IIs. *)
        let ordering = if ordering = `Sms && ii > mii + 4 then `Ims else ordering in
        match attempt ~cycle_model g ~view ~delays ~ii ~rec_mii ~critical ~budget ~ordering s with
        | Some times, p, e ->
            total_placements := !total_placements + p;
            total_evictions := !total_evictions + e;
            let schedule = Schedule.make ~ii ~times ~cycle_model in
            (match Schedule.validate g resource schedule with
            | Ok () -> schedule
            | Error msg -> failwith ("Modulo.run: invalid schedule produced: " ^ msg))
        | None, _, e ->
            total_placements := !total_placements + budget;
            total_evictions := !total_evictions + e;
            loop (ii + 1)
    in
    let start_ii = Stdlib.max mii min_ii in
    let schedule = Obs.span "sched/modulo" (fun () -> loop start_ii) in
    if Obs.enabled () then begin
      Obs.incr "sched/runs";
      (* II escalation above the first II tried: the paper's retry
         distribution (0 = scheduled at the MII).  Clamped: pathological
         escalations land in one overflow bucket instead of spraying
         bins. *)
      Obs.observe_clamped "sched/ii_minus_start" ~top:64 (schedule.Schedule.ii - start_ii);
      Obs.add "sched/placements" !total_placements
    end;
    {
      schedule;
      mii;
      res_mii;
      rec_mii;
      placements = !total_placements;
      evictions = !total_evictions;
    }
  end
