type assignment = { vreg : int; register : int; whole_registers : int }

type t = { required : int; max_lives : int; assignments : assignment list; ii : int }

let allocate ~ii lifetimes =
  let max_lives = Lifetime.max_lives ~ii lifetimes in
  let lts = Array.of_list lifetimes in
  let n = Array.length lts in
  (* Every lifetime takes [length / II] whole registers plus, when
     [len.(i) > 0], a residual arc [start.(i), start.(i) + len.(i)) on
     the ring of circumference II. *)
  let start = Array.map (fun (lt : Lifetime.t) -> ((lt.Lifetime.start mod ii) + ii) mod ii) lts in
  let len = Array.map (fun lt -> Lifetime.length lt mod ii) lts in
  let register = Array.make n (-1) in
  (* Bucket the arcs by start slot: [arcs] lists them by (start,
     length, input position), and the unconsumed arcs of bucket [s] are
     [arcs.(head.(s)) .. arcs.(limit.(s) - 1)], shortest first. *)
  let arcs = Array.of_list (List.filter (fun i -> len.(i) > 0) (List.init n Fun.id)) in
  Array.sort
    (fun a b ->
      match Int.compare start.(a) start.(b) with
      | 0 -> ( match Int.compare len.(a) len.(b) with 0 -> Int.compare a b | c -> c)
      | c -> c)
    arcs;
  let head = Array.make ii 0 and limit = Array.make ii 0 in
  for k = Array.length arcs - 1 downto 0 do
    let s = start.(arcs.(k)) in
    head.(s) <- k;
    if limit.(s) = 0 then limit.(s) <- k + 1
  done;
  (* Adjacency ordering with end-fit (PLDI-92): build each register as
     a chain of arcs, always appending the remaining arc whose start
     follows the chain's current end with the smallest gap, until no
     arc fits in the ring space the register has left.  The gap depends
     only on the start slot, and a bucket's shortest arc fits whenever
     any of its arcs does, so scanning the buckets forward from the
     chain's end finds that arc at the first bucket whose head fits. *)
  let num_registers = ref 0 and left = ref (Array.length arcs) and low = ref 0 in
  while !left > 0 do
    let reg = !num_registers in
    incr num_registers;
    let take s =
      let i = arcs.(head.(s)) in
      head.(s) <- head.(s) + 1;
      decr left;
      register.(i) <- reg;
      i
    in
    (* Seed the chain with the earliest-starting remaining arc: the
       head of the lowest non-empty bucket, which never moves down. *)
    while head.(!low) = limit.(!low) do
      incr low
    done;
    let i0 = take !low in
    (* [used] counts the ring slots the chain has consumed past its
       seed's start; the register is full once it reaches II. *)
    let used = ref len.(i0) in
    let current_end = ref ((start.(i0) + len.(i0)) mod ii) in
    let gap = ref 0 in
    while !used + !gap < ii do
      let s = !current_end + !gap in
      let s = if s >= ii then s - ii else s in
      if head.(s) < limit.(s) && !used + !gap + len.(arcs.(head.(s))) <= ii then begin
        let i = take s in
        used := !used + !gap + len.(i);
        current_end := (s + len.(i)) mod ii;
        gap := 0
      end
      else incr gap
    done
  done;
  (* Assignments in ascending vreg order.  [Lifetime.of_schedule]
     returns its lifetimes in that order already, so a probe skips the
     sort. *)
  let order = Array.init n Fun.id in
  let rec ascending i =
    i >= n || (lts.(i - 1).Lifetime.vreg < lts.(i).Lifetime.vreg && ascending (i + 1))
  in
  if not (ascending 1) then
    Array.sort (fun a b -> Int.compare lts.(a).Lifetime.vreg lts.(b).Lifetime.vreg) order;
  let assignments =
    Array.fold_right
      (fun i acc ->
        let lt = lts.(i) in
        { vreg = lt.Lifetime.vreg; register = register.(i); whole_registers = Lifetime.length lt / ii }
        :: acc)
      order []
  in
  let whole_total = List.fold_left (fun acc a -> acc + a.whole_registers) 0 assignments in
  { required = whole_total + !num_registers; max_lives; assignments; ii }

let fits t ~available = t.required <= available

let pp fmt t =
  Format.fprintf fmt "alloc: %d registers required (MaxLives %d, II %d)" t.required t.max_lives
    t.ii
