type t = { array_id : int; stride : int; offset : int }

let make ~array_id ~stride ~offset = { array_id; stride; offset }

let address_at t ~iteration = (t.stride * iteration) + t.offset

type conflict = No_conflict | At_distance of int | Unknown

let conflict a b =
  if a.array_id <> b.array_id then No_conflict
  else if a.stride = b.stride then
    if a.stride = 0 then if a.offset = b.offset then At_distance 0 else No_conflict
    else
      (* a at iteration i touches s*i + oa; b at i + d touches
         s*(i+d) + ob.  Equality for all i requires s*d = oa - ob. *)
      let diff = a.offset - b.offset in
      if diff mod a.stride <> 0 then No_conflict
      else
        let d = diff / a.stride in
        if d >= 0 then At_distance d else No_conflict
  else
    (* Different strides: the accesses sweep the array at different
       rates; whether they collide depends on the trip count.  Be
       conservative. *)
    Unknown

let consecutive a b =
  a.array_id = b.array_id && a.stride = b.stride && b.offset = a.offset + 1

let equal a b = a.array_id = b.array_id && a.stride = b.stride && a.offset = b.offset

let to_string t = Printf.sprintf "A%d[%d*i%+d]" t.array_id t.stride t.offset

let pp fmt t = Format.pp_print_string fmt (to_string t)
