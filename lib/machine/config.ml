type t = { buses : int; fpus : int; width : int; registers : int; partitions : int }

let make ~buses ~fpus ~width ~registers ?(partitions = 1) () =
  if buses <= 0 then invalid_arg "Config.make: buses must be positive";
  if fpus <= 0 then invalid_arg "Config.make: fpus must be positive";
  if width <= 0 then invalid_arg "Config.make: width must be positive";
  if registers <= 0 then invalid_arg "Config.make: registers must be positive";
  if partitions <= 0 then invalid_arg "Config.make: partitions must be positive";
  if partitions > buses then invalid_arg "Config.make: more partitions than buses";
  if buses mod partitions <> 0 || fpus mod partitions <> 0 then
    invalid_arg "Config.make: partitions must divide both buses and fpus";
  { buses; fpus; width; registers; partitions }

let xwy ?(registers = 256) ?(partitions = 1) ~x ~y () =
  make ~buses:x ~fpus:(2 * x) ~width:y ~registers ~partitions ()

let factor t = t.buses * t.width

let read_ports t = (2 * t.fpus) + t.buses

let write_ports t = t.fpus + t.buses

let read_ports_per_partition t = read_ports t / t.partitions

let write_ports_per_partition t = write_ports t

let bits_per_register t = 64 * t.width

let label_short t =
  if t.fpus = 2 * t.buses then Printf.sprintf "%dw%d" t.buses t.width
  else Printf.sprintf "%db%df_w%d" t.buses t.fpus t.width

let label t =
  if t.partitions = 1 && t.registers = 256 then label_short t
  else if t.partitions = 1 then Printf.sprintf "%s(%d)" (label_short t) t.registers
  else Printf.sprintf "%s(%d:%d)" (label_short t) t.registers t.partitions

let parse s =
  (* Accepted forms: XwY, XwY(Z), XwY(Z:n). *)
  let fail () = Error (Printf.sprintf "Config.parse: cannot parse %S" s) in
  let parse_int str = int_of_string_opt (String.trim str) in
  let body, suffix =
    match String.index_opt s '(' with
    | None -> (s, None)
    | Some i ->
        if String.length s = 0 || s.[String.length s - 1] <> ')' then (s, None)
        else (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 2)))
  in
  match String.split_on_char 'w' body with
  | [ xs; ys ] -> (
      match (parse_int xs, parse_int ys) with
      | Some x, Some y when x > 0 && y > 0 -> (
          let finish registers partitions =
            match
              make ~buses:x ~fpus:(2 * x) ~width:y ~registers ~partitions ()
            with
            | cfg -> Ok cfg
            | exception Invalid_argument msg -> Error msg
          in
          match suffix with
          | None -> finish 256 1
          | Some suf -> (
              match String.split_on_char ':' suf with
              | [ zs ] -> (
                  match parse_int zs with Some z -> finish z 1 | None -> fail ())
              | [ zs; ns ] -> (
                  match (parse_int zs, parse_int ns) with
                  | Some z, Some n -> finish z n
                  | _ -> fail ())
              | _ -> fail ()))
      | _ -> fail ())
  | _ -> fail ()

let valid_partitions t =
  let rec divisors n acc =
    if n = 0 then List.rev acc
    else divisors (n - 1) (if t.buses mod n = 0 && t.fpus mod n = 0 then n :: acc else acc)
  in
  List.rev (divisors t.buses [])

let paper_grid ~max_factor ~registers =
  let rec powers_upto acc p = if p > max_factor then List.rev acc else powers_upto (p :: acc) (2 * p) in
  let factors = List.filter (fun f -> f > 1) (powers_upto [] 1) in
  List.concat_map
    (fun f ->
      (* Descending X: pure replication first, pure widening last. *)
      let rec splits x acc = if x = 0 then List.rev acc else splits (x / 2) ((x, f / x) :: acc) in
      let xys = splits f [] in
      List.concat_map
        (fun (x, y) -> List.map (fun z -> xwy ~registers:z ~x ~y ()) registers)
        xys)
    factors

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Stdlib.compare a b

let pp fmt t = Format.pp_print_string fmt (label t)
