type align = Left | Right | Center

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let gap = width - n in
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s
    | Center ->
        let l = gap / 2 in
        String.make l ' ' ^ s ^ String.make (gap - l) ' '

let rule widths =
  "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"

let render ?title ~headers ?aligns rows =
  let ncols =
    List.fold_left (fun acc r -> Stdlib.max acc (List.length r)) (List.length headers) rows
  in
  let get lst i = match List.nth_opt lst i with Some x -> x | None -> "" in
  let aligns =
    match aligns with
    | Some a -> Array.init ncols (fun i -> match List.nth_opt a i with Some x -> x | None -> Right)
    | None -> Array.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths = Array.make ncols 0 in
  let feed row =
    List.iteri (fun i cell -> widths.(i) <- Stdlib.max widths.(i) (String.length cell)) row
  in
  feed headers;
  List.iter feed rows;
  let widths = Array.to_list widths in
  let line row =
    let cells =
      List.mapi
        (fun i w -> " " ^ pad (Array.get aligns i) w (get row i) ^ " ")
        widths
    in
    "|" ^ String.concat "|" cells ^ "|"
  in
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (rule widths);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (line headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (rule widths);
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (line r);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf (rule widths);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let bar_chart ?title ?(width = 50) ?(unit = "") entries =
  let vmax = List.fold_left (fun acc (_, v) -> Stdlib.max acc v) 0.0 entries in
  let label_w =
    List.fold_left (fun acc (l, _) -> Stdlib.max acc (String.length l)) 0 entries
  in
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n'
  | None -> ());
  List.iter
    (fun (label, v) ->
      if v < 0.0 then invalid_arg "Table.bar_chart: negative value";
      let n =
        if vmax = 0.0 then 0 else int_of_float (Float.round (v /. vmax *. float_of_int width))
      in
      Buffer.add_string buf
        (Printf.sprintf "%s | %s %.3f%s\n" (pad Left label_w label) (String.make n '#') v unit))
    entries;
  Buffer.contents buf

(* Shared plotting grid for [scatter] and [series_chart]. *)
let plot_grid ?title ?(width = 64) ?(height = 20) ?(x_label = "") ?(y_label = "") points =
  match points with
  | [] -> "(no points)\n"
  | _ ->
      let xs = List.map (fun (_, x, _) -> x) points in
      let ys = List.map (fun (_, _, y) -> y) points in
      let xmin = List.fold_left Stdlib.min (List.hd xs) xs in
      let xmax = List.fold_left Stdlib.max (List.hd xs) xs in
      let ymin = List.fold_left Stdlib.min (List.hd ys) ys in
      let ymax = List.fold_left Stdlib.max (List.hd ys) ys in
      let xspan = if xmax = xmin then 1.0 else xmax -. xmin in
      let yspan = if ymax = ymin then 1.0 else ymax -. ymin in
      let grid = Array.make_matrix height width ' ' in
      List.iter
        (fun (c, x, y) ->
          let i = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
          let j = int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)) in
          let j = height - 1 - j in
          grid.(j).(i) <- c)
        points;
      let buf = Buffer.create 2048 in
      (match title with
      | Some t ->
          Buffer.add_string buf t;
          Buffer.add_char buf '\n'
      | None -> ());
      if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
      Buffer.add_string buf (Printf.sprintf "%10.3f +\n" ymax);
      Array.iter
        (fun row ->
          Buffer.add_string buf "           |";
          Buffer.add_string buf (String.init width (Array.get row));
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (Printf.sprintf "%10.3f +%s\n" ymin (String.make width '-'));
      Buffer.add_string buf
        (Printf.sprintf "            %.3f%s%.3f  %s\n" xmin
           (String.make (Stdlib.max 1 (width - 16)) ' ')
           xmax x_label);
      Buffer.contents buf

let scatter ?title ?width ?height ?x_label ?y_label labelled_points =
  let points =
    List.map
      (fun (label, x, y) ->
        let c = if String.length label = 0 then '*' else label.[0] in
        (c, x, y))
      labelled_points
  in
  let body = plot_grid ?title ?width ?height ?x_label ?y_label points in
  let legend =
    List.map
      (fun (label, x, y) ->
        let c = if String.length label = 0 then '*' else label.[0] in
        Printf.sprintf "  %c = %-20s (%.3f, %.3f)" c label x y)
      labelled_points
  in
  body ^ String.concat "\n" legend ^ "\n"

let series_chart ?title ?width ?height ~series () =
  let marks = "*o+x#@%&=~" in
  let points =
    List.concat
      (List.mapi
         (fun i (_, pts) ->
           let c = marks.[i mod String.length marks] in
           List.map (fun (x, y) -> (c, x, y)) pts)
         series)
  in
  let body = plot_grid ?title ?width ?height points in
  let legend =
    List.mapi
      (fun i (name, _) -> Printf.sprintf "  %c = %s" marks.[i mod String.length marks] name)
      series
  in
  body ^ String.concat "\n" legend ^ "\n"
