type json =
  | Null
  | Bool of bool
  | Num of float * string
  | Str of string
  | List of json list
  | Obj of (string * json) list

let int n = Num (float_of_int n, string_of_int n)

let float ?(fmt = Printf.sprintf "%.17g") f = Num (f, fmt f)

let str s = Str s

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_float = function Num (f, _) -> Some f | _ -> None

let to_int = function
  | Num (f, _) when Float.is_integer f && Float.abs f <= 2. ** 52. -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* --- printing ----------------------------------------------------------- *)

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num (_, lit) -> Buffer.add_string buf lit
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          emit buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

(* Committed artifacts: one top-level key per line; lists put one
   (compact) element per line so a changed row is one changed line. *)
let to_file_string v =
  let buf = Buffer.create 4096 in
  (match v with
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (Printf.sprintf "  \"%s\": " (escape k));
          match v with
          | List (_ :: _ as items) ->
              Buffer.add_string buf "[\n";
              List.iteri
                (fun j item ->
                  if j > 0 then Buffer.add_string buf ",\n";
                  Buffer.add_string buf "    ";
                  emit buf item)
                items;
              Buffer.add_string buf "\n  ]"
          | v -> emit buf v)
        fields;
      Buffer.add_string buf "\n}"
  | v -> emit buf v);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | Some code ->
                       utf8_of_code buf code;
                       pos := !pos + 4
                   | None -> fail "bad \\u escape")
               | c -> fail (Printf.sprintf "bad escape \\%C" c));
            go ()
        | c when Char.code c < 32 -> fail "raw control character in string"
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num (f, lit)
    | None -> fail (Printf.sprintf "bad number %S" lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          items_loop ();
          List (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- envelope ----------------------------------------------------------- *)

let version = "wr-bench/2"

let envelope ~kind payload = Obj (("schema", Str version) :: ("kind", Str kind) :: payload)

(* Required payload keys per kind, with a coarse type tag. *)
let required = function
  | "gap" ->
      Some
        [
          ("suite", `Str);
          ("points", `Num);
          ("proved_optimal", `Num);
          ("rows", `List);
        ]
  | _ -> None

let validate v =
  match v with
  | Obj _ -> (
      match member "schema" v with
      | Some (Str sv) when sv = version -> (
          match member "kind" v with
          | Some (Str kind) -> (
              match required kind with
              | None -> Error (Printf.sprintf "unknown kind %S" kind)
              | Some keys ->
                  let bad =
                    List.find_map
                      (fun (k, ty) ->
                        match (member k v, ty) with
                        | None, _ -> Some (Printf.sprintf "missing key %S" k)
                        | Some (Str _), `Str | Some (Num _), `Num | Some (List _), `List ->
                            None
                        | Some _, _ -> Some (Printf.sprintf "key %S has the wrong type" k))
                      keys
                  in
                  (match bad with None -> Ok kind | Some msg -> Error msg))
          | _ -> Error "missing or non-string \"kind\"")
      | Some (Str sv) -> Error (Printf.sprintf "schema %S (this build reads %S)" sv version)
      | _ -> Error "missing \"schema\" tag (pre-envelope artifact?)")
  | _ -> Error "top-level value is not an object"

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> parse contents

let write_file path v =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_file_string v))
