(* A plain loop over a local ref: the native compiler keeps [h]
   unboxed, so only the returned value is allocated. *)
let fnv1a64_fold h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    let byte = Int64.of_int (Char.code (String.unsafe_get s i)) in
    h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
  done;
  !h

let fnv1a64 s = fnv1a64_fold 0xcbf29ce484222325L s

let hex64 h = Printf.sprintf "%016Lx" h

let line payload = Printf.sprintf "{\"p\":%s,\"c\":\"%s\"}\n" payload (hex64 (fnv1a64 payload))

let write ~path ~header ~records =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (line header);
      List.iter (fun r -> output_string oc (line r)) records)

let prefix = "{\"p\":"

(* ,"c":"0123456789abcdef"} *)
let suffix_len = 6 + 16 + 2

let parse_line lineno s =
  let n = String.length s in
  let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  if n < String.length prefix + suffix_len + 1 then fail "truncated ledger line"
  else if not (String.starts_with ~prefix s) then fail "missing ledger line prefix"
  else if not (String.sub s (n - 2) 2 = "\"}") then fail "missing ledger line suffix"
  else
    let payload_end = n - suffix_len in
    if String.sub s payload_end 4 <> ",\"c\"" || s.[payload_end + 4] <> ':'
       || s.[payload_end + 5] <> '"'
    then fail "malformed checksum field"
    else
      let payload = String.sub s (String.length prefix) (payload_end - String.length prefix) in
      let crc = String.sub s (payload_end + 6) 16 in
      if crc <> hex64 (fnv1a64 payload) then fail "checksum mismatch"
      else Ok payload

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | [] -> Error "empty ledger file"
  | lines -> (
      let rec parse_all i acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest -> (
            match parse_line i l with
            | Ok p -> parse_all (i + 1) (p :: acc) rest
            | Error _ as e -> e)
      in
      match parse_all 1 [] lines with
      | Error _ as e -> e
      | Ok [] -> Error "empty ledger file"
      | Ok (header :: records) -> Ok (header, records))
