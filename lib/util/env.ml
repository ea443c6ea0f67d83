let warned : (string, unit) Hashtbl.t = Hashtbl.create 8

let warned_mutex = Mutex.create ()

let warn_invalid ~name ~value ~expected ~default =
  Mutex.lock warned_mutex;
  let first = not (Hashtbl.mem warned name) in
  if first then Hashtbl.add warned name ();
  Mutex.unlock warned_mutex;
  if first then
    Printf.eprintf "warning: invalid %s value %S (expected %s); using %s\n%!" name value
      expected default

let parse_bool s =
  match String.lowercase_ascii (String.trim s) with
  | "1" | "true" | "yes" | "on" -> Some true
  | "0" | "false" | "no" | "off" | "" -> Some false
  | _ -> None

let bool ?(default = false) name =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse_bool s with
      | Some b -> b
      | None ->
          warn_invalid ~name ~value:s ~expected:"1/true/yes/on or 0/false/no/off"
            ~default:(if default then "the default (on)" else "the default (off)");
          default)
