type entry = {
  hash : int64;
  ii : int;
  cycles_bits : int64;
  required_regs : int;
  spill_stores : int;
  spill_loads : int;
  spill_rounds : int;
  pipelined : bool;
  mii : int;
  trip_count : int;
}

type recovery = {
  segments : int;
  entries : int;
  quarantined_segments : int;
  truncated_bytes : int;
}

exception Locked of string

type t = {
  dir : string;
  lock : Wr_util.Lockfile.t;
  table : (int64, entry) Hashtbl.t;
  buf : Buffer.t;
  segment_records : int;
  mutable fd : Unix.file_descr;
  mutable active_seg : int;  (** number of the segment [fd] appends to *)
  mutable active_count : int;  (** records in the active segment *)
  mutable pending : int;
  mutable appended : int;
  mutable closed : bool;
  mutex : Mutex.t;
}

let version_tag = "wrstore/1"

let header_line = version_tag ^ "\n"

let batch_records = 64

let default_segment_records = 4096

let line_of_entry e =
  let payload =
    Printf.sprintf "e %Lx %d %Lx %d %d %d %d %d %d %d" e.hash e.ii e.cycles_bits
      e.required_regs e.spill_stores e.spill_loads e.spill_rounds
      (if e.pipelined then 1 else 0)
      e.mii e.trip_count
  in
  Printf.sprintf "%s %Lx\n" payload (Wr_obs.Ledger.fnv1a64 payload)

let entry_of_line line =
  match String.split_on_char ' ' line with
  | [ "e"; hash; ii; bits; required; stores; loads; rounds; pipelined; mii; trip; crc ] -> (
      let payload = String.sub line 0 (String.length line - String.length crc - 1) in
      if not (String.equal (Printf.sprintf "%Lx" (Wr_obs.Ledger.fnv1a64 payload)) crc) then None
      else
        try
          let int s = int_of_string s in
          Some
            {
              hash = Int64.of_string ("0x" ^ hash);
              ii = int ii;
              cycles_bits = Int64.of_string ("0x" ^ bits);
              required_regs = int required;
              spill_stores = int stores;
              spill_loads = int loads;
              spill_rounds = int rounds;
              pipelined = (match pipelined with "1" -> true | "0" -> false | _ -> raise Exit);
              mii = int mii;
              trip_count = int trip;
            }
        with _ -> None)
  | _ -> None

let segment_name n = Printf.sprintf "seg-%06d.wrs" n

let segment_path dir n = Filename.concat dir (segment_name n)

let segment_number name =
  if String.length name = 14 && String.sub name 0 4 = "seg-" && Filename.check_suffix name ".wrs"
  then int_of_string_opt (String.sub name 4 6)
  else None

let list_segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun name ->
         match segment_number name with Some n -> Some (n, name) | None -> None)
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

(* Scan one segment: a good header followed by intact record lines.
   Returns the header verdict, the intact entries in file order, the
   byte length of the intact prefix, and whether anything beyond it
   remains in the file. *)
type scan = {
  s_header_ok : bool;
  s_entries : entry list;
  s_valid_len : int;
  s_has_tail : bool;
  s_records : int;
}

let scan_segment path =
  let contents = read_file path in
  let n = String.length contents in
  let hlen = String.length header_line in
  if n < hlen || not (String.equal (String.sub contents 0 hlen) header_line) then
    { s_header_ok = false; s_entries = []; s_valid_len = 0; s_has_tail = n > 0; s_records = 0 }
  else begin
    let entries = ref [] in
    let records = ref 0 in
    let ok = ref hlen in
    let pos = ref hlen in
    (try
       while !pos < n do
         match String.index_from_opt contents !pos '\n' with
         | None -> raise Exit
         | Some nl -> (
             match entry_of_line (String.sub contents !pos (nl - !pos)) with
             | None -> raise Exit
             | Some e ->
                 entries := e :: !entries;
                 incr records;
                 pos := nl + 1;
                 ok := !pos)
       done
     with Exit -> ());
    {
      s_header_ok = true;
      s_entries = List.rev !entries;
      s_valid_len = !ok;
      s_has_tail = !ok < n;
      s_records = !records;
    }
  end

(* Move a damaged segment aside without destroying the evidence; pick a
   fresh name if a previous recovery already parked one there. *)
let quarantine_rename path =
  let rec pick i =
    let candidate = if i = 0 then path ^ ".quarantined" else Printf.sprintf "%s.quarantined.%d" path i in
    if Sys.file_exists candidate then pick (i + 1) else candidate
  in
  Sys.rename path (pick 0)

(* Atomically replace a sealed segment with just its intact prefix
   (write a sibling temp file, then rename over). *)
let rewrite_prefix path entries =
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Buffer.create 4096 in
      Buffer.add_string b header_line;
      List.iter (fun e -> Buffer.add_string b (line_of_entry e)) entries;
      write_all fd (Buffer.contents b);
      Unix.fsync fd);
  Sys.rename tmp path

let fsync_dir dir =
  (* Make renames and creations durable on filesystems that need the
     directory entry synced; best-effort elsewhere. *)
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let open_dir ?(segment_records = default_segment_records) dir =
  if segment_records < 1 then invalid_arg "Store.open_dir: segment_records must be >= 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Store.open_dir: %s exists and is not a directory" dir);
  let lock =
    match Wr_util.Lockfile.acquire (Filename.concat dir "LOCK") with
    | Ok l -> l
    | Error msg -> raise (Locked (Printf.sprintf "store %s: %s" dir msg))
  in
  match
    let table = Hashtbl.create 4096 in
    let quarantined = ref 0 in
    let truncated = ref 0 in
    let segs = list_segments dir in
    let last = match List.rev segs with [] -> None | (n, _) :: _ -> Some n in
    let surviving = ref [] in
    List.iter
      (fun (n, name) ->
        let path = Filename.concat dir name in
        let s = scan_segment path in
        if not s.s_header_ok then begin
          (* Wrong or missing version header: nothing in the file can be
             trusted, park the whole segment. *)
          quarantine_rename path;
          incr quarantined
        end
        else begin
          if s.s_has_tail then
            if Some n = last then begin
              (* Torn tail of the newest segment: the crash interrupted
                 an append; drop the tail and keep appending here. *)
              truncated := !truncated + ((Unix.stat path).Unix.st_size - s.s_valid_len)
            end
            else begin
              (* Corruption inside a sealed segment: park the original
                 and keep its intact prefix as the replacement. *)
              quarantine_rename path;
              rewrite_prefix path s.s_entries;
              incr quarantined
            end;
          (* Earliest segment wins a duplicate hash, matching the
             first-store-wins discipline of the in-memory caches. *)
          List.iter
            (fun e -> if not (Hashtbl.mem table e.hash) then Hashtbl.add table e.hash e)
            s.s_entries;
          surviving := (n, s) :: !surviving
        end)
      segs;
    let active_seg, active_count, valid_len =
      match !surviving with
      | (n, s) :: _ when Some n = last -> (n, s.s_records, s.s_valid_len)
      | _ -> (
          (* No usable newest segment (empty dir, or it was quarantined
             whole): start a fresh one after the highest number ever
             used, so a parked segment's name is never reused. *)
          match List.rev segs with [] -> (1, 0, -1) | (n, _) :: _ -> (n + 1, 0, -1))
    in
    let path = segment_path dir active_seg in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
    (if valid_len >= 0 then begin
       Unix.ftruncate fd valid_len;
       ignore (Unix.lseek fd valid_len Unix.SEEK_SET)
     end
     else begin
       write_all fd header_line;
       Unix.fsync fd
     end);
    fsync_dir dir;
    let t =
      {
        dir;
        lock;
        table;
        buf = Buffer.create 4096;
        segment_records;
        fd;
        active_seg;
        active_count;
        pending = 0;
        appended = 0;
        closed = false;
        mutex = Mutex.create ();
      }
    in
    let recovery =
      {
        segments = List.length !surviving + (if valid_len < 0 then 1 else 0);
        entries = Hashtbl.length table;
        quarantined_segments = !quarantined;
        truncated_bytes = !truncated;
      }
    in
    (t, recovery)
  with
  | result -> result
  | exception e ->
      Wr_util.Lockfile.release lock;
      raise e

let flush_locked t =
  if Buffer.length t.buf > 0 then begin
    write_all t.fd (Buffer.contents t.buf);
    Buffer.clear t.buf;
    t.pending <- 0;
    Unix.fsync t.fd
  end

let rotate_locked t =
  flush_locked t;
  Unix.close t.fd;
  t.active_seg <- t.active_seg + 1;
  t.active_count <- 0;
  let path = segment_path t.dir t.active_seg in
  t.fd <- Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644;
  write_all t.fd header_line;
  Unix.fsync t.fd;
  fsync_dir t.dir

let find t hash =
  locked t (fun () ->
      if t.closed then invalid_arg "Store.find: store is closed";
      Hashtbl.find_opt t.table hash)

let add t e =
  locked t (fun () ->
      if t.closed then invalid_arg "Store.add: store is closed";
      if not (Hashtbl.mem t.table e.hash) then begin
        Hashtbl.add t.table e.hash e;
        if t.active_count >= t.segment_records then rotate_locked t;
        Buffer.add_string t.buf (line_of_entry e);
        t.active_count <- t.active_count + 1;
        t.pending <- t.pending + 1;
        t.appended <- t.appended + 1;
        if t.pending >= batch_records then flush_locked t
      end)

let length t = locked t (fun () -> Hashtbl.length t.table)

let appended t = locked t (fun () -> t.appended)

let flush t = locked t (fun () -> if not t.closed then flush_locked t)

(* Merge every live entry into a single segment, sorted by hash and
   deduplicated, so two stores holding the same entry set compact to
   byte-identical files regardless of the order (or pool interleaving)
   the entries arrived in.  The compacted data is fully written and
   renamed into place as seg-000001 before the other segments are
   unlinked; a crash in between leaves duplicates that the first-wins
   load discipline resolves. *)
let compact t =
  locked t (fun () ->
      if t.closed then invalid_arg "Store.compact: store is closed";
      flush_locked t;
      Unix.close t.fd;
      let entries =
        Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
        |> List.sort (fun a b -> Int64.unsigned_compare a.hash b.hash)
      in
      let target = segment_path t.dir 1 in
      let tmp = target ^ ".tmp" in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let b = Buffer.create (65 * (List.length entries + 1)) in
          Buffer.add_string b header_line;
          List.iter (fun e -> Buffer.add_string b (line_of_entry e)) entries;
          write_all fd (Buffer.contents b);
          Unix.fsync fd);
      Sys.rename tmp target;
      fsync_dir t.dir;
      List.iter
        (fun (n, name) -> if n <> 1 then Sys.remove (Filename.concat t.dir name))
        (list_segments t.dir);
      fsync_dir t.dir;
      t.active_seg <- 1;
      t.active_count <- List.length entries;
      t.fd <- Unix.openfile target [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644)

let close t =
  locked t (fun () ->
      if not t.closed then begin
        flush_locked t;
        t.closed <- true;
        Unix.close t.fd;
        Wr_util.Lockfile.release t.lock
      end)

let dir t = t.dir
