(** The one versioned schema behind the [BENCH_*.json] artifacts.

    This module owns a tiny JSON value type (printer {e and} parser —
    the repo takes no dependencies, so the grammar lives here), plus
    the envelope a benchmark artifact carries:

    {v {"schema": "wr-bench/2", "kind": "gap", ...} v}

    [gap] ([BENCH_gap.json], the HRMS-vs-optimal study) is the one
    kind; any other is rejected as unknown.  The envelope adds
    [schema]/[kind] in front of the payload keys, and {!validate}
    checks the per-kind required keys, which is what the
    [bench validate] command and the CI schema step run.  Speed is
    measured by [perfbench/], which reuses the JSON type for its own
    reports. *)

type json =
  | Null
  | Bool of bool
  | Num of float * string  (** parsed value + source literal (emit verbatim) *)
  | Str of string
  | List of json list
  | Obj of (string * json) list

val int : int -> json

val float : ?fmt:(float -> string) -> float -> json
(** Default format is ["%.17g"] (round-trips every double). *)

val str : string -> json

val member : string -> json -> json option
(** Key lookup in an [Obj]; [None] on anything else. *)

val to_float : json -> float option
(** The numeric value of a [Num]. *)

val to_int : json -> int option

val to_str : json -> string option

val to_string : json -> string
(** Compact single-line rendering. *)

val to_file_string : json -> string
(** Rendering for committed artifacts: top-level object keys one per
    line, list elements one per line (each element compact), so row
    diffs stay reviewable.  Ends with a newline. *)

val parse : string -> (json, string) result
(** Full JSON grammar (numbers keep their literal for re-emission;
    [\uXXXX] escapes decode to UTF-8; no surrogate-pair support). *)

val version : string
(** ["wr-bench/2"]: version 1 is the retroactive name for the
    pre-envelope ad-hoc layouts. *)

val envelope : kind:string -> (string * json) list -> json
(** Wrap payload fields with the [schema]/[kind] header fields. *)

val validate : json -> (string, string) result
(** Check the envelope and the per-kind required payload keys;
    returns the kind.  [Error] messages name the missing or
    ill-typed key. *)

val load_file : string -> (json, string) result

val write_file : string -> json -> unit
(** {!to_file_string} to disk. *)
