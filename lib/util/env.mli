(** Uniform parsing of [WR_*] environment variables.

    Every variable in the project follows one discipline: an unset
    variable means the documented default, a well-formed value is
    honoured, and a malformed value falls back to the default with a
    one-line warning on stderr (printed once per variable per process)
    naming both the bad value and the default used — a typo like
    [WR_VERIFY=ture] or [WR_JOBS=-4] must never silently change
    behaviour.  See the [WR_*] table in README.md for the full list. *)

val warn_invalid : name:string -> value:string -> expected:string -> default:string -> unit
(** Print the standard one-line warning for a malformed value, at most
    once per [name] per process (thread-safe). *)

val bool : ?default:bool -> string -> bool
(** Read a boolean variable: [1]/[true]/[yes]/[on] is [true],
    [0]/[false]/[no]/[off] and the empty string are [false], unset is
    [default] (itself defaulting to [false]), anything else warns via
    {!warn_invalid} and yields [default]. *)

val parse_bool : string -> bool option
(** The boolean grammar above, without the environment lookup. *)
