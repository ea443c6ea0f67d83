(** Single-writer pid lockfiles for on-disk state (the result store).

    A lock is a small file created with [O_CREAT | O_EXCL] holding the
    owner's pid.  Creation is atomic, so exactly one process can hold a
    given lock at a time; a second acquirer gets a diagnostic naming the
    live owner instead of silently sharing the resource.

    {2 Stale locks}

    A process killed with [SIGKILL] cannot release its lock, and a
    crash-then-restart workflow (the whole point of the store) must not
    wedge on the corpse.  [acquire] therefore reads the
    recorded pid and breaks the lock when that process no longer exists
    ([kill pid 0] raising [ESRCH]); an unreadable or garbled pid — a
    crash between creating the file and writing it — is treated as
    stale too.  [EPERM] counts as alive: the owner exists but belongs
    to another user.  Breaking races are resolved by retrying the
    atomic create a bounded number of times. *)

type t

val acquire : string -> (t, string) result
(** Take the lock at [path], breaking it first if its recorded owner is
    dead.  [Error msg] names the path and the live owning pid (or the
    I/O failure); nothing was acquired. *)

val release : t -> unit
(** Remove the lock file.  Idempotent; never raises. *)

val path : t -> string
