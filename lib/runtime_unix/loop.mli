(** A select(2) event loop with a timer wheel.

    One loop drives everything a process does: socket readability and
    writability callbacks plus one-shot timers ordered by deadline.
    Multiple nodes and load clients can share a single loop (the
    in-process tests and the bench run a whole 3-node deployment plus
    its clients on one), or a [dds serve] process runs one node on its
    own loop.

    The clock is [Unix.gettimeofday] in milliseconds — the only clock
    the vendored OCaml [unix] library exposes; a monotonic source
    would be preferable and the abstraction confines the substitution
    to {!now_ms} if one becomes available. Timer deadlines are
    absolute ms; firing order is (deadline, creation seq), matching
    the simulator scheduler's FIFO tie-break.

    {b One turn} of the loop runs, in order: the due timers, the
    deferred thunks ({!defer}), one [select] on the watched fds, their
    ready callbacks, and the deferred thunks again. Work deferred
    anywhere in a turn — or before {!run}, outside any turn — therefore
    runs before the loop next blocks in [select]. *)

type t

val create : unit -> t

val now_ms : unit -> float
(** Wall-clock milliseconds (Unix epoch). *)

val watch_read : t -> Unix.file_descr -> (unit -> unit) -> unit
(** [watch_read t fd cb] invokes [cb] whenever [fd] selects readable.
    Re-registering an fd replaces its callback. *)

val watch_write : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Write-interest, used while a connection has buffered output;
    removed with {!unwatch_write} once drained. *)

val unwatch_read : t -> Unix.file_descr -> unit
val unwatch_write : t -> Unix.file_descr -> unit

val defer : t -> (unit -> unit) -> unit
(** [defer t f] runs [f] once at the next deferred point of the
    current turn (after the timers, or after the ready callbacks),
    in registration order; thunks deferred by a deferred thunk run at
    the same point. {!Conn} defers one output flush per connection per
    turn, which makes the turn the unit of output. *)

val after_ms : t -> int -> (unit -> unit) -> unit -> unit
(** [after_ms t d f] schedules [f] in [d] ms (clamped to [>= 0]) and
    returns its cancel thunk (idempotent). *)

val stop : t -> unit
(** Makes {!run} return after the current iteration. *)

val stopped : t -> bool

val run : t -> unit
(** Dispatches turns until {!stop}; a turn's [select] waits at most
    until the next deadline (250 ms cap so [stop] from a signal handler
    is honoured promptly), and [EINTR] retries. A [stop] from a timer
    skips that turn's [select], but its deferred thunks still run. *)

val run_while : t -> (unit -> bool) -> unit
(** Like {!run} but also returns once the predicate turns false —
    what drives in-process tests ("run until these ops finished"). *)
