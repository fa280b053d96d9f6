(** Discrete-event scheduler.

    The heart of the simulation substrate: a virtual clock plus an
    ordered queue of pending events. An event is an arbitrary callback
    scheduled for a time point; events at the same time fire in the
    order they were scheduled (FIFO tie-breaking via a sequence
    number), which keeps whole executions deterministic.

    Callbacks may schedule further events, including at the current
    time (they fire later in the same tick). Scheduling in the past is
    an error: the model's causality must be respected by construction.

    {b Choice points.} The model checker ({!Dds_check.Check}) needs to
    explore {e every} order in which same-time events could fire, not
    just the FIFO one. Installing a chooser with {!set_chooser} turns
    each tick with two or more ready events into an explicit choice
    point: the scheduler gathers all non-cancelled events at the
    minimal queued time (in seq order — a canonical, replay-stable
    enumeration) and asks the chooser which fires next; the rest are
    re-queued and offered again. Without a chooser the behaviour is
    exactly the historical FIFO order, so ordinary simulations are
    untouched. *)

type t
(** A scheduler instance: clock + event queue. *)

type token
(** Handle to a scheduled event, used to cancel it (e.g. a node's
    pending timer when the node leaves the system). *)

type tag = { actor : int; kind : string }
(** Checker-facing identity of an event. [actor] is the node the event
    acts upon ([Pid.to_int]), or [-1] for global/untagged events; the
    partial-order reduction only commutes events whose actors are both
    non-negative and distinct. [kind] identifies what the event does,
    canonically: two events do the same thing exactly when their tags
    are equal, which is what sleep sets and state fingerprints compare.
    It need not be readable: a timer's kind is ["timer:p1"], but a
    message delivery carries a compact binary key that is rendered
    only when a schedule is printed ([Dds_net.Network.tag_label]).
    Events scheduled without a tag
    get [{actor = -1; kind = ""}] and are treated as dependent with
    everything — always sound, never unsound, merely less reduced. *)

type candidate
(** A ready event offered at a choice point. *)

val create : unit -> t
(** A scheduler with the clock at {!Time.zero} and no pending events. *)

val now : t -> Time.t
(** The current virtual time. *)

val schedule_at : t -> ?tag:tag -> Time.t -> (unit -> unit) -> token
(** [schedule_at s time f] queues [f] to run when the clock reaches
    [time].
    @raise Invalid_argument if [time] is before [now s]. *)

val schedule_after : t -> ?tag:tag -> int -> (unit -> unit) -> token
(** [schedule_after s d f] is [schedule_at s (Time.add (now s) d) f].
    @raise Invalid_argument if [d < 0]. *)

val cancel : t -> token -> unit
(** Cancels a pending event. Cancelling an already-fired or
    already-cancelled event is a no-op. *)

val pending : t -> int
(** Number of events still queued (including cancelled ones not yet
    swept; useful only as an upper bound). *)

val set_chooser : t -> (candidate array -> int) option -> unit
(** [set_chooser s (Some f)] routes every subsequent tick with two or
    more ready events through [f]: it receives the candidates in seq
    order and returns the index to fire; the others are re-queued.
    [set_chooser s None] restores FIFO order.
    A chooser returning an out-of-range index raises
    [Invalid_argument] at the next {!step}. *)

val choosing : t -> bool
(** Whether a chooser is currently installed. Subsystems use this to
    decide whether paying for descriptive event tags is worthwhile. *)

val candidate_time : candidate -> Time.t
val candidate_tag : candidate -> tag
val candidate_seq : candidate -> int

val pending_candidates : t -> candidate list
(** All non-cancelled queued events in (time, seq) order. O(n log n);
    used by the checker to fingerprint scheduler state, and by tests. *)

val step : t -> bool
(** Fires the single next event, advancing the clock to its time.
    Returns [false] when the queue is empty (clock unchanged). *)

val run_until : t -> Time.t -> unit
(** [run_until s horizon] fires every event scheduled strictly before
    or at [horizon], then sets the clock to [horizon]. *)

val run : t -> ?max_events:int -> unit -> unit
(** Runs until the queue is empty, or until [max_events] events have
    fired ([max_events] guards against runaway executions; default
    unlimited). *)

val events_fired : t -> int
(** Total number of callbacks executed so far. *)
