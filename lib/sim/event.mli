(** Typed telemetry events.

    An {!Event.t} is a structured fact about the run — a membership
    change, one message transmission, one operation phase. It is the
    run's only record: exporters ({!Export}), the monitors, tests, the
    [dds inspect] summarizer and [dds run --trace]'s one-line-per-event
    listing ({!pp}) all consume the same stream without parsing prose.
    Node identities are carried as raw integers (the underlying value
    of a [Pid.t]) so the event model lives below the network layer.

    Operations are described by {e spans}: a span id is allocated when
    an operation starts ({!fresh_span}), marks its progress with
    [Op_phase] / [Quorum_progress] events, and is closed by exactly
    one [Op_end]. Span ids are unique within a sink, so join, read and
    write latencies decompose per phase after the fact (see
    {!Export.spans_of_events}).

    Spans carry operation {e payloads} (the datum/sequence-number pair
    being written, the value a read or join returned) and message
    events carry {e Lamport-clock stamps}, so a recorded trace is
    semantically complete: the register specification checkers can
    replay it without the in-process history, and the causal message
    graph reconstructs from the [Send]/[Deliver] pairs alone. *)

type op_kind = Join | Read | Write

type outcome =
  | Completed
  | Aborted  (** the process left before the operation responded *)

type drop_reason =
  | Departed  (** destination left between send and delivery *)
  | Faulted  (** lost by an injected network fault *)

type payload = { data : int; sn : int }
(** An operation's value, as raw integers (the event model lives below
    [Dds_spec.Value]). A negative [sn] encodes the bottom value. *)

type t =
  | Node_join of { node : int }  (** process enters (listening mode) *)
  | Node_leave of { node : int }  (** process leaves for good *)
  | Node_crash of { node : int }
      (** process crash-stops: gone for good like a leave, but injected
          by the fault layer rather than the churn engine's graceful
          departure path — kept distinct so audits can attribute a
          violation to the crash that caused it *)
  | Send of { src : int; dst : int; kind : string; broadcast : bool; lamport : int }
      (** one point-to-point transmission (a broadcast emits one per
          destination present at broadcast time). [lamport] is the
          sender's logical clock after stamping this send; successive
          sends by one process carry strictly increasing stamps, so
          [(src, lamport)] identifies the transmission. *)
  | Deliver of { src : int; dst : int; kind : string; lamport : int; sent : int }
      (** [lamport] is the receiver's clock after the
          [max(local, sent) + 1] update; [sent] echoes the matching
          [Send]'s stamp, which is what pairs the two events. *)
  | Drop of { src : int; dst : int; kind : string; reason : drop_reason }
  | Op_start of { span : int; node : int; op : op_kind; value : payload option }
      (** [value] is [Some] for writes: the datum and the sequence
          number the writer expects to assign (quorum protocols fix
          the final number mid-operation; completed writes carry the
          true one on their [Op_end]). *)
  | Op_phase of { span : int; node : int; phase : string }
      (** a named intermediate mark, e.g. ["inquiry-sent"] or
          ["quorum-met"] *)
  | Op_end of { span : int; node : int; op : op_kind; outcome : outcome; value : payload option }
      (** [value] is the operation's result when [Completed]: the value
          a read or join returned, the value a write actually wrote.
          [None] when [Aborted]. *)
  | Quorum_progress of { span : int; node : int; have : int; need : int; from : int }
      (** [from] is the process whose reply advanced the count to
          [have] ([-1] when unknown, e.g. traces written before the
          field existed). When [have = need] it names the responder
          that completed the quorum, which is what lets latency
          attribution ({!Dds_causal}) name stragglers exactly. *)
  | Gst_reached  (** the delay model's global stabilization time *)
  | Violation of { monitor : string; detail : string }
      (** an online monitor ({!Dds_monitor.Monitor}) caught an
          assumption or safety violation during a live run; [monitor]
          names the checker, [detail] is its human-readable finding *)
  | Fault_injected of { fault : string; src : int; dst : int; kind : string }
      (** the fault-injection layer ({!Dds_fault}) acted: [fault] names
          the action (["drop"], ["dup"], ["delay"], ["corrupt"],
          ["crash"], ["storm"], ["partition-start"], ...), [src]/[dst]
          the processes concerned ([-1] when not applicable — e.g. the
          single victim of a crash travels in [src]), [kind] the wire
          kind of the message hit ([""] for process faults). Every
          injected fault appears in the trace, so [dds audit] can
          attribute a violation to the fault that caused it. *)

type stamped = { at : Time.t; ev : t }

val op_kind_to_string : op_kind -> string
(** ["join"], ["read"], ["write"]. *)

val op_kind_of_string : string -> op_kind option

val outcome_to_string : outcome -> string
(** ["completed"], ["aborted"]. *)

val outcome_of_string : string -> outcome option

val drop_reason_to_string : drop_reason -> string
(** ["departed"], ["faulted"]. *)

val drop_reason_of_string : string -> drop_reason option

val pp : Format.formatter -> t -> unit

(** {1 Sinks}

    A sink buffers stamped events in emission order. A sink created
    disabled drops everything without allocating, so the
    hot path of a million-operation sweep pays one branch per
    potential event. *)

type sink

val create : ?capacity:int -> ?first_span:int -> enabled:bool -> unit -> sink
(** [capacity] is an initial-buffer hint. [first_span] (default 0)
    offsets the {!fresh_span} counter — a live deployment gives each
    node's sink a disjoint base so span ids stay unique when per-node
    wire traces are merged for a single audit. *)

val enabled : sink -> bool
(** Callers building event payloads should test this first so a
    disabled sink allocates nothing. *)

val emit : sink -> at:Time.t -> t -> unit
(** Appends one event (no-op when disabled), then hands it to the
    observer if one is attached. *)

val on_emit : sink -> (stamped -> unit) -> unit
(** Attaches the streaming observer: every subsequent {!emit} calls it
    with the event just buffered (live monitors hook in here). One
    observer at a time — a second call replaces the first. The
    observer may itself [emit] (e.g. a [Violation]); such re-entrant
    events are buffered and observed in turn, so an observer must not
    react to the events it produces. No-op on a disabled sink. *)

val clear_observer : sink -> unit

val fresh_span : sink -> int
(** Allocates the next span id. Ids are unique per sink, starting at
    0, and are handed out even when the sink is disabled (they are
    just a counter, and protocol state machines carry them either
    way). *)

val events : sink -> stamped list
(** All events, oldest first. *)

val length : sink -> int

val clear : sink -> unit
(** Drops buffered events; span ids keep increasing. *)

val unclosed_spans : stamped list -> int list
(** Span ids with an [Op_start] but no matching [Op_end], ascending —
    the span-pairing invariant checked by tests ([[]] on a quiescent
    run) and reported by [dds inspect] on truncated ones. *)
