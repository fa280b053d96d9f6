(** Serializing telemetry: JSONL event dumps, Chrome [trace_event]
    files, metrics snapshots.

    Three machine-readable views of one run:

    - {b JSONL} — one compact JSON object per event, in emission
      order. Lossless: {!events_of_jsonl} inverts {!jsonl_of_events},
      which is what [dds inspect] and cross-PR tooling consume.
    - {b Chrome trace} — the [trace_event] format loadable in
      [chrome://tracing] / Perfetto: one pid per node, every completed
      operation span as a ["X"] duration event (phase marks in its
      [args]), membership changes / drops / GST as instants.
    - {b metrics JSON} — a {!Metrics.snapshot} with counters, gauges
      and histogram buckets.

    All output is deterministic for a deterministic run: same seed,
    same bytes. *)

val event_to_json : Event.stamped -> Json.t

val event_of_json : Json.t -> (Event.stamped, string) result

val jsonl_of_events : Event.stamped list -> string
(** One event per line, each line a complete JSON object, trailing
    newline included. *)

val tagged_event_to_json : int option -> Event.stamped -> Json.t
(** One event as the JSONL object {!jsonl_of_tagged_events} would
    write: [Some shard] appends the ["shard"] field, [None] is exactly
    {!event_to_json}. The live runtime streams through this so wire
    traces and simulated exports stay byte-compatible. *)

val jsonl_of_tagged_events : (int option * Event.stamped) list -> string
(** Like {!jsonl_of_events} with an extra ["shard"] field on every
    event carrying [Some shard] — how a sharded store exports the
    merged trace of its independent registers into one file. Consumers
    that see one register ([dds inspect], [dds explain]) read the same
    file and simply drop the tag. *)

val merge_tagged :
  (int option * Event.stamped) list list -> (int option * Event.stamped) list
(** Stable merge on the shared timeline (ties keep stream, then
    emission order): per-shard streams or per-node traces as one. *)

val events_of_jsonl :
  string -> ((int option * Event.stamped) list * string list, string) result
(** Inverse of {!jsonl_of_events} and {!jsonl_of_tagged_events}: each
    event paired with its shard tag ([None] on untagged lines), blank
    lines skipped. Tolerant of truncation: a malformed {e final}
    non-blank line — the signature of a run killed mid-write — is
    skipped and reported in the returned warnings. A malformed line
    anywhere else (corruption rather than truncation) fails the parse,
    naming its 1-based number. A strict reader accepts only an empty
    warning list. Returns [(events, warnings)]. *)

(** {1 Spans} *)

type span = {
  id : int;
  node : int;
  op : Event.op_kind;
  started : Time.t;
  ended : Time.t;
  outcome : Event.outcome;
  phases : (string * Time.t) list;  (** marks in emission order *)
}
(** One completed operation reconstructed from its
    [Op_start]/[Op_phase]/[Op_end] events. *)

val spans_of_events : Event.stamped list -> span list * int list
(** [(completed, orphans)]: completed spans in start order, plus the
    ids of spans opened but never closed (operations still in flight
    when the trace stopped). *)

val phase_durations : span -> (string * int) list
(** Decomposes the span into consecutive segments: each phase mark is
    charged the ticks since the previous mark (or the start), and a
    final ["end"] segment covers last-mark to response. The segments
    sum to the span's total latency. *)

(** {1 Whole-file renderings} *)

val chrome_of_events : Event.stamped list -> Json.t
(** An [Obj] with a [traceEvents] array — spans as ["X"] events
    ([ts]/[dur] in ticks, reported as microseconds), process-name
    metadata per node, instants for joins, leaves, drops and GST. *)

val events_of_chrome : Json.t -> (Event.stamped list, string) result
(** Partial inverse of {!chrome_of_events}, for [dds inspect] on a
    chrome-format file: spans (with phases and outcome), membership
    changes and GST reconstruct exactly; per-message [Send]/[Deliver]
    events are not representable in the chrome rendering and are
    absent from the result. *)

val dot_of_events : Event.stamped list -> string
(** The causal message graph in Graphviz DOT: one vertex per [Send] /
    [Deliver] (named [p<proc>_<lamport>]), solid edges for the
    process order (consecutive Lamport stamps on one process), dashed
    edges for the message order (each [Send] to the [Deliver] that
    echoes its stamp). Render with [dot -Tsvg]. *)

val metrics_to_json : Metrics.snapshot -> Json.t
