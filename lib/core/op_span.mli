open Dds_sim
open Dds_net
open Dds_runtime
open Dds_spec

(** Per-node operation-span bookkeeping, shared by the protocol
    implementations.

    A protocol node owns one {!t}; each join/read/write allocates one
    telemetry span ({!start}), marks its progress ({!phase},
    {!quorum}) and closes it exactly once ({!finish}) right before
    invoking the operation's continuation. The node host
    ({!Node_host}) closes still-open spans as [Aborted] when a process is churned out
    mid-operation (see {!Register_intf.PROTOCOL.current_span}).

    Every function is a no-op when the node's runtime carries no
    enabled {!Event.sink}, so an uninstrumented run pays one [option]
    match per call site and allocates nothing. *)

type t

val make : unit -> t
(** No span in flight. *)

val current : t -> (int * Event.op_kind) option
(** The open span, if any — what
    {!Register_intf.PROTOCOL.current_span} returns. *)

val start : ?value:Value.t -> t -> rt:'a Runtime.t -> pid:Pid.t -> Event.op_kind -> unit
(** Allocates a fresh span id and emits its [Op_start]. Overwrites any
    span still recorded (protocol drivers never overlap operations, so
    an overwrite only follows an abort already handled upstream).
    [value] is the operation's payload when known at start — for a
    write, the datum and the sequence number the writer expects to
    assign. *)

val phase : t -> rt:'a Runtime.t -> pid:Pid.t -> string -> unit
(** Emits an [Op_phase] mark on the open span (no-op without one). *)

val quorum : ?from:int -> t -> rt:'a Runtime.t -> pid:Pid.t -> have:int -> need:int -> unit
(** Emits a [Quorum_progress] on the open span (no-op without one).
    [from] is the responder whose message advanced the count (default
    [-1] = unknown); when [have = need] it names exactly which
    [Deliver] completed the quorum, which latency attribution
    ({!Dds_causal}) relies on. *)

val finish : ?outcome:Event.outcome -> ?value:Value.t -> t -> rt:'a Runtime.t -> pid:Pid.t -> unit
(** Emits the [Op_end] (default outcome [Completed]) and forgets the
    span. No-op without an open span, so a double finish is safe.
    [value] is the operation's result — the value a read or join
    returned, the value a write actually installed; omit it for
    aborts. *)
