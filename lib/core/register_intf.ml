open Dds_sim
open Dds_net
open Dds_runtime
open Dds_spec

(** Signature every register protocol implements.

    A protocol defines its wire message type, its static parameters,
    and a node state machine driven entirely by message deliveries and
    timers. Nodes are created either as {e founding members} (present
    at time 0, immediately active and holding the initial value —
    Section 3.3's initialization) or as {e joiners}, in which case
    [create] starts the protocol's [join] operation and [on_active]
    fires when it returns.

    Operations take continuations rather than blocking: the simulator
    is single-threaded and event-driven. A node must accept at most one
    operation at a time ({!busy}); drivers only submit to idle active
    nodes, matching the paper's sequential-process model. *)
module type PROTOCOL = sig
  type msg
  (** Wire messages (INQUIRY, REPLY, WRITE, ...). *)

  type params
  (** Static configuration: [delta] for the synchronous protocol, the
      system size [n] for the quorum-based ones. *)

  type node

  val name : string

  val pp_msg : Format.formatter -> msg -> unit

  val msg_kind : msg -> string
  (** The wire kind of a message (["INQUIRY"], ["REPLY"], ...):
      constant per constructor, used to label typed network telemetry
      and message-mix summaries. *)

  val put_msg : Buffer.t -> msg -> unit
  (** Binary codec for the Unix runtime's length-prefixed frames,
      built from {!Dds_net.Wire} primitives. *)

  val get_msg : Wire.reader -> msg
  (** Inverse of {!put_msg}.
      @raise Dds_net.Wire.Truncated if the payload ends mid-message.
      @raise Dds_net.Wire.Malformed on an unknown constructor tag. *)

  val create :
    rt:msg Runtime.t ->
    params:params ->
    pid:Pid.t ->
    initial:Value.t option ->
    on_active:(Value.t -> unit) ->
    node
  (** Brings a process into the system: attaches it to the runtime's
      transport (it is in listening mode from this instant, per
      Section 2.1) and either activates it immediately
      ([initial = Some v], founding member) or runs the join protocol
      ([initial = None]). [on_active] receives the local copy held
      when the join returned; for founding members it fires
      synchronously. The runtime is the {e only} environment a node
      touches — the same state machine runs over the simulator
      ({!Dds_runtime.Runtime.of_sim}) and over TCP
      ([Dds_runtime_unix.Store]). *)

  val pid : node -> Pid.t

  val is_active : node -> bool

  val busy : node -> bool
  (** An operation is in flight on this node. *)

  val snapshot : node -> Value.t option
  (** The node's local copy of the register, if it holds one. *)

  val current_span : node -> (int * Event.op_kind) option
  (** The telemetry span of the operation in flight on this node, if
      any — protocols allocate one span per join/read/write (see
      {!Event.fresh_span}) and emit its [Op_start]/[Op_phase]/[Op_end]
      events themselves; the node host uses this accessor to close
      the span as [Aborted] when the process is churned out
      mid-operation. [None] whenever {!busy} is [false] and while no
      join is in progress, or when the network has no event sink. *)

  val read : node -> k:(Value.t -> unit) -> unit
  (** Invokes the read operation. [k] fires with the returned value at
      response time.
      @raise Invalid_argument if the node is not active or is busy. *)

  val write : node -> int -> k:(Value.t -> unit) -> unit
  (** Invokes the write operation with a fresh datum. [k] fires at
      response time with the value actually written — the protocol
      (not the caller) assigns the sequence number, and for the
      quorum-based protocols it is only fixed mid-operation.
      @raise Invalid_argument if the node is not active or is busy. *)

  val leave : node -> unit
  (** The process leaves the system: detaches from the network, cancels
      pending timers, and will never invoke a continuation again. In-
      flight operations on this node are lost, as the model prescribes. *)
end
