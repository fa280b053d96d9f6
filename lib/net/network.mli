open Dds_sim

(** Reliable message-passing with pluggable synchrony.

    Implements the two communication primitives of Sections 3.2 and
    5.1 over the discrete-event scheduler:

    - {b point-to-point} [send]: reliable (no loss, duplication or
      corruption), delivered within the bound the {!Delay.t} model
      grants;
    - {b timely broadcast} ([broadcast]/deliver): the message reaches
      every process {e present in the system at broadcast time} that
      has not left by delivery time, within the same bound. A process
      that enters afterwards does {e not} get it — this is exactly the
      hazard motivating the join protocol's initial [delta] wait
      (Figure 3).

    Presence is tracked by handler attachment: a process in listening
    mode (from the start of its [join], Section 2.1) is attached; a
    process that leaves is detached, and anything still in flight
    towards it is dropped at delivery time, since a departed process
    "does no longer send or receive messages".

    The payload type ['a] is the protocol's message type; each
    deployment instantiates one network per protocol. *)

type 'a t
(** A network carrying ['a] payloads. *)

type 'a handler = src:Pid.t -> 'a -> unit
(** Invoked at delivery time, with the scheduler clock already advanced
    to the delivery instant. *)

(** How {!broadcast} disseminates.

    [Primitive] is the paper's postulated service: one timely delivery
    to every process present at broadcast time (Section 3.2).

    [Flooding] {e implements} that service from point-to-point links,
    discharging the assumption inside the model (the paper imports it
    from Hadzilacos-Toueg [15] / Friedman-Raynal-Travers [10]): each
    first delivery is relayed once to every process the relayer
    currently sees, for up to [relay_depth] hops, with per-(origin,
    broadcast) duplicate suppression at every process. Over links
    bounded by [h], delivery to everyone present-and-staying happens
    within [relay_depth * h] — so a protocol run over flooding must
    take [delta = relay_depth * h]. Flooding is also more robust than
    the primitive: processes that {e enter} during dissemination can
    still be reached through relays, and single-link faults are routed
    around. E17 measures the cost. *)
type broadcast_mode =
  | Primitive
  | Flooding of { relay_depth : int }

(** What the fault plan may do to one point-to-point transmission,
    decided at send time. Everything except [Pass] steps outside the
    paper's reliable-network assumption and is recorded as a
    [Fault_injected] event plus a [net.injected] metric tick, so every
    deviation is attributable in the exported trace. *)
type fault_action =
  | Pass  (** deliver normally — the default plan everywhere *)
  | Drop_msg  (** lose the message ([Drop] with reason [Faulted]) *)
  | Duplicate of { copies : int }
      (** deliver, plus [copies] extra copies, each with its own
          sampled delay (and so its own ordering) and its own [Send]
          event *)
  | Delay_by of { extra : int }
      (** stretch the sampled delay by [extra] ticks — the instrument
          for violating the synchrony bound [delta] *)
  | Corrupt_tag
      (** deliver with a forged sender identity (the receiver observes
          itself as the source); wire-level telemetry keeps the true
          endpoints *)

type fault_plan = Delay.decision -> msg_kind:string -> fault_action
(** Consulted once per point-to-point transmission (a broadcast asks
    once per destination). [msg_kind] is the payload's wire kind (e.g.
    ["INQUIRY"]), letting plans target protocol phases. *)

val create :
  sched:Scheduler.t ->
  rng:Rng.t ->
  delay:Delay.t ->
  ?metrics:Metrics.t ->
  ?events:Event.sink ->
  ?msg_kind:('a -> string) ->
  ?put_msg:(Buffer.t -> 'a -> unit) ->
  ?broadcast_mode:broadcast_mode ->
  ?fault:fault_plan ->
  ?nodes:int ->
  unit ->
  'a t
(** A network with no attached processes. [metrics] is an optional
    observability sink and [events] receives typed telemetry. Every
    copy is recorded through {!Traffic}, the one owner of the traffic
    schema the live store shares: its counters, Lamport stamps, and
    [Send]/[Deliver]/[Drop] events, one [Send] per point-to-point copy
    (a broadcast fans out into one per present destination, an injected
    duplicate adds one more), so a trace's [Send] count always equals
    the transmit counter. The fault-only counters [net.injected],
    [net.relayed] and [net.duplicate], and [Fault_injected] events, are
    this module's.
    [msg_kind] names each payload's wire kind (e.g. ["INQUIRY"]) in
    typed events; payloads themselves never appear in telemetry.
    [put_msg] is the payload's binary codec; it is required only while
    the scheduler has a chooser installed, where every delivery is
    tagged with a key built from it (see {!tag_label}) — delivering
    under a chooser without it raises [Invalid_argument].
    [broadcast_mode] defaults to [Primitive]. [nodes] (default 64) is
    the expected number of attached processes; it only sizes internal
    tables.

    The reliability guarantee in the header is the behavior of the
    {e default} fault plan (none installed, i.e. [Pass] for every
    message). Passing [fault] — or installing a plan later with
    {!set_fault_plan} — interposes a nemesis on every transmission;
    see {!fault_action} for what it may do and [Dds_fault] for the
    plan combinators built on top of this hook.
    @raise Invalid_argument if a [Flooding] relay depth is [< 1]. *)

val delivery_key : 'a t -> src:Pid.t -> dst:Pid.t -> 'a -> string
(** The tag kind a delivery of [msg] from [src] to [dst] carries under
    a chooser: a NUL byte, then [src], [dst] and the payload's
    [put_msg] bytes. Equal for two deliveries exactly when their
    rendered labels are (the codec is injective), and cheap: a few
    writes into a buffer the network owns.
    @raise Invalid_argument if the network was created without
    [put_msg]. *)

val tag_label :
  get_msg:(Wire.reader -> 'a) ->
  msg_kind:('a -> string) ->
  pp_msg:(Format.formatter -> 'a -> unit) ->
  string ->
  string
(** Renders a scheduler tag kind for people. Under a chooser, a
    delivery's tag kind is a compact binary key (source, destination
    and the payload's [put_msg] bytes), equal for two deliveries
    exactly when their labels are equal; [tag_label] decodes such a key
    with the protocol's [get_msg] into
    ["deliver:KIND:pS->pD:PAYLOAD"], with [KIND] from [msg_kind] and
    [PAYLOAD] from [pp_msg]. Any other kind (timers, adversary points)
    is printable already and is returned unchanged.
    @raise Dds_net.Wire.Truncated or Dds_net.Wire.Malformed on a
    corrupt key. *)

val attach : 'a t -> Pid.t -> 'a handler -> unit
(** Puts a process in listening mode.
    @raise Invalid_argument if the pid is already attached. *)

val detach : 'a t -> Pid.t -> unit
(** Removes a process (it has left the system). Unknown pids are
    ignored: detaching twice is harmless. *)

val attached : 'a t -> Pid.t list
(** Processes currently in the system, in increasing pid order. The
    list is kept by {!attach} and {!detach}, so the call is free. *)

val send : 'a t -> src:Pid.t -> dst:Pid.t -> 'a -> unit
(** Point-to-point send. Delivery is scheduled even if [dst] is not
    currently attached only when it {e is} attached at send time;
    sending to an absent process silently drops (the sender "knows"
    stale membership — the model allows that). Delivery checks
    attachment again: a process that left meanwhile receives nothing. *)

val broadcast : 'a t -> src:Pid.t -> 'a -> unit
(** Timely broadcast to every attached process, including the sender. *)

val set_fault_plan : 'a t -> fault_plan -> unit
(** Installs (or replaces) the fault plan consulted on every
    subsequent transmission. *)

val faults_injected : 'a t -> int
(** Number of transmissions on which the plan returned something other
    than [Pass] so far — the cheap budget check nemesis schedules use
    without consulting metrics. *)

val in_flight : 'a t -> int
(** Messages sent or broadcast but not yet delivered/dropped. *)

val metrics : 'a t -> Metrics.t option
(** The metrics sink this network reports to, if any — also used by
    protocol nodes to record protocol-level counters (e.g. the
    synchronous join's re-inquiry rounds) without extra plumbing. *)

val events : 'a t -> Event.sink option
(** The typed-event sink, if any — protocol nodes use it to emit
    operation spans, phase marks and quorum progress (same plumbing
    shortcut as {!metrics}). *)
