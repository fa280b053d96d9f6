open Dds_sim

(** What a transport records for each message copy.

    The one owner of the traffic schema shared by simulated and live
    runs: the [net.transmit], [net.sent], [net.broadcast],
    [net.delivered], [net.dropped] and [net.faulted] counters, the
    per-process Lamport clocks, and the typed [Send]/[Deliver]/[Drop]
    events. Both transports ({!Network} over the scheduler, the TCP
    store over sockets) call it for every copy they move, so a trace
    from either obeys the same identities:

    - one [Send] and one [net.transmit] tick per point-to-point copy,
      so a trace's [Send] count equals [net.transmit];
    - each [Send] is resolved by exactly one [Deliver] (counted in
      [net.delivered]) or one [Drop] (counted in [net.dropped] or
      [net.faulted], by reason);
    - a [Deliver]'s [sent] stamp is the [lamport] of its [Send].

    Counters are bumped whatever the sink's state. Clocks tick, and
    events are built, only while the event sink is enabled: a run
    without telemetry allocates nothing here per copy. *)

type 'a t
(** A recorder for copies of ['a] payloads. *)

val create :
  metrics:Metrics.t option ->
  events:Event.sink option ->
  now:(unit -> Time.t) ->
  msg_kind:('a -> string) ->
  'a t
(** [now] stamps events and is called only while [events] is enabled;
    [msg_kind] names a payload's wire kind in events. Without
    [metrics] the counters go to a private registry nobody reads. *)

val sent : 'a t -> unit
(** A point-to-point send was accepted ([net.sent]). *)

val broadcast : 'a t -> unit
(** A broadcast was issued ([net.broadcast]). *)

val absent : 'a t -> unit
(** A send found its destination absent and made no copy
    ([net.dropped], no event). *)

val transmit : 'a t -> src:Pid.t -> dst:Pid.t -> broadcast:bool -> 'a -> int
(** One copy leaves [src] ([net.transmit], [Send]). Returns the
    sender's Lamport stamp, the value a [Deliver] must carry as
    [sent]: [src]'s clock plus one, or 0 while the sink is off. *)

val deliver : 'a t -> src:Pid.t -> dst:Pid.t -> sent:int -> 'a -> unit
(** A copy stamped [sent] reaches [dst] ([net.delivered], [Deliver]);
    [dst]'s clock becomes [max clock sent + 1]. *)

val drop : 'a t -> src:Pid.t -> dst:Pid.t -> reason:Event.drop_reason -> 'a -> unit
(** A copy is lost: [Departed] counts [net.dropped], [Faulted] counts
    [net.faulted]; either emits [Drop]. *)
