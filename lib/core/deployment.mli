open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec

(** Wiring a register protocol into a full simulated system.

    [Make (P)] assembles, from one seed: a scheduler, a network with
    the requested delay model, a membership table, the churn engine,
    and a {!Node_host} holding [n] founding nodes (one of which is the
    designated writer — footnote 1's single-writer regime). The host
    records every operation issued through the deployment in the
    history; operations cut short because their process left are
    marked aborted, so the safety checkers judge exactly what the
    paper's specification covers. *)

type config = {
  seed : int;
  n : int;  (** constant system size *)
  delay : Delay.t;
  churn_rate : float;  (** the paper's [c] *)
  churn_profile : Churn.rate_profile option;
      (** overrides [churn_rate] with a time-varying profile *)
  churn_policy : Churn.leave_policy;
  protect_writer : bool;
      (** never churn out the designated writer (the termination lemmas
          assume the writer stays for its writes) *)
  broadcast_mode : Network.broadcast_mode;
      (** the postulated primitive, or the flooding implementation of
          it (remember to scale the protocol's delta to
          [relay_depth * hop bound]) *)
  events_enabled : bool;
      (** record typed telemetry ({!Event.t}) for the whole run: every
          message copy, membership change, and operation span. Off by
          default — a disabled sink records nothing and allocates no
          event detail. *)
  events_first_span : int;
      (** base of this deployment's span-id counter (default 0). A
          multi-register store gives each shard's sink a disjoint base
          (shard * 1_000_000, mirroring the live runtime's per-node
          offsets) so span ids stay unique when per-shard traces are
          merged into one file. *)
}

val default_config : seed:int -> n:int -> delay:Delay.t -> churn_rate:float -> config
(** Uniform churn policy, protected writer, primitive broadcast, no
    typed events. *)

(** The interface a deployment presents, abstracted over its protocol
    so generic drivers (workload generators, sweep runners) can be
    written once for all three register implementations. *)
module type S = sig
  module Protocol : Register_intf.PROTOCOL

  type t

  val create : config -> Protocol.params -> t
  (** Builds the system at time 0: [n] founding members, all active and
      holding the initial value, datum 0 (Section 3.3's
      initialization). Churn has not started yet. *)

  (** {1 Substrate access} *)

  val config : t -> config
  val scheduler : t -> Scheduler.t
  val network : t -> Protocol.msg Network.t
  val membership : t -> Membership.t
  val history : t -> History.t
  val metrics : t -> Metrics.t

  val metrics_snapshot : t -> Metrics.snapshot
  (** Freezes the metrics registry, refreshing the deployment-level
      gauges first ([sched.events_fired], [sched.now],
      [membership.active]). *)

  val events : t -> Event.sink
  (** The run's typed-event sink (disabled unless
      {!config.events_enabled}); protocols, network and membership all
      feed it. On churn-retire the node host closes the victim's
      in-flight span with an [Aborted] {!Event.Op_end}, so every
      [Op_start] in the record is matched. *)

  val workload_rng : t -> Rng.t
  (** A dedicated stream for workload decisions, so adding workload
      randomness never perturbs delay or churn draws. *)

  val now : t -> Time.t

  (** {1 Processes} *)

  val writer : t -> Pid.t option
  (** The designated writer, [None] once it has left. *)

  val elect_writer : t -> Pid.t option
  (** Re-designates the writer when the previous one has left,
      promoting a random idle active process (footnote 1: the
      protocols support any number of writers as long as writes are
      never concurrent, and designation-at-a-time guarantees that).
      Returns the current writer, old or new; [None] when nobody is
      active and idle. *)

  val node : t -> Pid.t -> Protocol.node option

  val spawn : t -> Pid.t
  (** Manually brings one new process into the system (its join is
      recorded in the history). The churn engine calls this internally;
      tests use it for hand-built scenarios. *)

  val retire : t -> Pid.t -> unit
  (** Manually makes a process leave; pending operations are aborted.
      @raise Invalid_argument if the pid is not present. *)

  val crash : t -> Pid.t -> unit
  (** Crash-stops a process: same departure as {!retire} — the model
      equates a crash with an unannounced leave (Section 2.1), and the
      leave protocol is silent in all three register implementations —
      but the membership record is flagged [crashed], the emitted event
      is [Node_crash] rather than [Node_leave], and the churn counter
      is [churn.crash], so traces and audits can attribute violations
      to injected crashes. The fault layer ([Dds_fault]) calls this;
      tests use it directly.
      @raise Invalid_argument if the pid is not present. *)

  val start_churn : t -> until:Time.t -> unit

  val stop_churn : t -> unit

  (** {1 Operations} (all recorded in the history) *)

  val read : t -> Pid.t -> unit
  (** @raise Invalid_argument if the node is absent, inactive or busy. *)

  val write : t -> Pid.t -> unit
  (** Writes the next datum from an internal counter (1, 2, 3, ...), so
      every write in a run carries a distinct value.
      @raise Invalid_argument as {!read}. *)

  val write_value : t -> Pid.t -> int -> unit
  (** Write an explicit datum. *)

  val idle_active : t -> Pid.t list
  (** Active processes with no operation in flight, ascending pid. *)

  val random_idle_active : ?exclude:Pid.t list -> t -> Pid.t option

  (** {1 Running} *)

  val run_until : t -> Time.t -> unit

  val run_to_quiescence : t -> ?max_events:int -> unit -> unit

  (** {1 Verdicts} *)

  val regularity : t -> Regularity.report

  val analysis : t -> Analysis.t
  (** Post-hoc membership analysis of the run so far. *)
end

module Make (P : Register_intf.PROTOCOL) : S with module Protocol = P
