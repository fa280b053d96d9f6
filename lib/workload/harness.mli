open Dds_sim
open Dds_churn
open Dds_spec
open Dds_core
open Dds_fault

(** One judged run: the single code path that builds and drives a
    simulated register run.

    [dds run], [dds analyze], [dds hunt], [dds sweep --attribution]
    and the sweep tables E4–E6, E8–E10, E13, E14, E16, E21, E22, E24
    and E23's constant-rate row all call {!run} and render from the
    {!result} it hands back, so a [dds hunt] repro line replays exactly
    the execution the hunter judged. A sweep cell with its own protocol
    parameters passes its own {!INSTANCE}. E15, E17 and E20 (seeded
    link loss), E23's session-churn rows and E25 (a sharded store)
    drive their deployments in {!Sweep} instead.

    A run, in order: create the deployment from a config (one seed);
    arm the nemesis plan ({!Dds_fault.Injector}) — only when the plan
    is non-empty, because arming splits a stream off the workload rng
    and an empty plan must draw nothing, i.e. be the same execution as
    no plan at all; attach the live monitors; start background churn
    and the {!Generator} workload up to [horizon]; run until
    [horizon + drain]; finalize the monitors. Deterministic in the
    config's seed. *)

type spec = {
  horizon : int;  (** workload and churn stop here *)
  drain : int;  (** extra ticks to let in-flight operations finish *)
  read_rate : float;  (** expected reads per tick *)
  write_every : int;  (** one write per this many ticks; [0] = never *)
  monitor : Dds_monitor.Monitor.config option;
      (** live assumption/safety monitors; each finding is also
          emitted into the run's event sink as a [Violation] *)
}

val default_spec : ?monitor:Dds_monitor.Monitor.config -> horizon:int -> drain:int -> unit -> spec
(** [read_rate = 1.0], [write_every = 20]. *)

(** A registry protocol's deployment instance with its parameters. *)
module type INSTANCE = sig
  module D : Deployment.S

  val params : D.Protocol.params
end

val instance : Protocol.t -> n:int -> delta:int -> ((module INSTANCE), string) result
(** The registry entry's deployment at [n] processes and bound
    [delta], with no quorum override — the one place a
    {!Protocol.RUNNER} is unpacked for a run. *)

val instance_exn : Protocol.t -> n:int -> delta:int -> (module INSTANCE)
(** @raise Invalid_argument on the [Error] of {!instance}. *)

val monitor_config :
  ?churn_window:int ->
  ?liveness_k:int ->
  ?gst:bool ->
  Protocol.t ->
  n:int ->
  delta:int ->
  Dds_monitor.Monitor.config
(** The monitors a protocol's correctness theorem calls for, read off
    its registry entry: its churn bound, whether it assumes a standing
    active majority, and whether liveness clocks start at GST when the
    delay model has one ([gst], default [false]). The inversion
    monitor only runs for protocols that promise atomicity: a regular
    register may legitimately show a new/old inversion between
    sequential reads concurrent with one write (the paper's Section 1
    diagram). Window defaults to [3 * delta], the liveness deadline to
    [liveness_k * delta] with [liveness_k = 10]. *)

(** The finished run's deployment-independent views. *)
type result = {
  history : History.t;
  regularity : Regularity.report;
  staleness : Staleness.report;
  metrics : Metrics.t;
  snapshot : Metrics.snapshot;  (** taken after the run, gauges included *)
  events : Event.sink;  (** typed events, monitor findings included *)
  trace : Trace.t;
  analysis : Analysis.t;
  membership : Membership.t;
  findings : Dds_monitor.Monitor.violation list;
      (** monitor findings in firing order; [[]] without a monitor *)
  injected : int;  (** {!Dds_fault.Injector.Make.total_injected}; [0] for an empty plan *)
}

val run : (module INSTANCE) -> Deployment.config -> spec -> Nemesis.plan -> result
(** Runs one full deployment. Typed events are forced on when a
    monitor is requested. *)

val outcome : result -> Hunt.outcome
(** The hunter's verdict on a run: monitor findings then regularity
    violations, each pretty-printed, and the injected count. *)
