open Dds_sim
open Dds_churn
open Dds_spec
open Dds_core
open Dds_fault

(** One judged run: the single code path that builds and drives a
    simulated register run.

    [dds run] (with or without [--shards]), [dds analyze], [dds hunt],
    [dds sweep --attribution] and the sweep tables E4–E6, E8–E10, E13,
    E14, E16, E21, E22, E24, E25 and E23's constant-rate row all call
    {!run} (a sharded store through {!run_shards}) and render from the
    {!result} it hands back, so a [dds hunt] repro line replays exactly
    the execution the hunter judged. A sweep cell with its own protocol
    parameters passes its own {!INSTANCE}. E15, E17 and E20 (seeded
    link loss) and E23's session-churn rows drive their deployments in
    {!Sweep} instead.

    A run, in order: create the deployment from a config (one seed);
    arm the nemesis plan ({!Dds_fault.Injector}) — only when the plan
    is non-empty, because arming splits a stream off the workload rng
    and an empty plan must draw nothing, i.e. be the same execution as
    no plan at all; attach the live monitors; start background churn
    and the {!Generator} workload up to [horizon]; run until
    [horizon + drain]; finalize the monitors. Deterministic in the
    config's seed. *)

(** What the run issues up to [horizon]: {!Generator}'s rate workload
    ([read_rate] expected reads per tick, one write every [write_every]
    ticks, [0] = never) or a pre-drawn keyed plan ({!Skew.plan}). *)
type workload =
  | Rate of { read_rate : float; write_every : int }
  | Plan of Dds_shard.Shard.op list

type spec = {
  horizon : int;  (** workload and churn stop here *)
  drain : int;  (** extra ticks to let in-flight operations finish *)
  workload : workload;
  monitor : Dds_monitor.Monitor.config option;
      (** live assumption/safety monitors; each finding is also
          emitted into the run's event sink as a [Violation] *)
}

val default_spec : ?monitor:Dds_monitor.Monitor.config -> horizon:int -> drain:int -> unit -> spec
(** The rate workload at [read_rate = 1.0], [write_every = 20]. *)

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

(** An offline verdict on a recorded event stream. *)
type audit = {
  findings : Dds_monitor.Monitor.violation list;  (** in firing order *)
  regularity : Regularity.report;
  overdue : int list;  (** spans the liveness monitor flagged *)
}

val audit : Dds_monitor.Monitor.config -> initial:int -> Event.stamped list -> audit
(** Judges one register's recorded events (one shard's slice of a
    tagged trace, or a live deployment's merged trace) as {!run} judges
    a run: monitors finalized at the last event's tick, then regularity
    of the {!Replay}ed history from the [initial] datum. *)

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

val run_shards :
  (module INSTANCE) ->
  Deployment.config ->
  shards:int ->
  spec ->
  Nemesis.plan ->
  (int * result) list
(** A sharded store as one {!run} per shard, in shard order: the
    spec's [Plan] is partitioned by {!Dds_shard.Shard.route}, and shard
    [s] runs its slice with seed {!Dds_shard.Shard.seed_for} and
    [events_first_span = Dds_shard.Shard.span_base s], all else as
    given. Each result is paired with its shard's routed-op count; the
    shard skipped that count minus {!issued}.
    @raise Invalid_argument when [shards <= 0] or on a [Rate] workload. *)

val issued : result -> int
(** Reads and writes the run started: its [op.read] + [op.write]
    counters. *)

val tagged_events : (int * result) list -> (int option * Event.stamped) list
(** {!run_shards}'s events tagged with their shard and merged on the
    shared timeline: one trace for {!Export.jsonl_of_tagged_events}. *)

val outcome : result -> Hunt.outcome
(** The hunter's verdict on a run: monitor findings then regularity
    violations, each pretty-printed, and the injected count. *)
