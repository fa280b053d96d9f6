open Dds_sim
open Dds_core

(** Arming a deployment with a nemesis plan.

    [Make (D)] schedules every step of a {!Nemesis.plan} against a
    freshly created deployment: message-fault and partition steps
    compile ({!Fault.compile}) into the network's interposition hook,
    process-fault steps become scheduler callbacks that pick victims
    and call [D.crash] / [D.spawn]. Installation must happen before
    the run starts (all times in the plan are absolute).

    Everything injected is visible in the run's telemetry:
    - message faults: a [Fault_injected] event plus [net.injected]
      tick per application (emitted by the network itself);
    - crashes and storms: one [Fault_injected] (fault ["crash"] /
      ["storm"], victim in [src]) immediately before the [Node_crash]
      the departure emits, plus a [fault.crash] / [fault.storm]
      counter tick;
    - partitions: [Fault_injected] markers (["partition-start"] /
      ["partition-heal"]) at the window edges, on top of the per-drop
      events;
    - recoveries: a [Fault_injected] (fault ["recover"]) when the
      replacement processes enter.

    Victim selection draws from the supplied [rng], a dedicated
    stream, so the faults never perturb delay, churn or workload
    draws. Splitting that stream off the workload rng is itself a
    draw, which is why the run harness arms no empty plan. *)

module Make (D : Deployment.S) : sig
  type t

  val install : rng:Rng.t -> D.t -> Nemesis.plan -> t
  (** Installs the network hook and schedules the process faults.
      Call once, at time 0, before running. *)

  val process_faults : t -> int
  (** Crash-stops injected so far (including storm victims). *)

  val total_injected : t -> int
  (** [process_faults] plus the network's {!Dds_net.Network.faults_injected}. *)
end
