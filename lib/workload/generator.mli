open Dds_sim
open Dds_core
open Dds_shard

(** Randomized read/write workloads over a deployment.

    The generator drives the paper's intended usage pattern: a single
    designated writer updating the register periodically, while any
    active process may read at any time (the synchronous protocol is
    explicitly "targeted for applications where the number of reads
    outperforms the number of writes"). Reads are issued from random
    idle active processes; every operation goes through the deployment
    so it lands in the history for checking. *)

type config = {
  read_rate : float;
      (** expected number of reads started per tick (may exceed 1) *)
  write_every : int;
      (** one write every this many ticks; [0] disables writes. When
          the designated writer has left, a new one is elected on the
          spot ({!Deployment.S.elect_writer}) — writes stay
          non-concurrent, as footnote 1 requires. *)
  start : Time.t;  (** first tick of workload activity *)
  until : Time.t;  (** last tick of workload activity *)
}

val default : until:Time.t -> config
(** [read_rate = 1.0], [write_every = 20], starting at tick 1. *)

module Make (D : Deployment.S) : sig
  val run : D.t -> config -> unit
  (** Schedules the workload's events on the deployment's scheduler
      (the caller still runs it). Ticks where no idle active process
      exists are skipped silently — under extreme churn there may be
      nobody to issue from, which is itself a measurable outcome. *)

  val run_plan : D.t -> Shard.op list -> unit
  (** Schedules a pre-drawn keyed plan ({!Skew.plan}), each op at its
      tick: reads and writes (of the op's datum) are issued as {!run}
      issues them. An op at or before the current tick, or one that
      finds nobody to take it, is skipped; the [op.read] and [op.write]
      counters count the ops issued. *)
end
