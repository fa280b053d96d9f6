open Dds_sim
open Dds_churn
open Dds_spec

(** The paper's wireless-zone example, made literal.

    Section 2.1 explains the join operation with "mobile nodes in a
    wireless network: the beginning of its join occurs when a process
    (node) enters the geographical zone within which it can receive
    messages". Here that sentence is the whole model: random-waypoint
    walkers roam a rectangle; a circular zone hosts a synchronous
    regular register (the Section 6 MANET setting); crossing into the
    zone {e is} the join invocation, wandering out {e is} the leave.
    Churn is therefore {e emergent} — a function of node speed, zone
    size and population — rather than a scheduled rate, and the zone
    population fluctuates instead of staying at the paper's constant
    n. Experiment E19 measures how the [c < 1/(3 delta)] analysis
    translates into a speed limit.

    A walker that re-enters the zone joins as a brand-new process
    (fresh identity), exactly as the model prescribes for re-entry. *)

type config = {
  seed : int;
  walkers : int;  (** mobile nodes roaming the world *)
  width : float;
  height : float;
  zone_center : Point.t;
  zone_radius : float;
  speed : float;  (** distance units per tick, all walkers *)
  delta : int;  (** radio delay bound inside the zone *)
}

val default_config : seed:int -> speed:float -> config
(** 40 walkers in a 100x100 world, zone of radius 25 at the centre,
    delta = 3. *)

type t

val create : config -> t
(** Builds the world at time 0. Walkers already inside the zone are
    the founding members (one is teleported inside if none landed
    there, so the system is never born empty); the lowest-pid founder
    is the first writer. *)

val scheduler : t -> Scheduler.t

val membership : t -> Membership.t

val history : t -> History.t

val metrics : t -> Metrics.t

val zone_population : t -> int
(** Present processes (walkers currently inside the zone). *)

val start : t -> until:Time.t -> unit
(** Schedules the per-tick world step (move walkers, process zone
    crossings) up to [until]. *)

val start_activity : t -> read_rate:float -> write_every:int -> until:Time.t -> unit
(** Register workload: reads from random active zone members; writes
    from a writer re-elected among active members whenever the
    previous one wandered off (non-concurrent by designation). *)

val run_until : t -> Time.t -> unit

val regularity : t -> Regularity.report

val staleness : t -> Staleness.report

val emergent_churn : t -> float
(** Measured churn rate: zone crossings (in + out) / 2, per tick, per
    average present member — the quantity the paper calls [c],
    recovered from mobility. *)

val population_stats : t -> Stats.t
(** Distribution of the per-tick zone population. *)

val crossings : t -> int * int
(** Total (entries, exits) so far. *)
