open Dds_sim
open Dds_net

(** The constant-churn engine.

    Section 2.1: with churn rate [c] (0 <= c < 1) and system size [n],
    every time unit [c * n] processes leave and [c * n] new processes
    enter, so [n] stays constant. Fractional products accumulate: with
    [n = 100], [c = 0.025], the engine refreshes 2 processes on most
    ticks and 3 on every other tick, averaging exactly 2.5.

    The engine decides {e who} leaves (policy below) and {e when}, and
    delegates the actual mechanics to callbacks supplied by the
    deployment (detach from the network, create the replacement node,
    invoke its [join], ...). Crashes need no separate treatment: the
    model equates a crash with an unannounced leave. *)

type leave_policy =
  | Uniform  (** victims drawn uniformly among present processes *)
  | Oldest_first  (** longest-present processes go first *)
  | Youngest_first  (** newest processes go first *)
  | Active_first
      (** prefer {e active} processes — the worst case of Lemma 2's
          proof ("the processes that left were present at time tau") *)

(** How the churn rate evolves over time. The paper analyses constant
    churn; realistic systems see diurnal and flash-crowd patterns
    (Ko, Hoque & Gupta [19]), so the engine also offers a square-wave
    bursty profile and an arbitrary function of time. A profile's
    value at a tick is the [c] applied on that tick. *)
type rate_profile =
  | Constant of float
  | Bursty of { base : float; peak : float; period : int; burst : int }
      (** [base] everywhere except the first [burst] ticks of every
          [period]-tick window, where the rate is [peak] *)
  | Profile of (Time.t -> float)
      (** arbitrary; must return values in [\[0, 1)] *)

val rate_at : rate_profile -> Time.t -> float
(** The rate a profile applies at a given tick. *)

val mean_rate : rate_profile -> float
(** The profile's time-averaged rate; [nan] for an arbitrary
    [Profile]. *)

val pp_policy : Format.formatter -> leave_policy -> unit

val policy_of_string : string -> (leave_policy, string) result
(** Parses ["uniform"], ["oldest"], ["youngest"], ["active"]. *)

type t

val create :
  sched:Scheduler.t ->
  rng:Rng.t ->
  membership:Membership.t ->
  n:int ->
  rate:float ->
  ?profile:rate_profile ->
  ?policy:leave_policy ->
  ?protect:(Pid.t -> bool) ->
  spawn:(unit -> unit) ->
  retire:(Pid.t -> unit) ->
  unit ->
  t
(** [create ~n ~rate ...] refreshes [n * rate] processes per tick.
    [profile] overrides [rate] with a time-varying one (then [rate] is
    ignored). [protect] shields specific processes (e.g. the
    designated writer, matching the paper's "does not leave the
    system" hypotheses) from selection — the engine then takes the
    next victim by the same policy, leaving the refresh count intact
    when possible. [spawn] must make one new process enter the system;
    [retire pid] must make it leave. [policy] defaults to [Uniform].
    @raise Invalid_argument if [rate] is outside [0, 1) or [n <= 0]. *)

val start : t -> until:Time.t -> unit
(** Schedules one refresh event per tick from [now + 1] to [until]. *)

val stop : t -> unit
(** Cancels all future refresh events. *)

val refreshed : t -> int
(** Total number of leave/join pairs performed so far. *)

val expected_per_tick : t -> float
(** [n * mean_rate]. *)
