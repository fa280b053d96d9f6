open Dds_sim

(** Streaming checkers for the paper's assumptions and safety
    properties, consuming the {!Event} stream — live (wired into a
    sink with {!Event.on_emit}) or replayed from an exported JSONL
    trace ([dds audit]).

    Four monitors, each guarding one pillar of the correctness
    arguments:

    - {b churn} — the empirical churn rate over a trailing window
      against the protocol's admissible bound: [c < 1/(3 delta)] for
      the synchronous protocol (Theorem 1 via Lemma 2), [c <= 1/(3
      delta n)] for the eventually-synchronous one (Theorem 4).
    - {b majority} — the eventually-synchronous model's standing
      assumption that a majority of the n-sized population is active:
      [|A(tau)| >= n/2 + 1] at every instant.
    - {b liveness} — operations must respond within a bounded number
      of ticks (after stabilization, for the ES model where
      pre-GST delays are unbounded); an operation span open past its
      deadline is flagged once.
    - {b inversion} — new/old inversions across read results: a read
      that returns a sequence number older than one returned by a read
      completing strictly before its invocation. A regular register
      {e permits} this when both reads are concurrent with the write
      (the paper's Section 1 diagram); it is a counterexample only
      against an atomicity promise, so callers enable it for atomic
      protocols (the registry's [atomic] flag) and leave it off for
      the regular-only ones.

    Monitors are streaming and incremental: {!feed} each event in
    order and collect the violations it triggers; nothing buffers the
    whole trace. Violations fire per {e episode} — once when a bound
    is first crossed, re-arming when the system returns below it — so
    a sustained overload reads as one finding, not thousands. *)

type config = {
  n : int;  (** founding population size (the paper's n) *)
  delta : int;  (** the (eventual) message-delay bound *)
  churn_bound : float option;
      (** admissible churn rate in fraction-of-n per tick; [None]
          disables the churn monitor *)
  churn_window : int;  (** trailing window width in ticks *)
  majority : bool;  (** check [|A(tau)| >= n/2 + 1] *)
  liveness_bound : int option;
      (** max ticks an operation may stay open; [None] disables *)
  liveness_from_gst : bool;
      (** start the liveness clock at stabilization (ES model: before
          GST delays are unbounded, so nothing is overdue) *)
  inversions : bool;  (** detect new/old inversions across reads *)
}

val default : n:int -> delta:int -> config
(** Everything off except liveness (bound [10 * delta], from the
    start) and inversions; callers enable the assumption monitors that
    match their protocol's theorem. *)

type violation = { monitor : string; at : Time.t; detail : string; span : int option }
(** [monitor] is one of ["churn"], ["majority"], ["liveness"],
    ["inversion"]; [at] the tick at which it fired (for a churn
    episode, the first offending tick); [span] the overdue operation's
    span id for a liveness finding, [None] otherwise. *)

val pp_violation : Format.formatter -> violation -> unit

val to_event : violation -> Event.t
(** The {!Event.Violation} carrying this finding, for live runs that
    record monitor output into the same trace they monitor. *)

type t

val create : config -> t

val feed : t -> Event.stamped -> violation list
(** Advances every monitor by one event; returns the violations this
    event triggered (usually none). Events must arrive in
    nondecreasing time order, as sinks and exported traces guarantee.
    {!Event.Violation} events are ignored, so a monitor wired as a
    sink observer never reacts to its own findings. *)

val finalize : t -> at:Time.t -> violation list
(** One last liveness sweep at the trace's end instant, catching
    operations still open past their deadline when the record stops
    (they would otherwise escape: {!feed} only scans when time
    advances). *)

val violations : t -> violation list
(** Everything fired so far, in firing order. *)

val overdue : violation list -> int list
(** The span ids of the liveness findings among these, sorted. The
    structural counterpart of their detail strings: causal analysis
    ({!Dds_causal}) cross-references these ids to attach a
    critical-path witness to each bound violation without parsing
    prose. *)

val run : config -> Event.stamped list -> violation list
(** [feed]s the whole trace, then {!finalize}s at its last timestamp,
    and returns every finding in firing order ({!violations}). *)
