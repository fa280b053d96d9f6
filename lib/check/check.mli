open Dds_core

(** Stateless bounded model checking of register deployments.

    [run] drives the deterministic simulator through {e every} schedule
    of a small scripted deployment, up to the configured bounds: at
    each point where two or more events are ready at the same virtual
    time the scheduler asks which fires next, and (budget permitting)
    the bounded adversary asks drop-or-deliver per transmission and
    crash-or-not at fixed decision ticks. A schedule is the sequence of
    branches taken; re-executing a schedule from scratch replays the
    identical run (the simulator has no other nondeterminism: checker
    runs use an adversarially constant delay, no churn engine and a
    fixed workload script — see DESIGN.md §11).

    Exploration is depth-first with two sound reductions and two
    bounds:
    - {b sleep sets} (partial-order reduction): deliveries to distinct
      nodes commute, so only one interleaving of a commuting pair is
      explored; events without a node tag are treated as dependent
      with everything (never unsound, merely unreduced);
    - {b state hashing}: a fingerprint of the full simulation state
      (clock, per-node register state, in-flight messages, operation
      history, adversary budgets) prunes prefixes that converge to a
      state already explored at least as permissively;
    - {b depth bound}: decisions beyond it take branch 0 (the run is
      judged but counted truncated);
    - {b preemption bound}: picking a non-FIFO branch at a scheduling
      point costs one preemption from a per-run budget.

    Terminal runs are judged by {!Dds_spec.Regularity.check} (and
    {!Dds_spec.Atomicity.inversions} for protocols that promise
    atomicity). The first violating schedule, in canonical
    (left-to-right DFS) order, is returned as a replayable
    {!Schedule.t}.

    With [?pool], the top of the choice tree is partitioned into a
    worker-count-independent frontier ({!Dds_engine.Pool.expand_frontier})
    whose subtrees are explored as parallel jobs with per-subtree
    caches; every job runs to completion, so explored counts — and the
    rendered report — are byte-identical at any [--jobs]. *)

type stats = {
  schedules : int;  (** terminal runs judged *)
  truncated : int;  (** of which hit the depth bound *)
  state_prunes : int;  (** descents cut by the state cache *)
  sleep_skips : int;  (** branches skipped by sleep-set POR *)
  preempt_skips : int;  (** branches skipped by the preemption budget *)
  max_depth : int;  (** deepest decision sequence executed *)
  cache_entries : int;
      (** fingerprint-cache entries inserted across all subtree caches
          — one per miss, so the hit rate is
          [state_prunes /. (state_prunes + cache_entries)] *)
  cache_peak : int;
      (** largest single subtree cache (entries are only added, so the
          final population is the peak) — the per-job memory cost of
          state caching *)
}

type violation = {
  schedule : Schedule.t;
      (** replayable counterexample, default-tail trimmed *)
  lines : string list;  (** rendered violation findings *)
  at_schedule : int;  (** 1-based index in canonical exploration order *)
}

type outcome = { stats : stats; violation : violation option }

val run :
  ?pool:Dds_engine.Pool.t ->
  ?por:bool ->
  ?state_cache:bool ->
  ?frontier:int ->
  Protocol.t ->
  Schedule.config ->
  (outcome, string) result
(** Explores every schedule of [cfg] under the given protocol.
    [por] / [state_cache] (default [true]) exist to measure the
    reductions (bench's naive-DFS comparison). [frontier] (default 64)
    is the partitioning width target; it is part of the exploration
    shape, so the same value must be used to compare explored counts.
    [Error] when the spec is invalid for the protocol (e.g. a quorum
    override on sync). *)

type replay = {
  decisions_used : int;
  regularity : Dds_spec.Regularity.report;
  inversions : int;
  violations : string list;  (** empty = clean *)
}

val replay_schedule : Schedule.t -> (replay, string) result
(** Re-executes one schedule exactly ([dds run --schedule]): decisions
    beyond the recorded sequence take branch 0. [Error] on unknown
    protocol, invalid spec, or divergence: a recorded arity that does
    not match the replayed choice point, or a recorded label that is
    not the label of the branch the run takes there (the error names
    the decision index and both labels). *)

