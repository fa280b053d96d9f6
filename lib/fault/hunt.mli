(** Randomized counterexample search with shrinking.

    The hunter is generic over how a run is judged: a {!runner} takes
    a seed and a nemesis plan, drives one full deployment (workload,
    churn, monitors, regularity check — see {!Dds_workload.Harness})
    and returns its {!Dds_monitor.Verdict}; a run violates iff that is
    not [is_ok], the rule [dds run] exits by, so a found run's repro
    line exits 1 too. {!search} sweeps seeds, deriving each
    seed's plan deterministically, so a hit is reproducible from the
    seed alone; {!shrink} then delta-debugs the plan — dropping steps
    one at a time and halving budgets — down to a locally minimal
    counterexample whose every remaining fault is necessary. *)

type runner = seed:int -> Nemesis.plan -> Dds_monitor.Verdict.t
(** Must be deterministic: same seed and plan, same verdict. *)

type found = {
  seed : int;
  plan : Nemesis.plan;
  verdict : Dds_monitor.Verdict.t;  (** the found (or shrunk) run's verdict *)
  runs : int;  (** runs spent finding (search) or spent in total (shrink) *)
}

val search :
  ?pool:Dds_engine.Pool.t ->
  runner:runner ->
  gen:(seed:int -> Nemesis.plan) ->
  int list ->
  found option
(** [search ~runner ~gen seeds] runs each seed under [gen ~seed] in
    order and returns the first violating run, or [None] when every
    seed came back clean. The seeds run as engine jobs with early
    cancellation, on [?pool] or else on a one-worker pool; the
    reported seed is the {e earliest} violating one in [seeds] and
    [runs] counts the seeds up to and including it, whatever the
    worker count. Shrinking stays sequential — each candidate depends
    on the last verdict. *)

val shrink : runner:runner -> found -> found
(** Greedy minimization at the found seed: repeatedly try removing one
    step, then weakening one step (halve a dup's copies, a delay's
    extra, a rule's budget or probability, a crash/storm's [k]; narrow
    a window), keeping any candidate that still violates, until no
    single change does. The result's [verdict] is the minimal
    plan's and [runs] counts the shrink attempts. A plan can shrink to
    [[]] — meaning the violation needs no faults at all. *)

val weaken : Nemesis.step -> Nemesis.step list
(** The single-step weakenings {!shrink} tries, strongest reduction
    first. Exposed for tests. *)
