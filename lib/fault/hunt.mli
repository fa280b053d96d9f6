(** Randomized counterexample search with shrinking.

    The hunter is generic over how a run is judged: a {!runner} takes
    a seed and a nemesis plan, drives one full deployment (workload,
    churn, monitors, regularity check — see {!Dds_workload.Harness})
    and reports what fired. {!search} sweeps seeds, deriving each
    seed's plan deterministically, so a hit is reproducible from the
    seed alone; {!shrink} then delta-debugs the plan — dropping steps
    one at a time and halving budgets — down to a locally minimal
    counterexample whose every remaining fault is necessary. *)

type outcome = {
  violations : string list;  (** monitor + regularity findings; [[]] = clean run *)
  injected : int;  (** faults actually applied (message + process) *)
}

type runner = seed:int -> Nemesis.plan -> outcome
(** Must be deterministic: same seed and plan, same outcome. *)

type found = {
  seed : int;
  plan : Nemesis.plan;
  violations : string list;
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
    seed came back clean. With [?pool] the seeds run as parallel
    engine jobs with early cancellation; the reported seed is still
    the {e earliest} violating one in [seeds] and [runs] still counts
    the seeds up to and including it, exactly as in the sequential
    scan, whatever the worker count. Shrinking stays sequential — each
    candidate depends on the last verdict. *)

val shrink : runner:runner -> found -> found
(** Greedy minimization at the found seed: repeatedly try removing one
    step, then weakening one step (halve a dup's copies, a delay's
    extra, a rule's budget or probability, a crash/storm's [k]; narrow
    a window), keeping any candidate that still violates, until no
    single change does. The result's [violations] are the minimal
    plan's and [runs] counts the shrink attempts. A plan can shrink to
    [[]] — meaning the violation needs no faults at all. *)

val weaken : Nemesis.step -> Nemesis.step list
(** The single-step weakenings {!shrink} tries, strongest reduction
    first. Exposed for tests. *)
