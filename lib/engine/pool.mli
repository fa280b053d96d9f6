(** Deterministic multicore job runner.

    A pool owns [jobs - 1] worker domains (the submitting domain is
    worker 0) and runs batches of independent jobs. Every worker claims
    the next job off one shared cursor over the batch, in submission
    order, and sleeps on the pool's condition variable once the cursor
    has passed the end, until the batch's last job finishes. Results
    are aggregated in {e canonical order} — the order the jobs were
    submitted in — so the merged output of a batch is byte-identical
    for any worker count: determinism is the contract, parallelism is
    invisible.

    The contract this requires from jobs: each [run] must be a pure
    function of its closure (typically a seeded simulation that builds
    its own {!Dds_sim.Rng.t}, deployment, metrics and event sink),
    sharing no mutable state with any other job and writing nothing to
    [stdout]/[stderr]. Every simulation in this repository already has
    that shape — a whole run is a function of its seed.

    A pool created with [jobs = 1] spawns no domains: worker 0 drains
    the cursor alone, in submission order, so sequential behaviour
    (including which job's exception wins) is the [jobs = 1] case of
    the same code path. *)

type t

type 'r job = { key : string; run : unit -> 'r }
(** One unit of work: [run] is a pure seeded computation, [key] names
    it in errors and metrics (e.g. ["safety:ratio=0.9:seed=104"]). *)

exception Job_failed of { key : string; exn : exn }
(** Raised by {!run} / {!map} / {!find_first} when a job raised:
    the whole campaign fails, carrying the key of the {e lowest-index}
    job that raised, at any worker count. Jobs after a recorded
    failure are skipped if they have not started; every job before
    the lowest failing one runs. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [--jobs] defaults
    to. *)

val create : ?jobs:int -> ?minor_heap_words:int -> ?profile:Dds_profile.Profile.t -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (clamped to at
    least 1 total worker; default {!default_jobs}).

    @raise Invalid_argument before spawning anything when [profile]
    was created with fewer [~workers] than the pool has.

    When [minor_heap_words] is given, [Gc.set] applies it as the
    minor-heap size (clamped to at least 4096 words) on the submitting
    domain {e and} inside every spawned worker domain — GC parameters
    are domain-local in OCaml 5, so tuning only the submitter would
    leave the workers on the runtime default. The active parameters
    are recorded into [profile] (when present) and surface in its
    summary and Chrome metadata. Sizing the minor heap only moves
    {e when} collections happen, never what jobs compute: output stays
    byte-identical.

    When [profile] is given, the pool records per-domain activity
    spans into it — one [Job] span (with [Gc.quick_stat] deltas) per
    job, one [Idle] span per worker per batch (the wait from an
    exhausted cursor to the batch's last job finishing), a [Merge]
    span around result collection — and binds each worker domain so
    {!Dds_sim.Probe.span} phases inside job bodies land in the right
    lane. The recorder must have been created with [~workers] at
    least the pool's worker count. Without [profile]
    every instrumented site is a single [option] branch. Profiling
    never changes results: span recording is observation only. *)

val jobs : t -> int
(** Worker count, including the submitting domain. *)

val shutdown : t -> unit
(** Stops and joins every worker domain. Idempotent; after shutdown
    the pool rejects new batches ([Invalid_argument]). *)

val with_pool :
  ?jobs:int -> ?minor_heap_words:int -> ?profile:Dds_profile.Profile.t -> (t -> 'a) -> 'a
(** [create], run, and {!shutdown} even on exceptions. *)

val profile : t -> Dds_profile.Profile.t option
(** The recorder this pool was created with, if any. *)

val run : t -> 'r job list -> 'r list
(** Runs a batch and returns results in submission order (canonical
    order). @raise Job_failed if any job raised. *)

val map : t -> key:('a -> string) -> f:('a -> 'r) -> 'a list -> 'r list
(** [map p ~key ~f xs] is [List.map f xs] computed on the pool, in
    canonical order. *)

val find_first : t -> key:('a -> string) -> f:('a -> 'r option) -> 'a list -> (int * 'r) option
(** Parallel earliest-match search with early cancellation: returns
    [Some (i, r)] where [i] is the {e lowest} index at which [f]
    yields [Some r] — later elements are skipped once an earlier hit
    is known, but every element before a hit is always evaluated, so
    the answer is independent of the worker count. [None] when [f]
    yielded [None] everywhere. *)

val expand_frontier :
  t ->
  key:('a -> string) ->
  children:('a -> ('a, 'b) Either.t list) ->
  ?max_levels:int ->
  target:int ->
  'a list ->
  ('a, 'b) Either.t list
(** Deterministic breadth-first tree expansion — the job-tree
    primitive behind the model checker's top-of-tree partitioning.

    Starting from [roots] (all [Left]), each level expands {e every}
    pending branch in parallel ([children] returns a mix of [Left]
    sub-branches to expand further and [Right] leaves, possibly
    empty), splicing the results back in canonical order. Expansion
    stops once the frontier holds at least [target] elements, no
    branches remain, or [max_levels] (default 64) levels have run.

    Because levels are whole and stitching is positional, the
    resulting frontier — contents {e and} order — depends only on the
    tree shape and [target], never on the worker count: partitioning
    work via [expand_frontier] keeps downstream aggregation
    byte-identical at any [--jobs]. *)

(** {1 Engine metrics} *)

type worker_stat = {
  ws_jobs : int;  (** jobs this worker ran *)
  ws_busy_s : float;  (** wall seconds spent inside job bodies *)
}

val stats : t -> worker_stat list
(** Per-worker counters, accumulated across all batches so far. Call
    between batches (not concurrently with one). *)

val batches : t -> int
val wall_s : t -> float
(** Total batches run and wall seconds spent inside {!run} calls. *)

val metrics : t -> Dds_sim.Metrics.t
(** The same numbers as a {!Dds_sim.Metrics.t} — counters
    [engine.jobs], [engine.batches] and per-worker
    [engine.w<i>.*] gauges plus [engine.wall_s] / [engine.busy_s] —
    so engine telemetry flows through the existing
    {!Dds_sim.Export.metrics_to_json} path. *)
