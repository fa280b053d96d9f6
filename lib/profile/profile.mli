(** Low-overhead profiling of the multicore experiment engine.

    A recorder owns one span buffer per worker domain. Each buffer is
    written only by its owning worker (single-writer, no locks) into
    pre-sized parallel arrays, so recording a span is a handful of
    array stores — cheap enough to leave in the hot paths of
    {!Dds_engine.Pool}. When no recorder is attached the engine pays
    one [option] branch per instrumented site and the simulator pays
    one load per {!Dds_sim.Probe.span}: profiling off is free.

    What gets recorded, per worker:
    - [Job] spans: one per engine job, labelled with the job key,
      carrying the {!Gc.quick_stat} deltas of the job body (minor /
      promoted / major words, minor / major collections) — the
      allocation telemetry ROADMAP Open item 1 asks for;
    - [Idle] spans: one per worker per batch, from when the worker
      found no job left to claim until the batch's last job finished;
    - [Merge] spans: the canonical-order result copy on worker 0;
    - [Phase] spans: simulator-side sections bracketed by
      {!Dds_sim.Probe.span} (deployment construction, rng seeding),
      attributed to whichever worker ran the enclosing job.

    Timestamps are [Unix.gettimeofday] seconds, the same clock the
    pool's existing busy accounting uses; spans store offsets from the
    recorder's creation instant. Buffers are merged {e canonically} at
    read time — per worker in record order, workers in index order —
    so exports are a deterministic function of what each domain did.

    Thread-safety contract: [record]/probe writes happen only from the
    owning worker during a batch; {!spans}, {!summary} and the exports
    must be called between batches (not concurrently with one). *)

type t

type kind = Job | Idle | Merge | Phase

val kind_to_string : kind -> string

val create : ?max_spans:int -> workers:int -> unit -> t
(** A recorder for [workers] worker domains (worker 0 is the
    submitting domain). Each worker's buffer holds at most [max_spans]
    spans (default 65536); spans beyond the cap are counted as dropped
    rather than recorded. Creating a recorder installs the process-wide
    {!Dds_sim.Probe} handler (idempotent); the handler is inert for
    any domain with no current recorder slot. *)

val workers : t -> int

val now : unit -> float
(** The recorder's clock ([Unix.gettimeofday]). *)

(** {1 Recording} (engine-facing) *)

val set_current : t -> worker:int -> unit
(** Bind the calling domain to [worker]'s buffer: subsequent
    {!Dds_sim.Probe.span} phases on this domain are recorded there.
    Returns the previous binding via {!get_current}/{!restore}. *)

val get_current : unit -> (t * int) option
val restore : (t * int) option -> unit

val record : t -> worker:int -> kind:kind -> label:string -> t0:float -> t1:float -> unit
(** Record one span with no GC payload. Owner-only. *)

val record_job :
  t ->
  worker:int ->
  label:string ->
  t0:float ->
  t1:float ->
  minor:float ->
  promoted:float ->
  major:float ->
  minor_cols:int ->
  major_cols:int ->
  unit
(** Record one [Job] span with its [Gc.quick_stat] deltas. Owner-only. *)

val set_gc_params : t -> (string * int) list -> unit
(** Note the GC settings active in the engine's domains (e.g.
    [("minor_heap_words", 262144)]) — {!Dds_engine.Pool.create} calls
    this so the tuning in effect travels with the recording. Surfaced
    in {!summary} ([s_gc_params]), {!summary_json} (["gc_params"]) and
    as a ["gc_params"] metadata event in {!to_chrome}. *)

val gc_params : t -> (string * int) list

(** {1 Reading back} *)

type span = {
  sp_worker : int;
  sp_kind : kind;
  sp_label : string;
  sp_t0 : float;  (** seconds since the recorder was created *)
  sp_t1 : float;
  sp_minor : float;  (** minor words allocated during the span (jobs only) *)
  sp_promoted : float;
  sp_major : float;
  sp_minor_cols : int;
  sp_major_cols : int;
}

val spans : t -> span list
(** Canonical merge: worker 0's spans in record order, then worker 1's,
    ... Record order per worker is start-time order (spans are closed
    in stack discipline per worker, recorded at close). *)

type worker_summary = {
  w_id : int;
  w_jobs : int;
  w_busy_s : float;  (** total Job span seconds *)
  w_idle_s : float;
  w_busy_fraction : float;  (** busy / recorder wall span *)
}

type summary = {
  s_workers : worker_summary list;
  s_wall_s : float;  (** latest span end minus earliest span start; 0 with no spans *)
  s_jobs : int;
  s_busy_fraction : float;  (** total busy / (wall * workers) *)
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_cols : int;
  s_major_cols : int;
  s_minor_words_per_job : float;
  s_phases : (string * int * float) list;
      (** phase name, count, total seconds — sorted by descending total *)
  s_top_jobs : (string * float * float) list;
      (** slowest jobs: key, seconds, minor words — descending, up to [top] *)
  s_dropped : int;
  s_dominant : string;
      (** one line naming the dominant cost: the largest share of
          worker-seconds among idle time, each phase, and
          non-phase job time *)
  s_gc_params : (string * int) list;
      (** GC settings active in the engine's domains, as noted via
          {!set_gc_params}; empty when the engine never noted any *)
}

val summary : ?top:int -> t -> summary
(** [top] bounds [s_top_jobs] (default 5). *)

val pp_summary : Format.formatter -> summary -> unit

(** {1 Exports} *)

val to_chrome : t -> Dds_sim.Json.t
(** Chrome [trace_event] JSON: one process ("dds engine"), one thread
    lane per worker domain, [X] duration events with microsecond
    timestamps, GC deltas in [args] — loads in chrome://tracing or
    Perfetto next to the simulator traces. *)

val summary_json : summary -> Dds_sim.Json.t

val to_json : ?top:int -> t -> Dds_sim.Json.t
(** {!to_chrome} with the {!summary_json} attached under a top-level
    ["summary"] member (trace viewers ignore unknown top-level keys),
    so one [--profile-out] file is both the timeline and the report. *)
