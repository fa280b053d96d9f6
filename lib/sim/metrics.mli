(** Named counters, gauges and histograms for a simulated run.

    Subsystems bump counters ("msg.sent", "msg.dropped", "churn.join",
    ...), set gauges (last-write-wins point-in-time values) and feed
    streaming {!Histogram}s (e.g. per-operation latencies) through a
    shared registry; experiment reports read them back at the end of a
    run, and {!snapshot} freezes the whole registry into a plain value
    the {!Export} layer can serialize. Purely in-memory and
    per-deployment — not a global singleton — so concurrent
    deployments never share state.

    {b Domain safety.} A registry is unsynchronized mutable state:
    like {!Rng.t} it must stay confined to one domain. Parallel
    engine jobs each create their own deployment (hence their own
    registry); the pool's own cross-domain bookkeeping lives in
    [Dds_engine.Pool] behind atomics, not here. *)

type t

val create : unit -> t

(** {1 Counters} *)

val incr : t -> string -> unit
(** Adds 1 to the named counter, creating it at 0 first if needed. *)

val add : t -> string -> int -> unit
(** Adds an arbitrary amount. *)

val get : t -> string -> int
(** Current value; 0 for a counter never touched. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

(** {2 Counter handles}

    {!incr} hashes the counter's name on every call. A per-message
    counter is bumped through a handle instead: {!counter} names it
    once, and each {!bump} is a generation check and an increment.

    A handle registers its counter lazily, on its first bump, so a
    handle that is never bumped leaves {!to_list}, {!snapshot} and
    every export unchanged. A handle and {!incr} on the same name
    share one count. After {!reset} a handle re-resolves on its next
    bump: it never adds to a cell the registry has forgotten, so its
    count restarts at 0 like any other counter's. *)

type counter
(** A named counter of one registry, resolved on first use. *)

val counter : t -> string -> counter
(** A handle on the named counter. Registers nothing by itself. *)

val bump : counter -> unit
(** Adds 1, like {!incr} on the handle's name. *)

val bump_by : counter -> int -> unit
(** Adds an arbitrary amount, like {!add}. *)

(** {1 Gauges} *)

val set_gauge : t -> string -> float -> unit
(** Sets a point-in-time value (last write wins). *)

val gauge : t -> string -> float option
(** Current value; [None] for a gauge never set. *)

val gauges : t -> (string * float) list
(** All gauges, sorted by name. *)

(** {1 Histograms} *)

val histogram : t -> string -> edges:float array -> Histogram.t
(** The named histogram, created with [edges] on first use. Later
    calls return the existing histogram and ignore [edges] (layouts
    are fixed at first registration). *)

val observe : t -> string -> edges:float array -> float -> unit
(** [Histogram.add (histogram t name ~edges) x]. *)

val histograms : t -> (string * Histogram.t) list
(** All histograms, sorted by name. *)

(** {1 Snapshot} *)

type histogram_snapshot = {
  edges : float array;
  counts : int array;  (** one per edge, plus the overflow bucket *)
  count : int;
  sum : float;
  min : float;  (** [nan] when empty *)
  max : float;  (** [nan] when empty *)
}

type snapshot = {
  counters : (string * int) list;
  gauge_values : (string * float) list;
  histogram_values : (string * histogram_snapshot) list;
}
(** All three families, each sorted by name — a stable, immutable
    image of the registry. *)

val snapshot : t -> snapshot

val reset : t -> unit
(** Forgets every counter, gauge and histogram. Outstanding counter
    handles stay usable: each starts over from 0 on its next bump. *)

val pp : Format.formatter -> t -> unit
