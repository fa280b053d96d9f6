open Dds_sim

(** Placement arithmetic for a sharded key-space: which of [shards]
    independent registers owns a key, and each shard's derived seed and
    span-id base. Shards share nothing, so the per-shard verdicts are
    the paper's single-register checks run [shards] times. A simulated
    sharded run is one judged run per shard
    ([Dds_workload.Harness.run_shards]); the live store
    ([Dds_runtime_unix.Placement]) routes with the same {!route}. *)

val route : shards:int -> key:int -> int
(** The owning shard of [key]: a SplitMix64-finalizer hash of the key
    reduced mod [shards]. Pure and seed-independent — the placement of
    a key never moves when a run is reseeded, only the traffic drawn
    against it does.
    @raise Invalid_argument when [shards <= 0]. *)

val seed_for : seed:int -> shard:int -> int
(** The shard's deployment seed, mixed from the store seed and the
    shard index — the engine rule applied to sharding: each
    independent instance builds its own rng streams from its own
    seed, so shards stay deterministic under any execution order. *)

val span_base : int -> int
(** [shard * 1_000_000]: the shard's span-id base
    ({!Dds_core.Deployment.config.events_first_span}), mirroring the
    live runtime's per-node offsets, so span ids stay unique when the
    per-shard traces are merged into one tagged file. *)

type op_kind = Read | Write of int  (** the datum a write stores *)

type op = { at : Time.t; key : int; kind : op_kind }
(** One keyed operation of a pre-drawn workload plan (see
    [Dds_workload.Skew]). *)
