open Dds_sim

(** How far behind reads run.

    For each completed read, its {e staleness} is the number of writes
    it lags: [max(0, last_sn_completed_before_invocation - returned_sn)].
    A regular register always has staleness 0 (modulo concurrent
    writes); the asynchronous impossibility experiment (Theorem 2 / E7)
    shows staleness growing without bound as the horizon stretches —
    the quantitative face of "the value obtained is always older than
    the last value written". *)

type report = {
  per_read : (History.op * int) list;  (** invocation order *)
  stats : Stats.t;  (** distribution of staleness values *)
  max_staleness : int;  (** 0 when there are no reads *)
}

val measure : ?include_joins:bool -> History.t -> report
(** [include_joins] defaults to [false]. Each read costs one binary
    search over the completed writes sorted by response, carrying the
    running maximum sn: O((R + W) log W) in all. *)

val pp_report : Format.formatter -> report -> unit
