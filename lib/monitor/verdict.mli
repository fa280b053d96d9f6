open Dds_spec

(** The one verdict on one execution, its rendering and its exit rule.

    [dds run] (with or without [--shards]), [dds replay], [dds audit],
    [dds hunt] and [dds check] all judge into this value and print it
    through this module. Each producer fills what it judges: the model
    checker fills [inversions] for protocols that promise atomicity,
    a harness run or an audit fills [findings] when monitors ran.

    {!is_ok} is the one exit rule. A monitor finding fails it whatever
    it reports, a breached hypothesis of the paper's theorems (churn
    above the bound, no active majority) included: outside their
    hypotheses the theorems promise nothing, so such an execution is
    flagged, not excused. Plain data, so a verdict can cross engine
    domains inside a checker job's result. *)

type t = {
  regularity : Regularity.report;
  inversions : Atomicity.inversion list option;  (** [None]: atomicity not judged *)
  findings : Monitor.violation list option;  (** in firing order; [None]: no monitor ran *)
}

val make :
  ?inversions:Atomicity.inversion list -> ?findings:Monitor.violation list -> Regularity.report -> t

val is_ok : t -> bool
(** [problems t = []]. *)

val problems : t -> string list
(** One line per problem: regularity's (prefixed ["regularity: "], a
    broken single-writer or distinct-data assumption included), then
    inversions (prefixed ["atomicity: "]), then monitor findings as
    {!Monitor.pp_violation} prints them. *)

val pp : Format.formatter -> t -> unit
(** The block: a [regularity :] line with its problems beneath, then
    [atomicity  :] and [monitors   :] lines with theirs when judged. *)

val pp_row : Format.formatter -> t -> unit
(** A per-shard row's verdict, without a newline: [REGULAR (R reads, J
    joins checked[; I new/old inversion(s)][; M monitor violation(s)])]
    or [VIOLATED (...)]; its problems go beneath via {!pp_problems}. *)

val pp_total : Format.formatter -> t list -> unit
(** The lines under per-shard rows: [regularity : REGULAR (K shard(s))]
    (VIOLATED when any shard's regularity fails) and, when any shard
    was monitored, the summed [monitors   :] count. *)

val pp_problems : indent:int -> Format.formatter -> t -> unit
(** {!problems}, one per line, indented [indent] spaces. *)
