open Dds_sim
open Dds_net

(** Timestamped operation histories.

    Every operation a deployment runs — reads, writes, and joins — is
    recorded here with its invocation and response instants, so the
    checkers ({!Regularity}, {!Atomicity}, {!Staleness}) can replay the
    run against the register specification of Section 2.2. Joins are
    recorded because Lemma 3 gives them a read-like guarantee: the
    value held when [join] returns is the last value written before the
    join, or one written concurrently with it.

    Operations of processes that leave mid-operation are marked
    {!aborted}; the safety checkers ignore them (the paper's liveness
    clause only covers processes that stay). *)

type op_id
(** Dense handle for an in-flight operation. *)

type kind =
  | Read of Value.t option  (** value returned; [None] while pending *)
  | Write of Value.t  (** value (and sn) being written; known at invocation *)
  | Join of Value.t option  (** local copy adopted when the join returned *)

type op = {
  id : op_id;
  pid : Pid.t;
  kind : kind;
  invoked : Time.t;
  responded : Time.t option;  (** [None]: pending at horizon *)
  aborted : bool;  (** process left before responding *)
}

type t

val create : initial:Value.t -> t
(** [initial] is the register's value at time 0, held by every founding
    process — it acts as a virtual write that completed before the run. *)

val initial : t -> Value.t

val begin_read : t -> Pid.t -> now:Time.t -> op_id
val end_read : t -> op_id -> now:Time.t -> Value.t -> unit

val begin_write : t -> Pid.t -> now:Time.t -> Value.t -> op_id
(** The value passed here is the caller's best guess (datum plus
    expected sequence number); quorum-based protocols fix the sequence
    number only mid-operation. *)

val end_write : t -> op_id -> now:Time.t -> Value.t -> unit
(** Also patches the recorded value with the one actually written, so
    completed writes always carry their true sequence number. *)

val begin_join : t -> Pid.t -> now:Time.t -> op_id
val end_join : t -> op_id -> now:Time.t -> Value.t -> unit

val abort : t -> op_id -> unit
(** The process left the system with the operation pending. *)

val ops : t -> op list
(** Every recorded operation, in invocation order. *)

val fold_right : (op -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_right f t init] is [List.fold_right f (ops t) init] without
    building the list: one pass, newest operation first, for a checker
    that sorts a history into several lists at once. *)

val completed_reads : t -> op list
(** Reads that responded and were not aborted, invocation order. *)

val completed_writes : t -> op list
(** Writes that responded and were not aborted, invocation order. *)

val all_writes : t -> op list
(** Completed {e and} pending writes (a write pending at the horizon is
    concurrent with everything after its invocation), excluding aborted
    ones; invocation order. *)

val disseminated_writes : t -> op list
(** {!all_writes} plus {e aborted} writes: a writer that left
    mid-operation may already have broadcast its value, so its datum
    can legally surface in reads. The regularity checker draws its
    allowed sets from these, while judging write sequentiality on
    {!all_writes} only (an aborted write stopped at an unknown
    instant and cannot be convicted of overlap). *)

val completed_joins : t -> op list

val pending : t -> op list
(** Unresponded, unaborted operations (blocked or cut off by horizon). *)

val aborted : t -> op list

val count : t -> int

val pp_op : Format.formatter -> op -> unit

val to_csv : t -> string
(** The whole history as CSV ([id,pid,kind,data,sn,invoked,responded,
    aborted], header included, one operation per line, invocation
    order). Pending fields render as empty cells; the initial value is
    not a row (it is no operation). For offline analysis of runs
    produced by the CLI's [--dump-history]. *)

val put : Buffer.t -> t -> unit
(** Appends the fields {!to_csv} prints, in binary and newest
    operation first: per operation a kind byte (which also says whether
    a value is present), then id, pid, value, invocation time,
    response (a presence byte and the time) and the aborted flag, with
    integers as {!Dds_net.Wire.put_int}. Two histories append equal
    bytes exactly when their [to_csv] texts are equal, and the encoding
    is self-delimiting; the model checker hashes it into its state
    fingerprint without rendering any text. *)
