open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec

(** An array of [k] regular registers shared by one dynamic system.

    The alpha abstraction needs one single-writer register per
    participant; this module composes [k] independent instances of the
    eventually-synchronous protocol over one scheduler, one membership
    and one churn engine — each register has its own network (message
    spaces never mix) and its own {!Dds_core.Node_host}, which records
    that register's history, and each process runs [k] protocol nodes,
    one per register. A process is {e active} once all [k] of its joins
    have returned; operations on different registers by the same
    process may run in parallel (they are different nodes), while each
    single register keeps the one-op-at-a-time discipline.

    Register [j]'s designated writer is founding member [j] (so
    [k <= n] at creation); everyone may read. This is exactly the
    régime footnote 1 permits. *)

type t

val create :
  seed:int ->
  n:int ->
  k:int ->
  delay:Delay.t ->
  churn_rate:float ->
  ?churn_policy:Churn.leave_policy ->
  ?protect:(Pid.t -> bool) ->
  unit ->
  t
(** [n] founding processes, [k] registers, all initialized to the
    codec's ⊥ packing.
    @raise Invalid_argument if [k < 1] or [k > n]. *)

val k : t -> int

val scheduler : t -> Scheduler.t

val membership : t -> Membership.t

val rng : t -> Rng.t
(** A stream reserved for layers built on top (leader retry jitter). *)

val founding : t -> Pid.t list
(** The [n] founding members, ascending; the first [k] own registers. *)

val owner : t -> reg:int -> Pid.t
(** Register [reg]'s designated writer (founding member [reg]). *)

val start_churn : t -> until:Time.t -> unit

val is_active : t -> Pid.t -> bool
(** All [k] joins returned and the process has not left. *)

val is_present : t -> Pid.t -> bool

val spawn : t -> Pid.t
(** One new process enters and joins all [k] registers. *)

val retire : t -> Pid.t -> unit

val read : t -> self:Pid.t -> reg:int -> k:(Codec.record -> unit) -> unit
(** Reads register [reg] from [self]'s replica set. The continuation
    never fires if [self] leaves first.
    @raise Invalid_argument if [self] is not active or that register
    node is busy. *)

val write : t -> self:Pid.t -> reg:int -> record:Codec.record -> k:(unit -> unit) -> unit
(** Writes [record] to register [reg]. Must only be called with
    [self = owner t ~reg]; writes are then never concurrent.
    @raise Invalid_argument if [self] is not the owner, not active, or
    the register node is busy. *)

val snapshot_own : t -> self:Pid.t -> reg:int -> Codec.record
(** The owner's local copy of its own register — always its latest
    write (it applies locally before broadcasting), so the alpha can
    preserve its own [lrww]/[v] without a read round. *)

val busy : t -> self:Pid.t -> reg:int -> bool

val on_membership_change : t -> (unit -> unit) -> unit
(** Registers a callback invoked after every spawn/retire — layers use
    it to attach control-plane handlers for newcomers. *)

val histories : t -> History.t array
(** Per-register operation histories (for checking each register's
    regularity independently). *)
