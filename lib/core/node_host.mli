open Dds_sim
open Dds_net
open Dds_spec

(** The simulated host of one register's protocol nodes.

    A host owns the nodes of one register over one simulated network
    and is the only place where a protocol operation becomes a
    {!History} record: it records every join, read and write at
    invocation (a write with the sequence number the writer expects to
    assign) and closes it at response with the value actually returned
    or written. When a process departs it closes the telemetry span of
    the operation cut short, makes the node leave and aborts the
    process's in-flight records, so the safety checkers judge exactly
    what Section 2.2 covers.

    Membership is the caller's: a host never touches a
    {!Dds_churn.Membership.t}, because when a process becomes active is
    the caller's rule (a deployment activates a joiner when its one
    join returns, a register array only once all [k] have). *)

module Make (P : Register_intf.PROTOCOL) : sig
  type t

  val create : sched:Scheduler.t -> net:P.msg Network.t -> params:P.params -> t
  (** No process yet. Every node runs over one runtime built on
      [sched] and [net]. The register's value at time 0, held by every
      founder and recorded as the history's initial value, is datum 0
      with sn 0 ({!Value.initial}[ 0]). *)

  val history : t -> History.t

  val found : t -> Pid.t -> on_active:(Value.t -> unit) -> unit
  (** Brings up a founding member holding the initial value. No history
      record: Section 3.3's initialization is no operation. [on_active]
      fires before [found] returns. *)

  val join : t -> Pid.t -> on_active:(Value.t -> unit) -> unit
  (** Brings up a joiner and records its join. When the join returns
      while the process is still hosted, the record is closed with the
      adopted value and then [on_active] fires; after a departure it
      never fires. *)

  val node : t -> Pid.t -> P.node option
  (** The node of a hosted process. *)

  val idle : t -> Pid.t -> bool
  (** Hosted, active and with no operation in flight. *)

  val read : t -> Pid.t -> k:(Value.t -> unit) -> unit
  (** Records and invokes a read; [k] fires after the record closes,
      and never after a departure.
      @raise Invalid_argument (recording nothing) unless {!idle}. *)

  val write : t -> Pid.t -> int -> k:(Value.t -> unit) -> unit
  (** Records and invokes a write of the datum. The record carries the
      node's current sequence number plus one (0 when it holds ⊥) and
      is patched with the value actually written at completion, after
      which [k] fires (never after a departure).
      @raise Invalid_argument (recording nothing) unless {!idle}. *)

  val depart : t -> Pid.t -> unit
  (** The process leaves: its open span ends [Aborted], its node
      leaves, and its in-flight records are aborted.
      @raise Invalid_argument if the process is not hosted. *)
end
