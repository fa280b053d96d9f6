open Dds_sim
open Dds_net

(** Dynamic system composition.

    Tracks which processes are in the system and in which mode
    (Section 2.1): a process is {e joining} (listening mode) from the
    invocation of its [join] operation, {e active} once [join] returns,
    and gone forever once it leaves. The full lifecycle of every
    process ever present is kept, so experiments can reconstruct
    [A(tau)] and [A(tau1, tau2)] after the run (see {!Analysis}). *)

type status =
  | Joining  (** in listening mode, [join] not yet returned *)
  | Active  (** [join] returned; may invoke read/write and must answer inquiries *)
  | Left  (** departed (voluntarily or by crash); never comes back *)

type record = {
  pid : Pid.t;
  join_time : Time.t;  (** when the process entered (listening from here) *)
  mutable active_time : Time.t option;  (** when [join] returned, if it did *)
  mutable leave_time : Time.t option;  (** when it left, if it did *)
  mutable crashed : bool;
      (** the departure was a crash-stop, not a graceful leave — the
          model treats both identically (a crash {e is} an unannounced
          leave, Section 2.1), so this only feeds audit attribution *)
}

type t

val create : ?metrics:Metrics.t -> ?events:Event.sink -> ?nodes:int -> unit -> t
(** An empty composition. [nodes] (default 64) is the expected
    population; it only sizes the record table. [metrics] receives [churn.join],
    [churn.activate], [churn.leave] and [churn.crash] counters;
    [events] receives one typed [Node_join] per {!add} and one
    [Node_leave] — or [Node_crash] for a [~crashed] removal — per
    {!remove} (activation is visible as the join span's [Op_end]
    instead). *)

val add : t -> Pid.t -> now:Time.t -> unit
(** The process enters the system (status {!Joining}).
    @raise Invalid_argument if the pid was ever present before. *)

val set_active : t -> Pid.t -> now:Time.t -> unit
(** The process's [join] returned.
    @raise Invalid_argument if the pid is not currently {!Joining}. *)

val remove : t -> ?crashed:bool -> Pid.t -> now:Time.t -> unit
(** The process leaves, forever. [~crashed:true] (default [false])
    marks the departure as a crash-stop: same membership effect, but
    the record is flagged, the event is [Node_crash] and the counter is
    [churn.crash], so traces distinguish injected crashes from the
    churn engine's graceful departures.
    @raise Invalid_argument if the pid is not currently present. *)

val status : t -> Pid.t -> status option
(** [None] for a pid never seen. *)

val is_present : t -> Pid.t -> bool
(** Joining or active. *)

val is_active : t -> Pid.t -> bool

val n_present : t -> int

val n_active : t -> int

val n_joining : t -> int

val present : t -> Pid.t list
(** Ascending pid order. *)

val active : t -> Pid.t list
(** Ascending pid order. *)

val joining : t -> Pid.t list
(** Ascending pid order. *)

val find_record : t -> Pid.t -> record option

val records : t -> record list
(** Lifecycle records of every process ever present, ascending pid. *)
