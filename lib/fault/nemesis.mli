open Dds_sim

(** Nemesis schedules.

    A {!plan} is a seed-replayable fault schedule: a list of {!step}s
    combining message faults ({!Fault.rule}s), named partitions, and
    process faults (crash-stop, crash-recovery, churn storms). Plans
    are built with the combinator DSL below, printed and parsed by a
    textual codec ([to_string] / [of_string] round-trip exactly), and
    drawn at random by {!random} — so a counterexample found by the
    [dds hunt] randomized search is reproducible from its seed alone,
    and shrinks to a plan string that pastes straight into
    [dds run --nemesis]. *)

(** One scheduled fault. *)
type step =
  | Msg of Fault.rule  (** a message-fault rule (window inside the rule) *)
  | Partition of {
      name : string;
      a : int list;
      b : int list;
      symmetric : bool;  (** [false]: only [a] -> [b] is cut *)
      from_ : int;
      until_ : int;  (** heal time (inclusive last cut tick) *)
    }
  | Crash of {
      at : int;
      k : int;  (** victims, chosen among active processes at [at] *)
      recover : int option;
          (** [Some d]: crash-recovery — [k] fresh processes are
              spawned [d] ticks later. State is lost by construction:
              the infinite-arrival model never reuses pids, so a
              recovered process is a new identity that must re-join. *)
    }
  | Storm of { at : int; k : int }
      (** a churn burst: [k] active processes crash and [k] fresh ones
          enter at the same instant — population preserved, but the
          instantaneous churn rate spikes *)

type plan = step list

(** {1 Combinator DSL} *)

type window = { from_ : int; until_ : int }

val at : int -> window
(** The single-instant window [[t, t]]. *)

val during : from_:int -> until_:int -> window
(** @raise Invalid_argument if [until_ < from_]. *)

val always : window
(** [[0, max_int]]. *)

val drop :
  ?srcs:int list -> ?dsts:int list -> ?kinds:string list -> ?p:float -> ?max_faults:int ->
  window -> step

val dup :
  ?copies:int -> ?srcs:int list -> ?dsts:int list -> ?kinds:string list -> ?p:float ->
  ?max_faults:int -> window -> step
(** [copies] defaults to 1 (each hit delivers twice). *)

val delay :
  extra:int -> ?srcs:int list -> ?dsts:int list -> ?kinds:string list -> ?p:float ->
  ?max_faults:int -> window -> step

val corrupt :
  ?srcs:int list -> ?dsts:int list -> ?kinds:string list -> ?p:float -> ?max_faults:int ->
  window -> step

val partition : ?name:string -> a:int list -> b:int list -> ?symmetric:bool -> window -> step

val crash : ?recover:int -> k:int -> int -> step
(** [crash ~k t]: crash-stop [k] active processes at [t]. *)

val storm : k:int -> int -> step

val every : start:int -> period:int -> count:int -> (int -> step) -> plan
(** [every ~start ~period ~count mk] is [mk] applied at [start],
    [start + period], ... ([count] times). *)

(** {1 Codec}

    Grammar, one step per [;]-separated clause:
    {v
    drop(kind=INQUIRY|REPLY,src=1|2,dst=3,p=0.1,max=5)@[10,50]
    dup(copies=2)@[0,100]   delay(extra=9,kind=WRITE)@[40,60]
    corrupt()@7             partition(a=0-4,b=5-9,oneway)@[100,150]
    crash(k=2,recover=10)@120          storm(k=6)@200
    v}
    [@T] abbreviates [@[T,T]]; no [@] suffix means the open window;
    [@[T,]] is open-ended from [T]. Pid lists accept [|]-separated
    values and [lo-hi] ranges. [of_string (to_string p) = Ok p] for
    every plan [p]. *)

val to_string : plan -> string

val of_string : string -> (plan, string) result
(** [Error] carries a human-readable message naming the bad clause. *)

val pp : Format.formatter -> plan -> unit

val equal : plan -> plan -> bool

(** {1 Random plans} *)

(** What the generator may draw.

    [Within ~slack] stays inside the paper's assumptions — duplicates
    (quorums dedup by pid, waits are time-based), extra delay up to
    [slack] (the margin between the delta the protocol believes and
    the bound the network enforces), single crashes with recovery and
    small storms — so a run under such a plan must stay regular.

    [Any] adds the assumption-breaking arsenal: partitions, drops,
    unbounded delay, corruption, mass crashes. *)
type profile = Within of { slack : int } | Any

val random : rng:Rng.t -> n:int -> horizon:int -> delta:int -> profile -> plan
(** Draws 1-3 steps with windows inside [[1, horizon]]. Deterministic
    in the [rng] stream: the same seed always yields the same plan. *)
