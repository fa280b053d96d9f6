(** Deterministic pseudo-random number generation.

    Every source of randomness in the simulator (message delays, churn
    victim selection, workload arrival times) draws from an explicit
    {!t} value seeded at deployment creation, so a whole simulated
    execution is a pure function of its seed. The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, good
    statistical quality, and cheap {!split}ting into independent
    streams so that subsystems cannot perturb each other's draws.

    {b Domain safety.} A [t] is plain mutable state with no lock: it
    must stay confined to the domain that created it. The module keeps
    no global state (in particular it never touches [Stdlib.Random]),
    so the engine's rule — each parallel job builds its own generator
    from its own seed — makes concurrent simulations both safe and
    bit-for-bit identical to sequential ones. *)

type t
(** A mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator determined entirely by [seed]. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    independent of the remainder of [g]'s stream. Used to give each
    subsystem (network, churn, workload) its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** [int_in_range g ~lo ~hi] is uniform in [\[lo, hi\]] (inclusive).
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val stochastic_round : t -> float -> int
(** [stochastic_round g x] is [x]'s integer part plus one with
    probability its fractional part: an integer whose mean is [x], at
    the cost of exactly one {!float} draw. Turns a per-tick rate into
    this tick's count. *)

val bool : t -> bool
(** A fair coin flip. *)

val pick : t -> 'a array -> 'a
(** [pick g arr] is a uniformly chosen element of [arr].
    @raise Invalid_argument if [arr] is empty. *)

val pick_list : t -> 'a list -> 'a
(** [pick_list g l] is a uniformly chosen element of [l].
    @raise Invalid_argument if [l] is empty. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle of [arr], in place. *)
