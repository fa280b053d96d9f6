(** Discrete simulated time.

    The paper's time model is the set of positive integers (Section 2.1):
    local processing is instantaneous, messages take between 1 and [delta]
    time units, and churn refreshes [c * n] processes per time unit. A
    value of type {!t} is a point on that integer time line; durations are
    plain [int]s. *)

type t = private int
(** A point in simulated time. Never negative. *)

val zero : t
(** The origin of the simulation clock. *)

val of_int : int -> t
(** [of_int x] is the time point [x].
    @raise Invalid_argument if [x < 0]. *)

val to_int : t -> int
(** [to_int t] is the underlying integer tick count. *)

val add : t -> int -> t
(** [add t d] is the time point [d] ticks after [t].
    @raise Invalid_argument if the result would be negative. *)

val diff : t -> t -> int
(** [diff later earlier] is [to_int later - to_int earlier]. The result is
    negative when [later] precedes [earlier]. *)

val compare : t -> t -> int
(** Total order on time points. *)

val equal : t -> t -> bool

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val ( >= ) : t -> t -> bool

val ( > ) : t -> t -> bool

val min : t -> t -> t

val max : t -> t -> t

val count_before : t array -> t -> int
(** [count_before sorted t] is how many entries of [sorted], which must
    not decrease, are strictly before [t]: one binary search. *)

val pp : Format.formatter -> t -> unit
(** Prints a time point as [t=<ticks>]. *)
