(** Process identities under the infinite-arrival model.

    The paper assumes infinitely many uniquely-identified processes may
    join over a run, finitely many being present at any instant
    (Section 2.1, after Merritt-Taubenfeld). A {!t} is such an
    identity; a {!gen} hands them out in arrival order and never reuses
    one — a process that leaves and comes back gets a fresh identity,
    exactly as the model prescribes. *)

type t = private int
(** A unique process identifier. *)

type gen
(** A monotone identifier source. *)

val generator : unit -> gen
(** A fresh source starting at identifier 0. *)

val fresh : gen -> t
(** The next never-before-issued identifier. *)

val issued : gen -> int
(** How many identifiers this source has handed out. *)

val to_int : t -> int

val of_int : int -> t
(** For tests and table decoding.
    @raise Invalid_argument on negative input. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [p<i>]. *)

val to_string : t -> string
(** The same text as {!pp} (["p3"]), without going through [Format]. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
module Table : Hashtbl.S with type key = t
