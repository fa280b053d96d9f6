(** Imperative binary min-heap.

    {!Scheduler} keeps its far events here — those beyond its per-tick
    wheel — and needs [insert], [pop] and [top] in O(log n) with stable
    behaviour under millions of operations. The heap is polymorphic in
    its elements and takes the ordering at creation time. *)

type 'a t
(** A mutable min-heap of ['a] values. *)

val create : cmp:('a -> 'a -> int) -> unit -> 'a t
(** [create ~cmp ()] is an empty heap ordered by [cmp] (smallest first). *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val insert : 'a t -> 'a -> unit
(** Adds an element. O(log n). *)

val top : 'a t -> 'a
(** The minimum element, without removing it. O(1).
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a
(** Removes and returns the minimum element. O(log n). Allocates
    nothing, so moving far events into the scheduler's wheel is
    garbage-free.
    @raise Invalid_argument if the heap is empty. *)

val clear : 'a t -> unit
(** Removes every element. *)

val to_sorted_list : 'a t -> 'a list
(** Non-destructive: the heap contents in ascending order. O(n log n);
    intended for tests and debugging. *)
