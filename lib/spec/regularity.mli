(** The regular-register safety checker.

    Section 2.2's safety property: {e a read returns the last value
    written before the read invocation, or a value written by a write
    concurrent with it}. This module replays a recorded history and
    flags every read (and, optionally, every join — Lemma 3 promises
    joins the same guarantee) whose returned value is outside its
    allowed set.

    Timestamps are tick-granular while the scheduler interleaves many
    events inside one tick, so precedence is judged {e permissively}:
    a write is "completed before" a read only when its response is
    strictly before the read's invocation, and "concurrent" whenever
    their closed intervals intersect. A value allowed under either
    reading of a tick-boundary tie is accepted — the checker never
    reports a violation that some legal interleaving could explain.

    The checker assumes the single-writer regime of the paper
    (footnote 1 / Section 5.3): writes must not overlap. Overlapping
    writes are reported via [writes_sequential = false] and the safety
    verdict is then not meaningful. *)

type violation = {
  op : History.op;  (** the offending read or join *)
  returned : Value.t;
  allowed : Value.t list;  (** what regularity would have accepted *)
}

type report = {
  checked_reads : int;
  checked_joins : int;
  violations : violation list;
  writes_sequential : bool;
      (** writes were totally ordered by real time, as assumed *)
  distinct_data : bool;
      (** every write (and the initial value) carried a distinct datum,
          so datum-level matching is exact. Values are matched by datum
          because a write pending at the horizon has not fixed its
          sequence number yet. *)
}

val check : ?include_joins:bool -> History.t -> report
(** Replays the history. [include_joins] (default [true]) also applies
    the read rule to completed joins per Lemma 3. Pending and aborted
    operations are skipped.

    Cost: O((R + W) log W) for R reads and joins and W write spans. One
    pass over the history sorts it into reads, joins and write spans;
    the spans, sorted by sequence number, are indexed once by datum,
    and the completed ones once by response, each entry carrying the
    highest sequence number completed so far. A read's last completed
    write is then one binary search, and its verdict is O(1) per span
    of the returned datum: that span is the last completed one, or is
    concurrent with the read. The [allowed] list is built only for a
    violation.

    The index is exact for every history: repeated data (each datum
    keeps all its spans) and writes whose responses decrease in
    sequence-number order (overlapping writes) included. The report
    equals {!check_by_fold}'s, field for field. *)

val check_by_fold : ?include_joins:bool -> History.t -> report
(** The O(R x W) reference: every read and join folds over every write
    span and builds its allowed list. Kept as the test oracle for
    {!check}, the role {!Linearizability.check} has for {!Atomicity}:
    only tests call it. *)

val is_ok : report -> bool
(** No violations, writes were sequential and data distinct. *)

val pp_violation : Format.formatter -> violation -> unit
