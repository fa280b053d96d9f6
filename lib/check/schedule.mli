(** Replayable checker schedules.

    A schedule is everything needed to re-execute one explored run
    exactly: the deployment configuration the checker built (protocol,
    sizes, workload script, adversary budgets, bounds) plus the
    decision sequence — one line per choice point, recording which
    branch was taken out of how many, with a human-readable label.
    Decisions beyond the recorded sequence default to branch 0
    (deliver in FIFO order, inject nothing), so a truncated or
    violating prefix replays to the identical execution.

    The textual format is line-oriented and exact:
    [to_string >> of_string] is the identity, so a counterexample
    written by [dds check] replays byte-for-byte under
    [dds replay FILE]. *)

type config = {
  proto : string;
  nodes : int;
  delta : int;
  writes : int;  (** scripted writes, all from the designated writer *)
  reads : int;  (** scripted reads, round-robin over the other nodes *)
  joins : int;  (** scripted joiners entering mid-run *)
  quorum : int option;  (** ES quorum override (the mutation lever) *)
  drop_budget : int;  (** adversary may drop up to this many messages *)
  crash_budget : int;  (** ... and crash up to this many processes *)
  depth_bound : int;  (** max decisions per run; deeper points default *)
  preempt_bound : int;  (** max non-FIFO scheduling choices per run *)
}

type decision = {
  chosen : int;  (** branch taken, in [\[0, arity)] *)
  arity : int;  (** how many branches the point offered *)
  label : string;  (** the chosen branch, human-readable (no spaces) *)
}

type t = { config : config; decisions : decision list }

val to_string : t -> string
val of_string : string -> (t, string) result
val pp : Format.formatter -> t -> unit
