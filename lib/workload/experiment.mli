(** The experiment registry: every table of the DESIGN.md index
    (E1–E25), declared once.

    The paper has no measured evaluation, so these tables are the
    reproduction. Each entry names an experiment, carries the
    parameters EXPERIMENTS.md quotes, and knows how to run and render
    it: the entry holds the table's title, headers, notes and the
    mapping from {!Sweep}'s typed rows to cells. [dds sweep], [dds
    list] and the bench harness all derive from {!all}; nothing else
    names an experiment, holds its parameters or renders its table.
    Adding a table is one entry here, plus a runner in {!Sweep} if no
    existing one fits.

    Only the values the CLI has flags for are parameters. Grid
    constants (ratios, losses, speeds, ...) are fixed inside [run]. *)

type params = {
  n : int;  (** system size (per shard for E25) *)
  delta : int;  (** message delay bound *)
  horizon : int;  (** workload horizon, ticks *)
  seed : int;  (** run seed; the first of [reps] consecutive seeds where an entry repeats *)
  churn : float;  (** churn rate c *)
  keys : int;  (** key-space size (E25) *)
  read_rate : float;  (** expected reads per tick (E25) *)
  write_every : int;  (** one write every this many ticks (E25) *)
  reps : int;  (** repetitions: consecutive seeds, or trials (E12) *)
}

type t = {
  id : string;  (** the name [dds sweep] takes, e.g. ["lemma2"] *)
  enum : string;  (** the DESIGN.md number, e.g. ["e4"] *)
  aliases : string list;  (** further accepted names *)
  doc : string;  (** one line for [dds list] *)
  defaults : params;  (** the parameters EXPERIMENTS.md quotes *)
  run : ?pool:Dds_engine.Pool.t -> params -> Report.t list;
      (** Runs the experiment and renders its tables. Cells go through
          [pool] when given; the tables are byte-identical for any
          worker count. *)
}

val all : t list
(** One entry per experiment, in E-number order. *)

val find : string -> (t, string) result
(** Resolves an id, E-number or alias, ignoring case. The error names
    every registered id. *)

val quick : params -> params
(** The reduced scale the bench's [--quick] runs: a quarter of the
    horizon (never under 120 ticks) and a quarter of the repetitions
    (at least one). *)
