(** Fixed-width table rendering for experiment output.

    Every experiment runner produces one of these; the bench harness
    and the CLI print them, and EXPERIMENTS.md quotes them. Cells are
    plain strings so runners control their own numeric formatting. *)

type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;  (** free-form caption lines printed below *)
  data : (string * Dds_sim.Json.t) option;
      (** A typed copy of the rows, which the bench harness writes as
          this named top-level section of [BENCH_results.json]. *)
}

val make : title:string -> headers:string list -> ?notes:string list -> string list list -> t
(** A table without {!field-data}. *)

val with_data : string -> Dds_sim.Json.t -> t -> t

val cell_int : int -> string

val cell_float : ?decimals:int -> float -> string
(** Default 2 decimals; renders nan as ["-"]. *)

val cell_bool : bool -> string
(** ["yes"] / ["no"]. *)

val pp : Format.formatter -> t -> unit

val print : t -> unit
(** [pp] on stdout. *)

val to_json : t -> Dds_sim.Json.t
(** The table as a JSON object ([title]/[headers]/[rows]/[notes],
    cells as strings) — what the bench harness aggregates into
    [BENCH_results.json]. *)
