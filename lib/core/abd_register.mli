open Dds_spec

(** Static ABD-style atomic register (Attiya, Bar-Noy & Dolev, JACM
    1995 — the paper's reference [3]), as the baseline the dynamic
    protocols are measured against.

    ABD assumes a {e fixed} set of [n0] servers of which a majority
    never fails. Here the servers are the founding members; processes
    that join later act as clients only — they can read and write
    through the original group but never serve, because a static
    protocol has no way to induct them. Under churn the founding
    majority erodes and every quorum wait eventually blocks forever:
    experiment E10 measures exactly when. This is not a strawman
    implementation — reads and writes are the classic two-phase
    (query-majority then, optionally, write-back) algorithm and are
    linearizable while the founding majority survives.

    A joining process's "join" is a client read: it terminates when a
    majority of the founding group answers, and adopts the newest
    value heard. *)

type params = {
  group_size : int;  (** [n0], the founding server-group size *)
  read_write_back : bool;
      (** propagate the read value to a majority before returning
          (required for atomicity; [false] gives a regular register) *)
}

val default_params : group_size:int -> params
(** [read_write_back = true]. *)

val majority : params -> int
(** [floor(group_size/2) + 1]. *)

type msg =
  | Read_req of { r_sn : int }
  | Read_reply of { value : Value.t; r_sn : int }
  | Write_req of { value : Value.t; wid : int }
  | Write_ack of { wid : int }

include Register_intf.PROTOCOL with type msg := msg and type params := params
