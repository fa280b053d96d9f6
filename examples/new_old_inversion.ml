(* New/old inversion: why this register is regular but not atomic.

     dune exec examples/new_old_inversion.exe

   Reproduces the execution pictured in the paper's introduction: two
   writes w1, w2 and two sequential reads where the *earlier* read
   returns w2's value and the *later* read returns w1's. A regular
   register permits this (each read individually returns the last
   completed or a concurrent write); an atomic register does not. The
   synchronous protocol's purely local reads make the inversion easy
   to exhibit: one replica simply receives the WRITE broadcast later
   than another. *)

open Dds_spec
open Dds_workload

let () =
  let o = Scenario.inversion () in
  (* E1's table renders the same constructed execution. *)
  let e = Result.get_ok (Experiment.find "inversion") in
  List.iter Report.print (e.Experiment.run e.Experiment.defaults);
  Format.printf "Read values: r1 = %s, r2 = %s@."
    (match o.Scenario.fast_read with
    | Some v -> Format.asprintf "%a" Value.pp v
    | None -> "?")
    (match o.Scenario.slow_read with
    | Some v -> Format.asprintf "%a" Value.pp v
    | None -> "?");
  (match o.Scenario.inversions with
  | [ inv ] ->
    Format.printf
      "The checker found the inversion: a read that finished first returned sn=%d,@."
      inv.Atomicity.first_sn;
    Format.printf "while a read invoked strictly later returned sn=%d.@."
      inv.Atomicity.second_sn
  | _ -> Format.printf "unexpected: inversion count <> 1@.");
  Format.printf
    "Regularity verdict: %b — the history is legal for a regular register,@."
    (Regularity.is_ok o.Scenario.report);
  Format.printf
    "yet not linearizable. This is exactly the gap Lamport's hierarchy describes.@."
