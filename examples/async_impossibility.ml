(* Theorem 2, watched live: no regular register in a fully
   asynchronous dynamic system.

     dune exec examples/async_impossibility.exe

   The synchronous protocol is run over a network that ignores its
   delay bound: the writer's broadcasts crawl while everything else is
   fast. Writes keep returning (the writer's wait is a local timer it
   trusts for no-longer-valid reasons), so the register's "last
   written value" races ahead of anything a reader can learn. The
   staleness of reads then grows without bound in the horizon — the
   run is a concrete witness of the impossibility's mechanism: with no
   delay bound, any amount of waiting can expire before the evidence
   arrives. *)

open Dds_workload

let () =
  (* E7's table, its horizons doubling up to 8000 ticks. *)
  let e = Result.get_ok (Experiment.find "async") in
  let horizon = 8000 in
  List.iter Report.print (e.Experiment.run { e.Experiment.defaults with Experiment.horizon });
  let last = List.hd (Sweep.async_series ~horizons:[ horizon ] ()) in
  Format.printf
    "At horizon %d, reads lag %d completed writes behind — and the lag scales@."
    last.Sweep.as_horizon last.Sweep.as_max_staleness;
  Format.printf
    "linearly with the horizon: pick any bound, a long enough run exceeds it.@.";
  Format.printf
    "(The quorum-based protocol fails the other way here: its writes block@.";
  Format.printf
    "forever waiting for acknowledgements. Either safety or liveness must go.)@."
