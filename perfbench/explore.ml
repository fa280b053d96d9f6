(* The check_explore workload: the bounded model checker on es with 3
   nodes, 2 writes, 2 reads, depth bound 32, preemption bound 2 and one
   droppable message, at jobs 1. It is exhaustive, so the seed picks
   nothing: every run explores the same 730 schedules and must find the
   protocol CLEAN. *)

open Dds_check

let config =
  {
    Schedule.proto = "es";
    nodes = 3;
    delta = 1;
    writes = 2;
    reads = 2;
    joins = 0;
    quorum = None;
    drop_budget = 1;
    crash_budget = 0;
    depth_bound = 32;
    preempt_bound = 2;
  }

let expected_schedules = 730

let now = Unix.gettimeofday

(* Set-up: the registry lookup and config validation, exercised by a
   one-write, one-read exploration that also warms the checker's code
   and heap before anything is timed. *)
let warm_config = { config with writes = 1; reads = 1; drop_budget = 0 }

let explore cfg =
  match Check.run (Dds_core.Protocol.find_exn cfg.Schedule.proto) cfg with
  | Ok o -> o
  | Error e -> failwith ("check config rejected: " ^ e)

(* Set-up time: the median of [n] such warm-ups at nominal speed, each
   less the reference work that interrupted it. *)
let warm_up n =
  Host.calibrate true;
  let k0 = Host.calibration () in
  let times =
    Array.init n (fun _ ->
        Gc.full_major ();
        let k = Host.calibration () and t = now () in
        ignore (explore warm_config);
        now () -. t -. ((Host.calibration ()).Host.ref_wall_s -. k.Host.ref_wall_s))
  in
  let k1 = Host.calibration () in
  Host.calibrate false;
  (times, Stats.median times /. (Host.slowdown k0 k1).Host.wall)

type run = {
  wall_s : float;
  cpu_s : float;
  minor_words : float;  (** exact only when not calibrated *)
  stats : Check.stats;
  clean : bool;
  slowdown : Host.slowdown option;  (** when the calibration timer ran *)
}

(* Each exploration starts from a collected heap, so that all start
   alike. *)
let run ?spans ~calibrated () =
  Gc.full_major ();
  if calibrated then Host.calibrate true;
  let k0 = Host.calibration () in
  let t0 = now () and c0 = Host.self_cpu_s () and m0 = Gc.minor_words () in
  let o = explore config in
  let m1 = Gc.minor_words () and c1 = Host.self_cpu_s () and t1 = now () in
  let k1 = Host.calibration () in
  if calibrated then Host.calibrate false;
  Option.iter (fun sp -> Span.add sp "check.run" ~start:t0 ~stop:t1) spans;
  {
    wall_s = t1 -. t0;
    cpu_s = c1 -. c0;
    minor_words = m1 -. m0;
    stats = o.Check.stats;
    clean = o.Check.violation = None;
    slowdown = (if calibrated then Some (Host.slowdown k0 k1) else None);
  }

(* The counters that must repeat exactly. *)
let exact_counts s =
  [ ("check.schedules", s.Check.schedules);
    ("check.state_prunes", s.Check.state_prunes);
    ("check.sleep_skips", s.Check.sleep_skips);
    ("check.cache_entries", s.Check.cache_entries);
    ("check.cache_peak", s.Check.cache_peak) ]
