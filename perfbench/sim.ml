(* The sim_churn workload: the experiment path's hot loop. A simulated es
   deployment (n = 30, delta = 3, churn 0.01, 0.5 reads per tick, one
   write every 20 ticks) runs to horizon 3000 for each of four seeds,
   and each seed's history is checked for regularity. One pass over the
   four seeds is a unit; a run repeats the unit, which also proves that
   the exact counts repeat. *)

open Dds_core
module Time = Dds_sim.Time
module D = Deployment.Make (Es_register)
module G = Dds_workload.Generator.Make (D)

let n = 30
let delta = 3
let churn = 0.01
let read_rate = 0.5
let horizon = 3000
let seeds_per_unit = 4

let cell_seeds ~seed = List.init seeds_per_unit (fun i -> (seed * seeds_per_unit) + i)

let config seed =
  Deployment.default_config ~seed ~n ~delay:(Dds_net.Delay.synchronous ~delta) ~churn_rate:churn

let now = Unix.gettimeofday

type cell = {
  seed : int;
  cpu_s : float;  (** the whole cell, set-up and check included *)
  wall_s : float;
  slowdown : Host.slowdown option;  (** over the cell, when calibrated *)
  create_s : float;
  plan_s : float;
  run_wall_s : float;  (** [run_until] and the regularity check *)
  check_s : float;
  events : int;
  ops : int;  (** reads, writes and joins in the history *)
  transmits : int;
  minor_words : float;  (** allocated inside [run_until]; exact *)
  promoted_words : float;
  regular : bool;
}

(* One seed, from a collected heap so that every pass starts its cells
   from the same heap state. With [spans], each phase is recorded under
   a cell span. *)
let cell ?spans seed =
  Gc.full_major ();
  let k0 = Host.calibration () and c_start = Host.self_cpu_s () in
  let t0 = now () in
  let d = D.create (config seed) (Es_register.default_params ~n) in
  let t1 = now () in
  D.start_churn d ~until:(Time.of_int horizon);
  G.run d
    {
      Dds_workload.Generator.read_rate;
      write_every = 20;
      start = Time.of_int 1;
      until = Time.of_int horizon;
    };
  let t2 = now () in
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let m0 = Gc.minor_words () in
  D.run_until d (Time.of_int (horizon + (20 * delta)));
  let m1 = Gc.minor_words () in
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let t3 = now () in
  let report = D.regularity d in
  let t4 = now () in
  let c_end = Host.self_cpu_s () and k1 = Host.calibration () in
  (match spans with
  | Some sp ->
    let root = Span.open_ sp "sim.cell" ~start:t0 in
    Span.add sp ~parent:root "core.create" ~start:t0 ~stop:t1;
    Span.add sp ~parent:root "workload.plan" ~start:t1 ~stop:t2;
    Span.add sp ~parent:root "sim.run_until" ~start:t2 ~stop:t3;
    Span.add sp ~parent:root "spec.regularity" ~start:t3 ~stop:t4;
    Span.close sp root ~stop:t4
  | None -> ());
  {
    seed;
    cpu_s = c_end -. c_start;
    wall_s = t4 -. t0;
    slowdown = (if k1.Host.samples > k0.Host.samples then Some (Host.slowdown k0 k1) else None);
    create_s = t1 -. t0;
    plan_s = t2 -. t1;
    run_wall_s = t4 -. t2;
    check_s = t4 -. t3;
    events = Dds_sim.Scheduler.events_fired (D.scheduler d);
    ops = Dds_spec.History.count (D.history d);
    transmits = Dds_sim.Metrics.get (D.metrics d) "net.transmit";
    minor_words = m1 -. m0;
    promoted_words = p1 -. p0;
    regular = Dds_spec.Regularity.is_ok report;
  }

(* One pass over the seeds. A calibrated pass runs the reference work
   under the profiling timer and carries the host's slowdown over its
   cells; its allocation counts then include the reference's, so the
   exact counts come from uncalibrated passes. *)
type pass = { cells : cell list; slowdown : Host.slowdown option; cpu_s : float; wall_s : float }

let pass ?spans ~calibrated ~seed () =
  if calibrated then Host.calibrate true;
  let cells = List.map (cell ?spans) (cell_seeds ~seed) in
  if calibrated then Host.calibrate false;
  let sum f = List.fold_left (fun acc (c : cell) -> acc +. f c) 0. cells in
  {
    cells;
    slowdown =
      (if calibrated then
         Some (List.fold_left Host.merge Host.none (List.filter_map (fun (c : cell) -> c.slowdown) cells))
       else None);
    cpu_s = sum (fun (c : cell) -> c.cpu_s);
    wall_s = sum (fun (c : cell) -> c.wall_s);
  }

(* The same pass through the engine's pool: cells as jobs, at a given
   worker count. Returns wall seconds and the workers' busy share. *)
let pooled ~jobs ~seed =
  Dds_engine.Pool.with_pool ~jobs (fun pool ->
      let t0 = now () in
      let cells =
        Dds_engine.Pool.map pool ~key:string_of_int ~f:(fun s -> (cell s).regular) (cell_seeds ~seed)
      in
      let wall = now () -. t0 in
      let busy =
        List.fold_left (fun acc w -> acc +. w.Dds_engine.Pool.ws_busy_s) 0. (Dds_engine.Pool.stats pool)
      in
      (wall, busy /. (wall *. float_of_int jobs), List.for_all Fun.id cells))
