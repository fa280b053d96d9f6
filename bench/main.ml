(* Benchmark harness: regenerates every experiment table of the
   registry (lib/workload/experiment.ml, E1-E25 — the paper has no
   measured evaluation, so these reproduce its figures, lemmas and
   theorems empirically), then runs Bechamel micro/macro benchmarks of
   the substrate and protocols.

   Usage:
     dune exec bench/main.exe               # tables + bechamel
     dune exec bench/main.exe -- --tables   # experiment tables only
     dune exec bench/main.exe -- --bench    # bechamel only
     dune exec bench/main.exe -- --quick    # smaller parameters (Experiment.quick)
     dune exec bench/main.exe -- --jobs 4   # engine workers for the tables
     dune exec bench/main.exe -- --baseline OLD.json --max-regress 25
                                            # compare against a previous
                                            # BENCH_results.json; exit 1 on
                                            # regressions beyond the limit *)

open Dds_sim
open Dds_net
open Dds_core
open Dds_workload

let quick = Array.exists (String.equal "--quick") Sys.argv
let tables_only = Array.exists (String.equal "--tables") Sys.argv
let bench_only = Array.exists (String.equal "--bench") Sys.argv

let opt_arg name =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if String.equal Sys.argv.(i) name then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let jobs =
  match opt_arg "--jobs" with
  | Some s -> ( try int_of_string s with Failure _ -> 0)
  | None -> 0

let baseline = opt_arg "--baseline"

let max_regress =
  match opt_arg "--max-regress" with
  | Some s -> ( try float_of_string s with Failure _ -> 25.0)
  | None -> 25.0

(* ------------------------------------------------------------------ *)
(* Experiment tables *)

(* One representative sweep timed at increasing --jobs; the rows land
   in BENCH_results.json. *)
type scaling_row = {
  sc_jobs : int;  (* worker count the sweep ran with *)
  sc_wall_s : float;
  sc_speedup : float;  (* wall(jobs=1) / wall(this row) *)
}

let engine_scaling ~case rows =
  Report.make
    ~title:(Printf.sprintf "engine — worker scaling on %s" case)
    ~headers:[ "jobs"; "wall s"; "speedup" ]
    ~notes:
      [
        "The same sweep submitted through the engine at increasing worker";
        "counts. Output is byte-identical at every worker count (canonical-";
        "order aggregation); only the wall clock moves. Speedup is relative";
        "to jobs=1 and is bounded by the host's cores and the longest cell.";
      ]
    (List.map
       (fun r ->
         [ Report.cell_int r.sc_jobs; Report.cell_float ~decimals:2 r.sc_wall_s;
           Report.cell_float r.sc_speedup ])
       rows)

(* Prints each table as it is produced and returns them all (plus the
   engine-scaling rows), so the run can be serialized to
   BENCH_results.json at the end. Every experiment of the registry runs
   at its registered parameters (reduced by --quick) through [pool]. *)
let run_tables ~pool () =
  let acc = ref [] in
  let show r =
    acc := r :: !acc;
    Report.print r
  in
  let scaled p = if quick then Experiment.quick p else p in
  Format.printf "@.#### Experiment tables (paper: Baldoni et al., ICDCS 2009) ####@.";
  List.iter
    (fun (e : Experiment.t) -> List.iter show (e.Experiment.run ~pool (scaled e.Experiment.defaults)))
    Experiment.all;

  (* Engine scaling — the E24 matrix re-timed under dedicated pools of
     1, 2 and 4 workers, first at its table size with a profiler
     attached (its per-site cost is a few array stores — see the
     profiler-overhead bechamel pair), then at --horizon 2000, big
     enough (~seconds sequential) that domain spawn and
     shared-major-heap fixed costs stop dominating the measurement
     (ROADMAP item 2). Wall time includes pool setup/teardown, which is
     what a CLI user pays too; the profiled summaries become
     BENCH_results.json's [engine_profile] section. *)
  let nemesis = Result.get_ok (Experiment.find "e24") in
  let time ~profiled p jobs =
    let profile = if profiled then Some (Dds_profile.Profile.create ~workers:jobs ()) else None in
    let t0 = Unix.gettimeofday () in
    Dds_engine.Pool.with_pool ~jobs ?profile (fun pool ->
        ignore (nemesis.Experiment.run ~pool p));
    (jobs, Unix.gettimeofday () -. t0, Option.map Dds_profile.Profile.summary profile)
  in
  let scaling ~case ~profiled p =
    let runs = List.map (time ~profiled p) [ 1; 2; 4 ] in
    let base = match runs with (_, w, _) :: _ -> w | [] -> 0.0 in
    let rows =
      List.map
        (fun (j, w, _) ->
          { sc_jobs = j; sc_wall_s = w; sc_speedup = (if w > 0. then base /. w else 0.) })
        runs
    in
    show (engine_scaling ~case rows);
    (rows, List.filter_map (fun (j, w, s) -> Option.map (fun s -> (j, w, s)) s) runs)
  in
  let case = "E24 nemesis matrix" in
  let rows, profile_rows = scaling ~case ~profiled:true (scaled nemesis.Experiment.defaults) in
  List.iter
    (fun (j, _, (s : Dds_profile.Profile.summary)) ->
      Format.printf "  profile jobs=%d: busy %.0f%%, %.3g minor words/job, %s@." j
        (100.0 *. s.Dds_profile.Profile.s_busy_fraction)
        s.Dds_profile.Profile.s_minor_words_per_job s.Dds_profile.Profile.s_dominant)
    profile_rows;
  let big = scaled { nemesis.Experiment.defaults with Experiment.horizon = 2000 } in
  let big_case = Printf.sprintf "%s, --horizon %d" case big.Experiment.horizon in
  let rows_big, _ = scaling ~case:big_case ~profiled:false big in
  (List.rev !acc, [ (case, rows); (big_case, rows_big) ], profile_rows)

(* ------------------------------------------------------------------ *)
(* Explorer throughput *)

(* The dds check explorer on its canonical seeded-bug configuration
   (3-node ES with the quorum mutated to 1 and one droppable message):
   wall time and schedules/sec at 1, 2 and 4 workers with the
   reductions on, plus the same exploration with sleep sets and the
   state cache disabled — the explored count is worker-independent, so
   the jobs rows differ only in wall clock, and the naive row prices
   what the reductions save. *)
type checker_row = {
  ck_label : string;
  ck_jobs : int;
  ck_naive : bool;
  ck_schedules : int;
  ck_wall_s : float;
  ck_per_s : float;
  ck_cache_peak : int;  (** largest single subtree fingerprint cache *)
  ck_cache_hit_rate : float;  (** prunes / (prunes + entries inserted) *)
  ck_minor_per_sched : float;  (** minor words allocated per schedule *)
}

let run_checker_rows () =
  let p = Protocol.find_exn "es" in
  let cfg =
    {
      Dds_check.Schedule.proto = "es";
      nodes = 3;
      delta = 1;
      writes = 1;
      reads = 1;
      joins = 0;
      quorum = Some 1;
      drop_budget = 1;
      crash_budget = 0;
      depth_bound = 20;
      preempt_bound = 2;
    }
  in
  let time ~naive jobs =
    (* The profiler rides along for its allocation telemetry: minor
       words are per-domain in OCaml 5, so per-job Gc deltas summed
       over Job spans are the only number that stays right at jobs>1. *)
    let profile = Dds_profile.Profile.create ~workers:jobs () in
    let t0 = Unix.gettimeofday () in
    let outcome =
      Dds_engine.Pool.with_pool ~jobs ~profile (fun pool ->
          Dds_check.Check.run ~pool ~por:(not naive) ~state_cache:(not naive) p cfg)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let summary = Dds_profile.Profile.summary profile in
    match outcome with
    | Error e -> failwith e
    | Ok o ->
      let st = o.Dds_check.Check.stats in
      let n = st.Dds_check.Check.schedules in
      let hits = st.Dds_check.Check.state_prunes in
      let misses = st.Dds_check.Check.cache_entries in
      {
        ck_label = (if naive then "naive DFS" else "sleep sets + state cache");
        ck_jobs = jobs;
        ck_naive = naive;
        ck_schedules = n;
        ck_wall_s = wall;
        ck_per_s = (if wall > 0. then float_of_int n /. wall else 0.);
        ck_cache_peak = st.Dds_check.Check.cache_peak;
        ck_cache_hit_rate =
          (if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses)
           else 0.0);
        ck_minor_per_sched =
          (if n > 0 then summary.Dds_profile.Profile.s_minor_words /. float_of_int n
           else 0.0);
      }
  in
  let rows =
    List.map (fun j -> time ~naive:false j) [ 1; 2; 4 ] @ [ time ~naive:true 1 ]
  in
  Format.printf
    "@.#### Explorer throughput (check es, quorum=1, 1 drop, depth 20) ####@.@.";
  Format.printf "  %-26s %4s %10s %8s %12s %11s %6s %13s@." "mode" "jobs" "schedules"
    "wall s" "schedules/s" "cache peak" "hit%" "minor w/sched";
  List.iter
    (fun r ->
      Format.printf "  %-26s %4d %10d %8.3f %12.0f %11d %6.1f %13.0f@." r.ck_label
        r.ck_jobs r.ck_schedules r.ck_wall_s r.ck_per_s r.ck_cache_peak
        (100.0 *. r.ck_cache_hit_rate) r.ck_minor_per_sched)
    rows;
  rows

(* ------------------------------------------------------------------ *)
(* Idle-path CPU probe *)

(* One straggler job sleeps ~50ms on worker 0 while the other workers'
   deques are already drained, so they sit in the steal-scan idle loop
   the whole time. With the exponential backoff in Pool.work the
   process CPU over the batch stays near zero (everyone is sleeping);
   the old fixed-cadence relax/sleep loop burned most of a core per
   idle worker, i.e. ~(jobs-1) * wall of CPU. Sys.time is ISO C
   clock(): processor time across every domain of the process, exactly
   the number busy-waiting inflates. The run also re-checks the
   determinism contract the backoff must not disturb: the merged
   output equals the jobs=1 run of the same batch. *)
type idle_row = {
  ip_jobs : int;
  ip_wall_s : float;
  ip_cpu_s : float;
  ip_cpu_per_idle : float;  (** cpu / ((jobs-1) * wall): 0 = all asleep, 1 = busy-wait *)
}

let run_idle_probe () =
  let jobs = 4 in
  let batch pool =
    Dds_engine.Pool.map pool ~key:string_of_int
      ~f:(fun x ->
        if x = 0 then Unix.sleepf 0.05;
        x * x)
      (List.init 8 Fun.id)
  in
  let reference = Dds_engine.Pool.with_pool ~jobs:1 batch in
  Dds_engine.Pool.with_pool ~jobs (fun pool ->
      let c0 = Sys.time () in
      let t0 = Unix.gettimeofday () in
      let out = batch pool in
      let wall = Unix.gettimeofday () -. t0 in
      let cpu = Sys.time () -. c0 in
      if out <> reference then failwith "pool idle probe: output differs from jobs=1";
      let per_idle = if wall > 0.0 then cpu /. (float_of_int (jobs - 1) *. wall) else 0.0 in
      Format.printf "@.#### Pool idle probe (1 straggler, %d workers) ####@.@." jobs;
      Format.printf "  wall %.3fs, process cpu %.3fs (%.2f of the %d idle workers' budget)@."
        wall cpu per_idle (jobs - 1);
      (* Generous bound: busy-waiting scores ~1.0 here, the backoff
         well under 0.1 — flag anything past half a burned core per
         idle worker without being brittle on loaded CI runners. *)
      if per_idle > 0.5 then
        failwith
          (Printf.sprintf
             "pool idle probe: %.2f of idle-worker CPU burned (backoff regression?)" per_idle);
      { ip_jobs = jobs; ip_wall_s = wall; ip_cpu_s = cpu; ip_cpu_per_idle = per_idle })

(* ------------------------------------------------------------------ *)
(* Runtime loopback throughput *)

(* The Unix backend, priced: a live 3-node ES deployment on loopback
   TCP (forked node processes, exactly what `dds serve` runs) driven
   by the closed-loop generator for a couple of seconds. Sustained
   ops/s and tail latency land in BENCH_results.json's
   [runtime_loopback] section; like the other wall-clock sections it
   is recorded, not gated — loopback throughput on a shared runner is
   far too noisy to fail a build on. *)
type runtime_row = {
  rt_clients : int;
  rt_ops : int;
  rt_errors : int;
  rt_ops_per_s : float;
  rt_read_p50_us : float;
  rt_read_p99_us : float;
  rt_write_p99_us : float;
}

let run_runtime_loopback () =
  let module Store = Dds_runtime_unix.Store in
  let module S_es = Store.Make (Es_register) in
  let module Loop = Dds_runtime_unix.Loop in
  let module Load = Dds_runtime_unix.Load in
  let n = 3 in
  let socks =
    Array.init n (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        Unix.listen fd 128;
        let port =
          match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        (fd, port))
  in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let children =
    Array.init n (fun i ->
        let ctl_r, ctl_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close ctl_w;
          (try
             let loop = Loop.create () in
             let cfg =
               {
                 (Store.default_config ~self:i ~addrs) with
                 Store.events_enabled = false;
                 listen_fd = Some (fst socks.(i));
               }
             in
             let node = S_es.create ~loop cfg (fun _shard -> Es_register.default_params ~n) in
             Loop.watch_read loop ctl_r (fun () ->
                 S_es.shutdown node;
                 Loop.stop loop);
             Loop.run loop
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.close ctl_r;
          (pid, ctl_w))
  in
  Array.iter (fun (fd, _) -> Unix.close fd) socks;
  let duration_s = if quick then 1.0 else 2.0 in
  let clients = 8 in
  let r = Load.run ~addrs ~clients ~duration_s ~write_ratio:0.1 ~route:Load.Fixed ~seed:17 () in
  Array.iter (fun (_, ctl_w) -> ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1)) children;
  Array.iter
    (fun (pid, ctl_w) ->
      ignore (Unix.waitpid [] pid);
      Unix.close ctl_w)
    children;
  let row =
    {
      rt_clients = clients;
      rt_ops = r.Load.ops;
      rt_errors = r.Load.errors;
      rt_ops_per_s = Load.ops_per_s r;
      rt_read_p50_us = Histogram.percentile r.Load.read_lat_us 50.0;
      rt_read_p99_us = Histogram.percentile r.Load.read_lat_us 99.0;
      rt_write_p99_us = Histogram.percentile r.Load.write_lat_us 99.0;
    }
  in
  Format.printf "@.#### Runtime loopback (3-node es over TCP, %d closed-loop clients) ####@.@."
    clients;
  Format.printf
    "  %d op(s) in %.1fs = %.0f op/s; read p50 %.0f us p99 %.0f us; write p99 %.0f us; %d \
     error(s)@."
    row.rt_ops duration_s row.rt_ops_per_s row.rt_read_p50_us row.rt_read_p99_us
    row.rt_write_p99_us row.rt_errors;
  if row.rt_errors > 0 then failwith "runtime loopback: load saw errors";
  row

(* ------------------------------------------------------------------ *)
(* Bechamel benchmarks *)

module Sim_time = Dds_sim.Time
open Bechamel
open Toolkit

module Sync_d = Deployment.Make (Sync_register)
module Es_d = Deployment.Make (Es_register)
module Sync_gen = Generator.Make (Sync_d)
module Es_gen = Generator.Make (Es_d)

let bench_heap =
  Test.make ~name:"heap: 1k insert+pop"
    (Staged.stage (fun () ->
         let h = Heap.create ~cmp:Int.compare () in
         for i = 0 to 999 do
           Heap.insert h ((i * 7919) mod 1000)
         done;
         while not (Heap.is_empty h) do
           ignore (Heap.pop h)
         done))

let bench_rng =
  Test.make ~name:"rng: 1k bounded draws"
    (Staged.stage
       (let g = Rng.create ~seed:1 in
        fun () ->
          for _ = 1 to 1000 do
            ignore (Rng.int g 97)
          done))

let bench_scheduler =
  Test.make ~name:"scheduler: 10k events"
    (Staged.stage (fun () ->
         let s = Scheduler.create () in
         for i = 1 to 10_000 do
           ignore (Scheduler.schedule_at s (Sim_time.of_int (i mod 100)) (fun () -> ()))
         done;
         Scheduler.run s ()))

let sync_run ~horizon () =
  let cfg =
    Deployment.default_config ~seed:1 ~n:20 ~delay:(Delay.synchronous ~delta:3)
      ~churn_rate:0.02
  in
  let d = Sync_d.create cfg (Sync_register.default_params ~delta:3) in
  Sync_d.start_churn d ~until:(Sim_time.of_int horizon);
  Sync_gen.run d (Generator.default ~until:(Sim_time.of_int horizon));
  Sync_d.run_until d (Sim_time.of_int (horizon + 20));
  ignore (Sync_d.regularity d)

let es_run ~horizon () =
  let cfg =
    Deployment.default_config ~seed:1 ~n:10 ~delay:(Delay.synchronous ~delta:3)
      ~churn_rate:0.01
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:10) in
  Es_d.start_churn d ~until:(Sim_time.of_int horizon);
  Es_gen.run d
    { (Generator.default ~until:(Sim_time.of_int horizon)) with Generator.read_rate = 0.3 };
  Es_d.run_until d (Sim_time.of_int (horizon + 50));
  ignore (Es_d.regularity d)

let bench_sync_run =
  Test.make ~name:"sync: 200-tick churn run + check" (Staged.stage (sync_run ~horizon:200))

let bench_es_run =
  Test.make ~name:"es: 200-tick churn run + check" (Staged.stage (es_run ~horizon:200))

(* Pay-for-what-you-use: the identical ES run with the event sink
   disabled (one dead branch per potential event), buffering, and
   buffering plus the live assumption/safety monitors. *)
let obs_run ~events ~monitors () =
  let cfg =
    {
      (Deployment.default_config ~seed:1 ~n:10 ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:0.01)
      with
      Deployment.events_enabled = events;
    }
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:10) in
  if monitors then begin
    let m =
      Dds_monitor.Monitor.create
        {
          (Dds_monitor.Monitor.default ~n:10 ~delta:3) with
          Dds_monitor.Monitor.churn_bound = Some (1.0 /. 90.0);
          majority = true;
        }
    in
    Dds_sim.Event.on_emit (Es_d.events d) (fun st ->
        ignore (Dds_monitor.Monitor.feed m st))
  end;
  Es_d.start_churn d ~until:(Sim_time.of_int 200);
  Es_gen.run d
    { (Generator.default ~until:(Sim_time.of_int 200)) with Generator.read_rate = 0.3 };
  Es_d.run_until d (Sim_time.of_int 250)

let bench_obs_disabled =
  Test.make ~name:"obs: es run, sink disabled"
    (Staged.stage (obs_run ~events:false ~monitors:false))

let bench_obs_enabled =
  Test.make ~name:"obs: es run, sink enabled"
    (Staged.stage (obs_run ~events:true ~monitors:false))

let bench_obs_monitored =
  Test.make ~name:"obs: es run, sink + monitors"
    (Staged.stage (obs_run ~events:true ~monitors:true))

(* Nemesis interposition overhead: the fault hook is installed but the
   plan answers Pass for every transmission, so the delta against
   "obs: es run, sink disabled" is the pure cost of consulting a plan
   on each wire copy. *)
let nemesis_noop_run () =
  let cfg =
    Deployment.default_config ~seed:1 ~n:10 ~delay:(Delay.synchronous ~delta:3)
      ~churn_rate:0.01
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:10) in
  Network.set_fault_plan (Es_d.network d) (fun _dec ~msg_kind:_ -> Network.Pass);
  Es_d.start_churn d ~until:(Sim_time.of_int 200);
  Es_gen.run d
    { (Generator.default ~until:(Sim_time.of_int 200)) with Generator.read_rate = 0.3 };
  Es_d.run_until d (Sim_time.of_int 250)

let bench_nemesis_noop =
  Test.make ~name:"fault: es run, empty nemesis plan" (Staged.stage nemesis_noop_run)

(* Profiler overhead, both layers. The probe pair prices one
   Dds_sim.Probe.span with no handler installed (one ref load — the
   cost every simulator phase pays when profiling is off) against the
   ideal of no probe at all; the engine pair runs an identical
   100-job batch through a jobs=1 pool with and without a recorder
   attached, so the delta is the whole per-job recording cost (span +
   two Gc.quick_stat calls). *)
let bench_probe_bare =
  Test.make ~name:"profile: 1k bare calls (no probe)"
    (Staged.stage
       (let sink = ref 0 in
        fun () ->
          for i = 1 to 1000 do
            sink := !sink + i
          done))

let bench_probe_off =
  Test.make ~name:"profile: 1k probe spans, handler off"
    (Staged.stage
       (let sink = ref 0 in
        fun () ->
          for i = 1 to 1000 do
            Probe.span "bench" (fun () -> sink := !sink + i)
          done))

let pool_batch ~profiled () =
  let profile =
    if profiled then Some (Dds_profile.Profile.create ~workers:1 ()) else None
  in
  Dds_engine.Pool.with_pool ~jobs:1 ?profile (fun pool ->
      ignore
        (Dds_engine.Pool.map pool ~key:string_of_int
           ~f:(fun x -> x * x)
           (List.init 100 Fun.id)))

let bench_pool_plain =
  Test.make ~name:"profile: 100-job batch, recorder off"
    (Staged.stage (pool_batch ~profiled:false))

let bench_pool_profiled =
  Test.make ~name:"profile: 100-job batch, recorder on"
    (Staged.stage (pool_batch ~profiled:true))

(* Latency attribution: rebuild the happens-before DAG and attribute
   every op of a 200-tick monitored-scale ES trace. The trace is built
   once outside the staged closure, so the row prices analysis alone —
   the cost `dds explain` / `--attribution` adds on top of a run. *)
let causal_events =
  lazy
    (let cfg =
       {
         (Deployment.default_config ~seed:1 ~n:10 ~delay:(Delay.synchronous ~delta:3)
            ~churn_rate:0.01)
         with
         Deployment.events_enabled = true;
       }
     in
     let d = Es_d.create cfg (Es_register.default_params ~n:10) in
     Es_d.start_churn d ~until:(Sim_time.of_int 200);
     Es_gen.run d
       { (Generator.default ~until:(Sim_time.of_int 200)) with Generator.read_rate = 0.3 };
     Es_d.run_until d (Sim_time.of_int 250);
     Event.events (Es_d.events d))

let bench_causal_analyze =
  Test.make ~name:"causal: attribute 200-tick es trace"
    (Staged.stage
       (let evs = Lazy.force causal_events in
        fun () -> ignore (Dds_causal.Causal.analyze ~bound:30 evs)))

(* One Test.make per experiment table, at reduced scale, so the cost of
   regenerating each table is itself tracked over time. *)
let bench_e1 =
  Test.make ~name:"E1 inversion" (Staged.stage (fun () -> ignore (Scenario.inversion ())))

let bench_e2 =
  Test.make ~name:"E2/E3 fig3 pair"
    (Staged.stage (fun () ->
         ignore (Scenario.fig3 ~join_wait:false);
         ignore (Scenario.fig3 ~join_wait:true)))

let bench_e4 =
  Test.make ~name:"E4 lemma2 (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.lemma2 ~n:20 ~delta:3 ~ratios:[ 0.5 ] ~horizon:200 ~seed:1 ())))

let bench_e5 =
  Test.make ~name:"E5 sync safety (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.sync_safety ~n:15 ~delta:3 ~ratios:[ 0.5 ] ~seeds:[ 1 ] ~horizon:150 ())))

let bench_e7 =
  Test.make ~name:"E7 async staleness (small)"
    (Staged.stage (fun () -> ignore (Scenario.async_staleness ~horizon:200)))

let bench_e9 =
  Test.make ~name:"E9 es boundary (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.es_boundary ~n:10 ~rates:[ 0.02 ] ~horizon:150 ~seed:1 ())))

let bench_e10 =
  Test.make ~name:"E10 abd-vs-dynamic (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.abd_vs_dynamic ~n:10 ~delta:3 ~c:0.02 ~horizon:200 ~seed:1 ())))

let bench_e11 =
  Test.make ~name:"E11 msg complexity (small)"
    (Staged.stage (fun () -> ignore (Sweep.msg_complexity ~ns:[ 10 ] ~delta:3 ~seed:1 ())))

let bench_e12 =
  Test.make ~name:"E12 timed quorum (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.timed_quorum ~n:20 ~cs:[ 0.02 ] ~lifetime:10 ~trials:50 ~seed:1 ())))

let bench_e17 =
  Test.make ~name:"E17 broadcast modes (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.broadcast_robustness ~n:10 ~losses:[ 0.1 ] ~horizon:150 ~seed:1 ())))

let bench_e18 =
  Test.make ~name:"E18 consensus (small)"
    (Staged.stage (fun () ->
         ignore (Sweep.consensus_under_churn ~n:8 ~k:3 ~cs:[ 0.0 ] ~horizon:200 ~seed:1 ())))

let benchmark () =
  let tests =
    Test.make_grouped ~name:"dds"
      [
        bench_heap;
        bench_rng;
        bench_scheduler;
        bench_sync_run;
        bench_es_run;
        bench_obs_disabled;
        bench_obs_enabled;
        bench_obs_monitored;
        bench_nemesis_noop;
        bench_probe_bare;
        bench_probe_off;
        bench_pool_plain;
        bench_pool_profiled;
        bench_causal_analyze;
        bench_e1;
        bench_e2;
        bench_e4;
        bench_e5;
        bench_e7;
        bench_e9;
        bench_e10;
        bench_e11;
        bench_e12;
        bench_e17;
        bench_e18;
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let quota = if quick then 0.2 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

let print_bench_results results =
  Format.printf "@.#### Bechamel benchmarks (monotonic clock, ns/run) ####@.@.";
  Hashtbl.iter
    (fun _measure tbl ->
      let rows =
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      List.iter
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Format.printf "%-40s %14.0f ns/run@." name est
          | Some _ | None -> Format.printf "%-40s %14s@." name "-")
        rows)
    results

(* Flattens the bechamel result table into (name, ns/run) pairs. *)
let bench_estimates results =
  let acc = ref [] in
  Hashtbl.iter
    (fun _measure tbl ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> acc := (name, est) :: !acc
          | Some _ | None -> ())
        tbl)
    results;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let write_results_json ~tables ~scaling ~profile_rows ~checker ~idle ~runtime ~estimates =
  let module J = Dds_sim.Json in
  let json =
    J.Obj
      ([
        ("suite", J.String "dds");
        ("quick", J.Bool quick);
        ( "benchmarks",
          J.Obj
            (List.map (fun (name, ns) -> (name, J.Obj [ ("ns_per_run", J.Float ns) ])) estimates)
        );
        ( "engine_scaling",
          J.List
            (List.concat_map
               (fun (case, rows) ->
                 List.map
                   (fun r ->
                     J.Obj
                       [
                         ("case", J.String case);
                         ("jobs", J.Int r.sc_jobs);
                         ("wall_s", J.Float r.sc_wall_s);
                         ("speedup", J.Float r.sc_speedup);
                       ])
                   rows)
               scaling) );
      ]
      (* the typed row copies tables carry themselves (Report.data) *)
      @ List.filter_map (fun (r : Report.t) -> r.Report.data) tables
      @ [
        ( "engine_profile",
          J.List
            (List.map
               (fun (j, wall, (s : Dds_profile.Profile.summary)) ->
                 J.Obj
                   [
                     ("jobs", J.Int j);
                     ("wall_s", J.Float wall);
                     ("busy_fraction", J.Float s.Dds_profile.Profile.s_busy_fraction);
                     ("steal_attempts", J.Int s.Dds_profile.Profile.s_steal_attempts);
                     ("steals", J.Int s.Dds_profile.Profile.s_steals);
                     ( "steal_success_rate",
                       J.Float s.Dds_profile.Profile.s_steal_success_rate );
                     ("minor_words", J.Float s.Dds_profile.Profile.s_minor_words);
                     ( "minor_words_per_job",
                       J.Float s.Dds_profile.Profile.s_minor_words_per_job );
                     ("dominant", J.String s.Dds_profile.Profile.s_dominant);
                   ])
               profile_rows) );
        ( "checker",
          J.List
            (List.map
               (fun r ->
                 J.Obj
                   [
                     ("mode", J.String r.ck_label);
                     ("jobs", J.Int r.ck_jobs);
                     ("naive", J.Bool r.ck_naive);
                     ("schedules", J.Int r.ck_schedules);
                     ("wall_s", J.Float r.ck_wall_s);
                     ("schedules_per_s", J.Float r.ck_per_s);
                     ("cache_peak", J.Int r.ck_cache_peak);
                     ("cache_hit_rate", J.Float r.ck_cache_hit_rate);
                     ("minor_words_per_schedule", J.Float r.ck_minor_per_sched);
                   ])
               checker) );
        ( "pool_idle",
          match idle with
          | None -> J.Null
          | Some r ->
            J.Obj
              [
                ("jobs", J.Int r.ip_jobs);
                ("wall_s", J.Float r.ip_wall_s);
                ("cpu_s", J.Float r.ip_cpu_s);
                ("cpu_per_idle_worker", J.Float r.ip_cpu_per_idle);
              ] );
        ( "runtime_loopback",
          match runtime with
          | None -> J.Null
          | Some r ->
            J.Obj
              [
                ("nodes", J.Int 3);
                ("proto", J.String "es");
                ("clients", J.Int r.rt_clients);
                ("ops", J.Int r.rt_ops);
                ("errors", J.Int r.rt_errors);
                ("ops_per_s", J.Float r.rt_ops_per_s);
                ("read_p50_us", J.Float r.rt_read_p50_us);
                ("read_p99_us", J.Float r.rt_read_p99_us);
                ("write_p99_us", J.Float r.rt_write_p99_us);
              ] );
        ("tables", J.List (List.map Report.to_json tables));
      ])
  in
  let oc = open_out "BENCH_results.json" in
  output_string oc (J.to_string json);
  output_string oc "\n";
  close_out oc;
  Format.printf "@.results written to BENCH_results.json (%d tables, %d benchmarks)@."
    (List.length tables) (List.length estimates)

(* ------------------------------------------------------------------ *)
(* Baseline comparison: `--baseline OLD.json --max-regress PCT`.

   Raw wall-clock sections are too noisy to gate on shared CI runners;
   the comparison covers the bechamel ns/run estimates (a slowdown
   beyond PCT% regresses), the checker throughput rows matched by
   mode+jobs (a schedules/s drop beyond PCT% regresses), and the
   engine_scaling *speedups* matched by case+jobs. A speedup is a
   ratio of two walls from the same run, so machine speed cancels —
   but only the amortized-grain "--horizon 2000" case is big enough
   (~seconds sequential) to be stable, so only it gates; the small E24
   case sits below the parallelism floor by design (ROADMAP item 1:
   its recorded speedups are < 1) and is reported informationally.
   Names present on only one side are reported but never fail the run,
   so old baselines predating a benchmark — or this very section —
   stay usable. *)
let read_baseline path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Ok s

let compare_baseline ~path ~contents ~estimates ~checker ~scaling =
  let module J = Dds_sim.Json in
  match Result.bind contents J.parse with
  | Error e ->
    Format.printf "@.baseline   : %s unreadable (%s) — comparison skipped@." path e;
    true
  | Ok base ->
    Format.printf "@.#### Baseline comparison (vs %s, limit +%.0f%%) ####@.@." path
      max_regress;
    let regressions = ref 0 in
    let compared = ref 0 in
    let judge name ~base_v ~cur_v ~regress_pct =
      incr compared;
      let flag = regress_pct > max_regress in
      if flag then incr regressions;
      Format.printf "  %-42s %12.0f -> %12.0f  %+7.1f%%%s@." name base_v cur_v regress_pct
        (if flag then "  REGRESSION" else "")
    in
    (match J.member "benchmarks" base with
    | Some (J.Obj base_benches) ->
      List.iter
        (fun (name, ns) ->
          match
            Option.bind (List.assoc_opt name base_benches) (fun o ->
                Option.bind (J.member "ns_per_run" o) J.to_float_opt)
          with
          | Some b when b > 0.0 ->
            judge name ~base_v:b ~cur_v:ns ~regress_pct:(100.0 *. ((ns -. b) /. b))
          | Some _ | None -> Format.printf "  %-42s (no baseline entry)@." name)
        estimates
    | Some _ | None ->
      if estimates <> [] then Format.printf "  (baseline has no benchmarks section)@.");
    (match J.member "engine_scaling" base with
    | Some (J.List base_rows) ->
      List.iter
        (fun (case, rows) ->
          (* The gate decision from the recorded --horizon 2000 rows:
             gate the big amortized-grain case on relative speedup
             regression; the small case's sub-floor speedups would make
             any absolute threshold meaningless, so it only reports. *)
          let gated =
            let needle = "--horizon" in
            let n = String.length needle and l = String.length case in
            let rec at i = i + n <= l && (String.sub case i n = needle || at (i + 1)) in
            at 0
          in
          List.iter
            (fun r ->
              if r.sc_jobs > 1 then begin
                let matches row =
                  (match Option.bind (J.member "case" row) J.to_string_opt with
                  | Some c -> String.equal c case
                  | None -> false)
                  &&
                  match Option.bind (J.member "jobs" row) J.to_int_opt with
                  | Some j -> j = r.sc_jobs
                  | None -> false
                in
                let name = Printf.sprintf "scaling [%s] jobs=%d" case r.sc_jobs in
                match
                  Option.bind (List.find_opt matches base_rows) (fun row ->
                      Option.bind (J.member "speedup" row) J.to_float_opt)
                with
                | Some b when b > 0.0 ->
                  let cur = r.sc_speedup in
                  (* Speedup: lower is worse. *)
                  if gated then
                    judge name ~base_v:b ~cur_v:cur ~regress_pct:(100.0 *. ((b -. cur) /. b))
                  else
                    Format.printf "  %-42s %12.2f -> %12.2f  (informational)@." name b cur
                | Some _ | None -> Format.printf "  %-42s (no baseline entry)@." name
              end)
            rows)
        scaling
    | Some _ | None ->
      if scaling <> [] then Format.printf "  (baseline has no engine_scaling section)@.");
    (match J.member "checker" base with
    | Some (J.List base_rows) ->
      List.iter
        (fun r ->
          let matches row =
            (match Option.bind (J.member "mode" row) J.to_string_opt with
            | Some m -> String.equal m r.ck_label
            | None -> false)
            &&
            match Option.bind (J.member "jobs" row) J.to_int_opt with
            | Some j -> j = r.ck_jobs
            | None -> false
          in
          match
            Option.bind (List.find_opt matches base_rows) (fun row ->
                Option.bind (J.member "schedules_per_s" row) J.to_float_opt)
          with
          | Some b when b > 0.0 ->
            let name = Printf.sprintf "checker %s jobs=%d" r.ck_label r.ck_jobs in
            (* Throughput: lower is worse. *)
            judge name ~base_v:b ~cur_v:r.ck_per_s
              ~regress_pct:(100.0 *. ((b -. r.ck_per_s) /. b))
          | Some _ | None ->
            Format.printf "  checker %s jobs=%d (no baseline entry)@." r.ck_label r.ck_jobs)
        checker
    | Some _ | None ->
      if checker <> [] then Format.printf "  (baseline has no checker section)@.");
    if !compared = 0 then begin
      Format.printf "  nothing comparable — baseline accepted@.";
      true
    end
    else begin
      Format.printf "@.verdict    : %d compared, %d regression(s) beyond +%.0f%%@." !compared
        !regressions max_regress;
      !regressions = 0
    end

let () =
  (* Fork the loopback node processes before anything spawns a domain:
     OCaml 5 forbids Unix.fork once other domains exist, and both the
     engine pools and bechamel's measurement loop create them. *)
  let runtime = if not bench_only then Some (run_runtime_loopback ()) else None in
  let tables, scaling, profile_rows =
    if not bench_only then
      let jobs = if jobs <= 0 then Dds_engine.Pool.default_jobs () else jobs in
      Dds_engine.Pool.with_pool ~jobs (fun pool -> run_tables ~pool ())
    else ([], [], [])
  in
  let checker = if not bench_only then run_checker_rows () else [] in
  let idle = Some (run_idle_probe ()) in
  let estimates =
    if not tables_only then begin
      let results = benchmark () in
      print_bench_results results;
      bench_estimates results
    end
    else []
  in
  (* Slurp the baseline before writing results: `--baseline
     BENCH_results.json` (the committed file this run overwrites) must
     compare against the old numbers, not the ones just written. *)
  let baseline_contents = Option.map (fun path -> (path, read_baseline path)) baseline in
  write_results_json ~tables ~scaling ~profile_rows ~checker ~idle ~runtime ~estimates;
  let ok =
    match baseline_contents with
    | None -> true
    | Some (path, contents) -> compare_baseline ~path ~contents ~estimates ~checker ~scaling
  in
  Format.printf "@.done.@.";
  if not ok then exit 1
