open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec
open Dds_core

module Sync_d = Deployment.Make (Sync_register)
module Es_d = Deployment.Make (Es_register)

let time = Time.of_int

(* Engine plumbing: every multi-cell runner submits its independent
   (seed, params) cells through the pool when one is given. Each cell
   builds its own deployment (rng, metrics, history, event sink) from
   its seed, so cells share nothing; results come back in submission
   order, which keeps every table byte-identical for any worker count.
   Without a pool the same cells run inline.

   By default every cell is its own job. When a few cells are
   super-linearly heavier than the rest (E24's dup plan duplicates
   every copy of every broadcast for the whole horizon, so its work
   scales with traffic, not ticks), the batch's wall clock is set by
   whichever worker draws a heavy cell last, while the tiny cells pay
   per-job overhead. Given [heavy], the predicted-heavy cells go first,
   each as its own job, and the light cells are folded into chunks of
   three so their fixed costs amortize. Only the schedule changes: the
   results are spliced back into submission order. *)
let pmap ?pool ?(heavy = fun _ -> true) ~key f xs =
  match pool with
  | None -> List.map f xs
  | Some p ->
    let indexed = List.mapi (fun i x -> (i, x)) xs in
    let heavies, lights = List.partition (fun (_, x) -> heavy x) indexed in
    let rec chunks = function
      | a :: b :: c :: rest -> [ a; b; c ] :: chunks rest
      | [] -> []
      | short -> [ short ]
    in
    let job cells =
      {
        Dds_engine.Pool.key = String.concat "+" (List.map (fun (_, x) -> key x) cells);
        run = (fun () -> List.map (fun (i, x) -> (i, f x)) cells);
      }
    in
    Dds_engine.Pool.run p
      (List.map (fun c -> job [ c ]) heavies @ List.map job (chunks lights))
    |> List.concat
    |> List.sort (fun (i, _) (j, _) -> Stdlib.compare i j)
    |> List.map snd

(* Runs the (x, seed) grid as one job per cell and hands each [x] back
   with its seeds' outcomes, in seed order. *)
let per_seed ?pool ~key ~seeds f xs =
  let outcomes =
    pmap ?pool ~key f (List.concat_map (fun x -> List.map (fun s -> (x, s)) seeds) xs)
  in
  let k = List.length seeds in
  List.mapi (fun i x -> (x, List.filteri (fun j _ -> j / k = i) outcomes)) xs

(* A Harness instance running a cell's own protocol params. *)
let sync_with params : (module Harness.INSTANCE) =
  (module struct
    module D = Sync_d

    let params = params
  end)

let es_with params : (module Harness.INSTANCE) =
  (module struct
    module D = Es_d

    let params = params
  end)

(* Figure 1 as printed: a joiner whose inquiry comes back empty adopts
   bottom. *)
let paper_literal ~delta =
  { (Sync_register.default_params ~delta) with
    Sync_register.on_empty_inquiry = Sync_register.Adopt_bottom }

(* Synchronous links bounded by [delta] and churn at rate [c];
   [adversarial] departures take active processes first. *)
let config ?(adversarial = false) ~seed ~n ~delta c =
  let cfg = Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta) ~churn_rate:c in
  if adversarial then { cfg with Deployment.churn_policy = Churn.Active_first } else cfg

(* One fault-free, unmonitored Harness run. *)
let judged inst cfg ~read_rate ~write_every ~horizon ~drain =
  Harness.run inst cfg
    { Harness.horizon; drain; workload = Harness.Rate { read_rate; write_every }; monitor = None }
    []

(* The threshold workload of E5, E13, E14 and E23: a read per tick, a
   write every 5 delta, 4 delta of drain. *)
let threshold_run ~delta ~horizon inst cfg =
  judged inst cfg ~read_rate:1.0 ~write_every:(5 * delta) ~horizon ~drain:(4 * delta)

(* E15, E17 and E20 drop each message with probability [loss], drawn
   from a stream seeded [fault_seed]. [Harness.run] arms a fault plan
   from [Rng.split (D.workload_rng d)], a different stream, so these
   runs drive the deployment themselves, in Harness's order, to keep
   their drop draws. *)
let lossy_run (module I : Harness.INSTANCE) cfg ~loss ~fault_seed ~read_rate ~write_every
    ~horizon ~drain =
  let module G = Generator.Make (I.D) in
  let d = I.D.create cfg I.params in
  if loss > 0.0 then begin
    let rng = Rng.create ~seed:fault_seed in
    let open Dds_fault in
    Network.set_fault_plan (I.D.network d) (Fault.compile ~rng [ Fault.rule ~p:loss Fault.Drop ])
  end;
  let until = time horizon in
  I.D.start_churn d ~until;
  G.run d { Generator.read_rate; write_every; start = time 1; until };
  I.D.run_until d (time (horizon + drain));
  (I.D.history d, I.D.regularity d, I.D.metrics d)

let violations (r : Regularity.report) = List.length r.Regularity.violations
let regularity (r : Harness.result) = r.Harness.verdict.Dds_monitor.Verdict.regularity

let latency_of (o : History.op) =
  Option.map (fun r -> Time.diff r o.History.invoked) o.History.responded

let latency_stats ops =
  let s = Stats.create () in
  List.iter (fun o -> match latency_of o with Some l -> Stats.add_int s l | None -> ()) ops;
  s

let is_read (o : History.op) =
  match o.History.kind with History.Read _ -> true | _ -> false

let is_write (o : History.op) =
  match o.History.kind with History.Write _ -> true | _ -> false

let is_join (o : History.op) =
  match o.History.kind with History.Join _ -> true | _ -> false

let stuck_joins history = List.length (List.filter is_join (History.pending history))

(* The paper's two dynamic registers, the rows of the sync-vs-es
   tables (E15, E24); cross-protocol tables over every registered
   protocol (E10, E11) iterate Protocol.all instead. *)
let dynamic_protocols = List.map Protocol.find_exn [ "sync"; "es" ]

(* ------------------------------------------------------------------ *)
(* E4 *)

type lemma2_row = {
  l2_c : float;
  l2_ratio : float;
  l2_bound : float;
  l2_measured_min : int;
  l2_instant_min : int;
}

let lemma2 ?pool ~n ~delta ~ratios ~horizon ~seed () =
  pmap ?pool
    ~key:(fun ratio -> Printf.sprintf "lemma2:ratio=%g" ratio)
    (fun ratio ->
      let c = ratio /. (3.0 *. float_of_int delta) in
      (* Membership only: the workload issues nothing. *)
      let r =
        judged
          (sync_with (Sync_register.default_params ~delta))
          (config ~adversarial:true ~seed ~n ~delta c)
          ~read_rate:0.0 ~write_every:0 ~horizon ~drain:(4 * delta)
      in
      let analysis = r.Harness.analysis in
      let warmup = 4 * delta in
      let _, window_min =
        Analysis.min_active_window analysis ~window:(3 * delta) ~from_:(time warmup)
          ~until:(time (horizon - (3 * delta) - 1))
      in
      let _, instant_min =
        Analysis.min_active analysis ~from_:(time warmup) ~until:(time (horizon - 1))
      in
      {
        l2_c = c;
        l2_ratio = ratio;
        l2_bound = float_of_int n *. (1.0 -. (3.0 *. float_of_int delta *. c));
        l2_measured_min = window_min;
        l2_instant_min = instant_min;
      })
    ratios

(* ------------------------------------------------------------------ *)
(* E5 *)

type safety_row = {
  sf_ratio : float;
  sf_c : float;
  sf_runs : int;
  sf_violations : int;
  sf_runs_with_violation : int;
  sf_join_retries : int;
  sf_incomplete_joins : int;
}

let sync_safety ?(on_empty = Sync_register.Retry) ?pool ~n ~delta ~ratios ~seeds ~horizon () =
  let inst =
    sync_with
      { (Sync_register.default_params ~delta) with Sync_register.on_empty_inquiry = on_empty }
  in
  let c_of ratio = ratio /. (3.0 *. float_of_int delta) in
  let run_one (ratio, seed) =
    let r =
      threshold_run ~delta ~horizon inst (config ~adversarial:true ~seed ~n ~delta (c_of ratio))
    in
    ( violations (regularity r),
      Metrics.get r.Harness.metrics "sync.join.retry",
      stuck_joins r.Harness.history )
  in
  List.map
    (fun (ratio, outcomes) ->
      let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
      {
        sf_ratio = ratio;
        sf_c = c_of ratio;
        sf_runs = List.length seeds;
        sf_violations = sum (fun (v, _, _) -> v);
        sf_runs_with_violation = sum (fun (v, _, _) -> if v > 0 then 1 else 0);
        sf_join_retries = sum (fun (_, r, _) -> r);
        sf_incomplete_joins = sum (fun (_, _, p) -> p);
      })
    (per_seed ?pool
       ~key:(fun (ratio, seed) -> Printf.sprintf "safety:ratio=%g:seed=%d" ratio seed)
       ~seeds run_one ratios)

(* ------------------------------------------------------------------ *)
(* E6 / E8 *)

type latency_row = {
  lat_protocol : string;
  lat_phase : string;
  lat_op : string;
  lat_stats : Stats.t;
}

let rows_for ~protocol ~phase ops =
  [
    { lat_protocol = protocol; lat_phase = phase; lat_op = "join";
      lat_stats = latency_stats (List.filter is_join ops) };
    { lat_protocol = protocol; lat_phase = phase; lat_op = "read";
      lat_stats = latency_stats (List.filter is_read ops) };
    { lat_protocol = protocol; lat_phase = phase; lat_op = "write";
      lat_stats = latency_stats (List.filter is_write ops) };
  ]

let completed_ops history =
  List.filter
    (fun (o : History.op) -> (not o.History.aborted) && o.History.responded <> None)
    (History.ops history)

let sync_latency ~n ~delta ~c ~horizon ~seed =
  let r =
    judged
      (sync_with (Sync_register.default_params ~delta))
      (config ~seed ~n ~delta c)
      ~read_rate:1.0 ~write_every:(4 * delta) ~horizon ~drain:(4 * delta)
  in
  rows_for ~protocol:"sync" ~phase:"synchronous" (completed_ops r.Harness.history)

let es_latency ~n ~gst ~delta ~wild ~horizon ~seed =
  let delay = Delay.eventually_synchronous ~gst:(time gst) ~delta ~wild in
  let r =
    judged
      (es_with (Es_register.default_params ~n))
      (Deployment.default_config ~seed ~n ~delay ~churn_rate:0.005)
      ~read_rate:0.3 ~write_every:(10 * delta) ~horizon ~drain:(20 * wild)
  in
  let ops = completed_ops r.Harness.history in
  let pre, post =
    List.partition (fun (o : History.op) -> Time.to_int o.History.invoked < gst) ops
  in
  rows_for ~protocol:"es" ~phase:"pre-GST" pre @ rows_for ~protocol:"es" ~phase:"post-GST" post

(* ------------------------------------------------------------------ *)
(* E7 *)

type async_row = {
  as_horizon : int;
  as_completed_writes : int;
  as_max_staleness : int;
  as_mean_staleness : float;
}

let async_series ?pool ~horizons () =
  pmap ?pool
    ~key:(fun horizon -> Printf.sprintf "async:horizon=%d" horizon)
    (fun horizon ->
      let o = Scenario.async_staleness ~horizon in
      {
        as_horizon = horizon;
        as_completed_writes = o.Scenario.completed_writes;
        as_max_staleness = o.Scenario.staleness.Staleness.max_staleness;
        as_mean_staleness = Stats.mean o.Scenario.staleness.Staleness.stats;
      })
    horizons

(* ------------------------------------------------------------------ *)
(* E9 *)

type boundary_row = {
  bd_c : float;
  bd_completed : int;
  bd_pending : int;
  bd_aborted : int;
  bd_min_active : int;
  bd_majority : int;
  bd_violations : int;
}

let es_boundary ?pool ~n ~rates ~horizon ~seed () =
  pmap ?pool
    ~key:(fun c -> Printf.sprintf "boundary:c=%g" c)
    (fun c ->
      let r =
        judged
          (es_with (Es_register.default_params ~n))
          (config ~adversarial:true ~seed ~n ~delta:3 c)
          ~read_rate:0.5 ~write_every:25 ~horizon ~drain:50
      in
      let h = r.Harness.history in
      let _, min_active =
        Analysis.min_active r.Harness.analysis ~from_:(time 10) ~until:(time horizon)
      in
      {
        bd_c = c;
        bd_completed = List.length (completed_ops h);
        bd_pending = List.length (History.pending h);
        bd_aborted = List.length (History.aborted h);
        bd_min_active = min_active;
        bd_majority = (n / 2) + 1;
        bd_violations = violations (regularity r);
      })
    rates

(* ------------------------------------------------------------------ *)
(* E10 *)

type versus_row = {
  vs_protocol : string;
  vs_completed : int;
  vs_pending : int;
  vs_violations : int;
  vs_last_completed_at : int;
  vs_founders_alive_at_end : int;
}

let last_completed_tick history =
  List.fold_left
    (fun acc (o : History.op) ->
      match o.History.responded with
      | Some r when not o.History.aborted -> Stdlib.max acc (Time.to_int r)
      | _ -> acc)
    0 (History.ops history)

let founders_alive membership ~n =
  List.length
    (List.filter
       (fun pid -> Pid.to_int pid < n)
       (Membership.present membership))

let abd_vs_dynamic ?pool ~n ~delta ~c ~horizon ~seed () =
  let cfg = config ~seed ~n ~delta c in
  let spec =
    { (Harness.default_spec ~horizon ~drain:50 ()) with
      Harness.workload = Harness.Rate { read_rate = 0.5; write_every = 10 * delta } }
  in
  let row (p : Protocol.t) =
    let r = Harness.run (Harness.instance_exn p ~n ~delta) cfg spec [] in
    let h = r.Harness.history in
    {
      vs_protocol = p.Protocol.name;
      vs_completed = List.length (completed_ops h);
      vs_pending = List.length (History.pending h);
      vs_violations = violations (regularity r);
      vs_last_completed_at = last_completed_tick h;
      vs_founders_alive_at_end = founders_alive r.Harness.membership ~n;
    }
  in
  pmap ?pool ~key:(fun (p : Protocol.t) -> "versus:" ^ p.Protocol.name) row Protocol.all

(* ------------------------------------------------------------------ *)
(* E11 *)

type msg_row = {
  mc_protocol : string;
  mc_n : int;
  mc_per_read : float;
  mc_per_write : float;
  mc_per_join : float;
}

(* Transmissions = every scheduled point-to-point delivery attempt
   (a broadcast to n processes counts n). *)
let transmissions metrics =
  Metrics.get metrics "net.delivered" + Metrics.get metrics "net.dropped"
  + Metrics.get metrics "net.faulted"

(* Runs [ops] identical operations with no churn and divides the
   transmission delta by the count. [quiesce] must run the system to
   quiescence between phases. *)
let measure_phase ~metrics ~quiesce ~ops ~issue =
  quiesce ();
  let before = transmissions metrics in
  for i = 1 to ops do
    issue i;
    quiesce ()
  done;
  float_of_int (transmissions metrics - before) /. float_of_int ops

let msg_complexity ?pool ~ns ~delta ~seed () =
  let ops = 10 in
  let row_for (n, (p : Protocol.t)) =
    let (module I) = Harness.instance_exn p ~n ~delta in
    let d = I.D.create (config ~seed ~n ~delta 0.0) I.params in
    let metrics = I.D.metrics d in
    let quiesce () = I.D.run_to_quiescence d () in
    let writer = Option.get (I.D.writer d) in
    let per_read =
      measure_phase ~metrics ~quiesce ~ops ~issue:(fun _ -> I.D.read d (Pid.of_int 1))
    in
    let per_write = measure_phase ~metrics ~quiesce ~ops ~issue:(fun _ -> I.D.write d writer) in
    let per_join =
      measure_phase ~metrics ~quiesce ~ops ~issue:(fun _ -> ignore (I.D.spawn d))
    in
    { mc_protocol = p.Protocol.name; mc_n = n; mc_per_read = per_read;
      mc_per_write = per_write; mc_per_join = per_join }
  in
  let cells = List.concat_map (fun n -> List.map (fun p -> (n, p)) Protocol.all) ns in
  pmap ?pool
    ~key:(fun (n, (p : Protocol.t)) -> Printf.sprintf "msgs:%s:n=%d" p.Protocol.name n)
    row_for cells

(* ------------------------------------------------------------------ *)
(* E12 *)

type tq_row = {
  tq_c : float;
  tq_size : int;
  tq_lifetime : int;
  tq_hold_rate : float;
  tq_expected_survivors : float;
  tq_measured_survivors : float;
  tq_intersect_rate : float;
}

let timed_quorum ?pool ~n ~cs ~lifetime ~trials ~seed () =
  pmap ?pool
    ~key:(fun c -> Printf.sprintf "quorum:c=%g" c)
    (fun c ->
      let size = (n / 2) + 1 in
      let held = ref 0 and intersected = ref 0 and survivors_total = ref 0 in
      for trial = 1 to trials do
        let rng = Rng.create ~seed:(seed + (trial * 7919)) in
        let sched = Scheduler.create () in
        let membership = Membership.create () in
        let gen = Pid.generator () in
        for _ = 1 to n do
          let p = Pid.fresh gen in
          Membership.add membership p ~now:Time.zero;
          Membership.set_active membership p ~now:Time.zero
        done;
        let spawn () =
          let p = Pid.fresh gen in
          Membership.add membership p ~now:(Scheduler.now sched);
          Membership.set_active membership p ~now:(Scheduler.now sched)
        in
        let retire p = Membership.remove membership p ~now:(Scheduler.now sched) in
        let churn =
          Churn.create ~sched ~rng:(Rng.split rng) ~membership ~n ~rate:c ~spawn ~retire ()
        in
        Churn.start churn ~until:(time (lifetime + 2));
        let qa =
          Dds_quorum.Timed_quorum.acquire ~membership ~rng ~now:Time.zero ~size ~lifetime
        in
        let qb =
          Dds_quorum.Timed_quorum.acquire ~membership ~rng ~now:Time.zero ~size ~lifetime
        in
        Scheduler.run_until sched (time lifetime);
        match (qa, qb) with
        | Some qa, Some qb ->
          let surv = Dds_quorum.Timed_quorum.survivors qa membership in
          survivors_total := !survivors_total + Pid.Set.cardinal surv;
          if Dds_quorum.Timed_quorum.holds qa membership ~threshold:((size / 2) + 1) then
            incr held;
          if
            not
              (Pid.Set.is_empty
                 (Dds_quorum.Timed_quorum.intersecting_survivors qa qb membership))
          then incr intersected
        | _ -> ()
      done;
      let ft = float_of_int trials in
      {
        tq_c = c;
        tq_size = size;
        tq_lifetime = lifetime;
        tq_hold_rate = float_of_int !held /. ft;
        tq_expected_survivors =
          Dds_quorum.Timed_quorum.expected_survivors ~size ~c ~elapsed:lifetime;
        tq_measured_survivors = float_of_int !survivors_total /. ft;
        tq_intersect_rate = float_of_int !intersected /. ft;
      })
    cs

(* ------------------------------------------------------------------ *)
(* E13 *)

type threshold_row = {
  th_delta : int;
  th_paper_bound : float;
  th_empirical : float;
  th_step : float;
  th_ratio : float;
}

(* One probe run at rate [c]; returns true when the run was clean:
   no safety violation and no join stuck at the horizon. *)
let sync_probe ~n ~delta ~seed ~horizon c =
  let r =
    threshold_run ~delta ~horizon (sync_with (paper_literal ~delta))
      (config ~adversarial:true ~seed ~n ~delta c)
  in
  (regularity r).Regularity.violations = [] && stuck_joins r.Harness.history = 0

(* The upward scan inside each cell is adaptive (each probe depends on
   the previous one passing), so the parallel unit is the delta, not
   the probe. *)
let churn_threshold ?pool ~n ~deltas ~seeds ~horizon () =
  pmap ?pool
    ~key:(fun delta -> Printf.sprintf "threshold:delta=%d" delta)
    (fun delta ->
      let bound = 1.0 /. (3.0 *. float_of_int delta) in
      let step = bound /. 10.0 in
      (* Scan upward from the paper bound's first decile until a probe
         fails for some seed; cap the scan at 4x the bound. *)
      let clean c = List.for_all (fun seed -> sync_probe ~n ~delta ~seed ~horizon c) seeds in
      let rec scan c best =
        if c > 4.0 *. bound || c >= 0.99 then best
        else if clean c then scan (c +. step) c
        else best
      in
      let empirical = scan step 0.0 in
      {
        th_delta = delta;
        th_paper_bound = bound;
        th_empirical = empirical;
        th_step = step;
        th_ratio = empirical /. bound;
      })
    deltas

(* ------------------------------------------------------------------ *)
(* E14 *)

type burst_row = {
  br_label : string;
  br_avg_c : float;
  br_peak_c : float;
  br_violations : int;
  br_stuck_joins : int;
  br_runs : int;
}

let bursty_churn ?pool ~n ~delta ~seeds ~horizon () =
  let threshold = 1.0 /. (3.0 *. float_of_int delta) in
  let avg = 0.6 *. threshold in
  (* Aiming at one average rate with increasing peakedness: constant;
     peak at the threshold; peak well above it. Period 40 ticks, 10-tick
     bursts. The base rate fills the average up to [avg]; a peak above
     4x [avg] overshoots it even with base 0, so that profile averages
     more (the 3.2x row: 0.8x the bound). *)
  let period = 40 and burst = 10 in
  let bursty peak =
    let base =
      ((avg *. float_of_int period) -. (peak *. float_of_int burst))
      /. float_of_int (period - burst)
    in
    Churn.Bursty { base = Stdlib.max 0.0 base; peak; period; burst }
  in
  let profiles =
    [
      ("constant", Churn.Constant avg, avg);
      ("peak = bound", bursty threshold, threshold);
      ("peak = 2x bound", bursty (2.0 *. threshold), 2.0 *. threshold);
      ("peak = 3.2x bound", bursty (3.2 *. threshold), 3.2 *. threshold);
    ]
  in
  let run_one ((_, profile, _), seed) =
    let cfg =
      { (config ~adversarial:true ~seed ~n ~delta avg) with
        Deployment.churn_profile = Some profile }
    in
    let r = threshold_run ~delta ~horizon (sync_with (paper_literal ~delta)) cfg in
    (violations (regularity r), stuck_joins r.Harness.history)
  in
  List.map
    (fun ((label, profile, peak), outcomes) ->
      {
        br_label = label;
        br_avg_c = Churn.mean_rate profile;
        br_peak_c = peak;
        br_violations = List.fold_left (fun acc (v, _) -> acc + v) 0 outcomes;
        br_stuck_joins = List.fold_left (fun acc (_, s) -> acc + s) 0 outcomes;
        br_runs = List.length seeds;
      })
    (per_seed ?pool
       ~key:(fun ((label, _, _), seed) -> Printf.sprintf "burst:%s:seed=%d" label seed)
       ~seeds run_one profiles)

(* ------------------------------------------------------------------ *)
(* E15 *)

type loss_row = {
  ls_protocol : string;
  ls_loss : float;
  ls_completed : int;
  ls_pending : int;
  ls_violations : int;
}

let message_loss ?pool ~n ~delta ~losses ~horizon ~seed () =
  (* Each protocol draws its losses from its own stream: seed + 1 for
     sync, seed + 2 for es. *)
  let protocols = List.mapi (fun i p -> (p, seed + 1 + i)) dynamic_protocols in
  let row_for (loss, ((p : Protocol.t), fault_seed)) =
    let h, regularity, _ =
      lossy_run (Harness.instance_exn p ~n ~delta) (config ~seed ~n ~delta 0.01) ~loss
        ~fault_seed ~read_rate:0.5 ~write_every:(5 * delta) ~horizon ~drain:(4 * delta)
    in
    {
      ls_protocol = p.Protocol.name;
      ls_loss = loss;
      ls_completed = List.length (completed_ops h);
      ls_pending = List.length (History.pending h);
      ls_violations = violations regularity;
    }
  in
  let cells = List.concat_map (fun loss -> List.map (fun p -> (loss, p)) protocols) losses in
  pmap ?pool
    ~key:(fun (loss, ((p : Protocol.t), _)) ->
      Printf.sprintf "loss:%s:p=%g" p.Protocol.name loss)
    row_for cells

(* ------------------------------------------------------------------ *)
(* E16 *)

type join_opt_row = {
  jo_variant : string;
  jo_p2p : int;
  jo_join_mean : float;
  jo_join_max : float;
  jo_joins : int;
  jo_violations : int;
}

let join_wait_optimization ?pool ~n ~delta ~p2ps ~horizon ~seed () =
  let run (variant, p2p, params) =
    let cfg =
      Deployment.default_config ~seed ~n
        ~delay:(Delay.synchronous_split ~broadcast:delta ~p2p)
        ~churn_rate:0.02
    in
    let r =
      judged (sync_with params) cfg ~read_rate:0.5 ~write_every:(5 * delta) ~horizon
        ~drain:(4 * delta)
    in
    let stats = latency_stats (List.filter is_join (completed_ops r.Harness.history)) in
    {
      jo_variant = variant;
      jo_p2p = p2p;
      jo_join_mean = Stats.mean stats;
      jo_join_max = Stats.max_value stats;
      jo_joins = Stats.count stats;
      jo_violations = violations (regularity r);
    }
  in
  let variants =
    ("wait 2*delta (paper)", delta, Sync_register.default_params ~delta)
    :: List.map
         (fun p2p ->
           ( Printf.sprintf "wait delta+%d (footnote 4)" p2p,
             p2p,
             { (Sync_register.default_params ~delta) with Sync_register.p2p_delta = Some p2p }
           ))
         p2ps
  in
  pmap ?pool ~key:(fun (variant, _, _) -> "join:" ^ variant) run variants

(* ------------------------------------------------------------------ *)
(* E17 *)

type broadcast_row = {
  bc_mode : string;
  bc_loss : float;
  bc_completed : int;
  bc_violations : int;
  bc_transmissions : int;
}

let broadcast_robustness ?pool ~n ~losses ~horizon ~seed () =
  (* Per-hop bound 2, flooding depth 2: the protocol-level delta is
     depth * hop = 4 in both modes so runs are comparable. *)
  let hop = 2 in
  let depth = 2 in
  let delta = depth * hop in
  let run (loss, mode, mode_name) =
    let cfg =
      {
        (Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta:hop)
           ~churn_rate:0.01)
        with
        Deployment.broadcast_mode = mode;
      }
    in
    let h, regularity, metrics =
      lossy_run
        (sync_with (Sync_register.default_params ~delta))
        cfg ~loss ~fault_seed:(seed + 13) ~read_rate:0.5 ~write_every:(5 * delta) ~horizon
        ~drain:(4 * delta)
    in
    {
      bc_mode = mode_name;
      bc_loss = loss;
      bc_completed = List.length (completed_ops h);
      bc_violations = violations regularity;
      bc_transmissions = transmissions metrics;
    }
  in
  let cells =
    List.concat_map
      (fun loss ->
        [
          (loss, Network.Primitive, "primitive");
          (loss, Network.Flooding { relay_depth = depth }, "flooding");
        ])
      losses
  in
  pmap ?pool ~key:(fun (loss, _, name) -> Printf.sprintf "bcast:%s:loss=%g" name loss) run cells

(* ------------------------------------------------------------------ *)
(* E18 *)

type consensus_row = {
  cn_c : float;
  cn_protected : bool;
  cn_present : int;
  cn_decided : int;
  cn_attempts : int;
  cn_first_decision : int option;
  cn_agreement : bool;
  cn_validity : bool;
}

let consensus_under_churn ?pool ~n ~k ~cs ~horizon ~seed () =
  let open Dds_alpha in
  let run ~c ~protected_participants =
    (* Participants are the first k founders; protection (when on)
       shields them from churn so a leader eventually persists. *)
    let participants = ref [] in
    let protect pid = protected_participants && List.exists (Pid.equal pid) !participants in
    let arr =
      Register_array.create ~seed ~n ~k ~delay:(Delay.synchronous ~delta:3) ~churn_rate:c
        ~protect ()
    in
    participants := List.filteri (fun i _ -> i < k) (Register_array.founding arr);
    let cons = Consensus.create arr ~retry_every:20 () in
    List.iteri (fun i pid -> Consensus.propose cons pid (100 + i)) !participants;
    if c > 0.0 then Register_array.start_churn arr ~until:(time horizon);
    Consensus.start cons ~until:(time horizon);
    Scheduler.run_until (Register_array.scheduler arr) (time (horizon + 100));
    {
      cn_c = c;
      cn_protected = protected_participants;
      cn_present = Membership.n_present (Register_array.membership arr);
      cn_decided = Consensus.decided_count cons;
      cn_attempts = Consensus.attempts_used cons;
      cn_first_decision =
        Option.map Time.to_int (Consensus.first_decision_at cons);
      cn_agreement = Consensus.agreement_ok cons;
      cn_validity = Consensus.validity_ok cons;
    }
  in
  let cells =
    List.map (fun c -> (c, true)) cs
    @ [ (List.fold_left Float.max 0.0 cs, false) ]
  in
  pmap ?pool
    ~key:(fun (c, prot) -> Printf.sprintf "consensus:c=%g:protected=%b" c prot)
    (fun (c, protected_participants) -> run ~c ~protected_participants)
    cells

(* ------------------------------------------------------------------ *)
(* E19 *)

type geo_row = {
  geo_speed : float;
  geo_churn : float;  (** emergent churn rate, measured *)
  geo_threshold_ratio : float;  (** emergent c / (1/(3 delta)) *)
  geo_mean_population : float;
  geo_joins : int;
  geo_reads : int;
  geo_violations : int;
}

let geo_speed ?pool ~speeds ~horizon ~seed () =
  pmap ?pool
    ~key:(fun speed -> Printf.sprintf "geo:speed=%g" speed)
    (fun speed ->
      let open Dds_geo in
      let cfg = Zone_world.default_config ~seed ~speed in
      let w = Zone_world.create cfg in
      Zone_world.start w ~until:(time horizon);
      Zone_world.start_activity w ~read_rate:1.0 ~write_every:15 ~until:(time horizon);
      Zone_world.run_until w (time (horizon + 50));
      let r = Zone_world.regularity w in
      let churn = Zone_world.emergent_churn w in
      {
        geo_speed = speed;
        geo_churn = churn;
        geo_threshold_ratio = churn *. 3.0 *. float_of_int cfg.Zone_world.delta;
        geo_mean_population = Stats.mean (Zone_world.population_stats w);
        geo_joins = r.Regularity.checked_joins;
        geo_reads = r.Regularity.checked_reads;
        geo_violations = List.length r.Regularity.violations;
      })
    speeds

(* ------------------------------------------------------------------ *)
(* E20 *)

type quorum_row = {
  qa_quorum : int;
  qa_majority : int;
  qa_completed : int;
  qa_pending : int;
  qa_violations : int;
  qa_inversions : int;
}

let quorum_ablation ?(loss = 0.0) ?pool ~n ~quorums ~c ~horizon ~seed () =
  pmap ?pool
    ~key:(fun quorum -> Printf.sprintf "ablate:q=%d" quorum)
    (fun quorum ->
      let h, regularity, _ =
        lossy_run
          (es_with
             { (Es_register.default_params ~n) with Es_register.quorum_override = Some quorum })
          (config ~seed ~n ~delta:3 c)
          ~loss ~fault_seed:(seed + 3) ~read_rate:1.0 ~write_every:20 ~horizon ~drain:60
      in
      {
        qa_quorum = quorum;
        qa_majority = (n / 2) + 1;
        qa_completed = List.length (completed_ops h);
        qa_pending = List.length (History.pending h);
        qa_violations = violations regularity;
        qa_inversions = List.length (Atomicity.inversions h);
      })
    quorums

(* ------------------------------------------------------------------ *)
(* E21 *)

type repair_row = {
  rp_variant : string;
  rp_scenario_inversions : int;  (** the constructed execution *)
  rp_run_inversions : int;  (** a randomized churn run *)
  rp_read_mean : float;  (** read latency in that run *)
  rp_violations : int;
}

let read_repair_ablation ?pool ~n ~horizon ~seed () =
  let run read_repair =
    let scenario = Scenario.es_inversion ~read_repair () in
    let r =
      judged
        (es_with { (Es_register.default_params ~n) with Es_register.read_repair })
        (config ~seed ~n ~delta:3 0.01)
        ~read_rate:0.5 ~write_every:25 ~horizon ~drain:60
    in
    let h = r.Harness.history in
    {
      rp_variant = (if read_repair then "read-repair (atomic)" else "plain (regular)");
      rp_scenario_inversions = List.length scenario.Scenario.inversions;
      rp_run_inversions = List.length (Atomicity.inversions h);
      rp_read_mean = Stats.mean (latency_stats (List.filter is_read (completed_ops h)));
      rp_violations = violations (regularity r);
    }
  in
  pmap ?pool
    ~key:(fun rr -> Printf.sprintf "repair:on=%b" rr)
    run [ false; true ]

(* ------------------------------------------------------------------ *)
(* E22 *)

type calibration_row = {
  cb_believed : int;  (** the delta the protocol waits on *)
  cb_actual : int;  (** the network's real bound *)
  cb_violations : int;
  cb_join_mean : float;
  cb_joins : int;
}

let delta_calibration ?pool ~n ~actual ~believed ~horizon ~seed () =
  pmap ?pool
    ~key:(fun believed_delta -> Printf.sprintf "calib:believed=%d" believed_delta)
    (fun believed_delta ->
      let r =
        judged
          (sync_with (Sync_register.default_params ~delta:believed_delta))
          (config ~seed ~n ~delta:actual 0.02)
          ~read_rate:1.0 ~write_every:(6 * actual) ~horizon ~drain:(6 * actual)
      in
      let joins = List.filter is_join (completed_ops r.Harness.history) in
      {
        cb_believed = believed_delta;
        cb_actual = actual;
        cb_violations = violations (regularity r);
        cb_join_mean = Stats.mean (latency_stats joins);
        cb_joins = List.length joins;
      })
    believed

(* ------------------------------------------------------------------ *)
(* E23 *)

type session_row = {
  ss_model : string;
  ss_mean_session : float;
  ss_measured_c : float;
  ss_checked : int;  (** reads + joins checked *)
  ss_violations : int;
  ss_stuck_joins : int;
  ss_min_window : int;  (** min |A(tau, tau+3delta)| *)
}

let session_models ?pool ~n ~delta ~mean ~horizon ~seed () =
  let params = paper_literal ~delta in
  let row ~model ~measured history regularity analysis =
    {
      ss_model = model;
      ss_mean_session = mean;
      ss_measured_c = measured;
      ss_checked = regularity.Regularity.checked_reads + regularity.Regularity.checked_joins;
      ss_violations = violations regularity;
      ss_stuck_joins = stuck_joins history;
      ss_min_window =
        snd
          (Analysis.min_active_window analysis ~window:(3 * delta) ~from_:(time (4 * delta))
             ~until:(time (horizon - (3 * delta) - 1)));
    }
  in
  let constant_row ~model =
    let c = 1.0 /. mean in
    let r = threshold_run ~delta ~horizon (sync_with params) (config ~seed ~n ~delta c) in
    row ~model ~measured:c r.Harness.history (regularity r) r.Harness.analysis
  in
  (* Session churn replaces the constant-rate process, which Harness
     always starts, so these rows drive the deployment themselves. *)
  let session_row ~model ~distribution =
    let module G = Generator.Make (Sync_d) in
    let d = Sync_d.create (config ~seed ~n ~delta 0.0) params in
    let engine =
      Session_churn.create ~sched:(Sync_d.scheduler d)
        ~rng:(Rng.create ~seed:(seed + 101))
        ~membership:(Sync_d.membership d) ~distribution
        ~spawn:(fun () -> Sync_d.spawn d)
        ~retire:(fun pid -> Sync_d.retire d pid)
        ()
    in
    Session_churn.start engine ~until:(time horizon);
    G.run d
      { Generator.read_rate = 1.0; write_every = 5 * delta; start = time 1;
        until = time horizon };
    Sync_d.run_until d (time (horizon + (4 * delta)));
    row ~model ~measured:(Session_churn.measured_rate engine ~n) (Sync_d.history d)
      (Sync_d.regularity d) (Sync_d.analysis d)
  in
  let alpha = 1.5 in
  let variants =
    [
      ("constant rate (paper)", None);
      ("fixed sessions (synchronized)", Some (Session_churn.Fixed (int_of_float mean)));
      ("geometric sessions (memoryless)", Some (Session_churn.Geometric mean));
      ( "pareto sessions (heavy tail)",
        Some (Session_churn.Pareto { alpha; xmin = mean *. (alpha -. 1.0) /. alpha }) );
    ]
  in
  pmap ?pool
    ~key:(fun (model, _) -> "session:" ^ model)
    (fun (model, distribution) ->
      match distribution with
      | None -> constant_row ~model
      | Some distribution -> session_row ~model ~distribution)
    variants

(* ------------------------------------------------------------------ *)
(* E24 *)

type nemesis_row = {
  nm_plan : string;
  nm_profile : string;
  nm_protocol : string;
  nm_injected : int;
  nm_findings : int;
  nm_flagged : bool;
}

let nemesis_matrix ?pool ~n ~delta ~horizon ~seed () =
  let open Dds_fault in
  let mid = horizon / 2 and third = horizon / 3 in
  (* One write fires every 20 ticks (the harness default), so windows
     anchored at multiples of 20 straddle a dissemination. *)
  let plans =
    [
      ("within", [ Nemesis.dup ~copies:2 (Nemesis.during ~from_:1 ~until_:horizon) ]);
      ("within", [ Nemesis.crash ~recover:(2 * delta) ~k:1 third ]);
      ("within", [ Nemesis.storm ~k:1 mid ]);
      ( "breaking",
        [
          Nemesis.partition
            ~a:(List.init ((n / 2) + 1) Fun.id)
            ~b:(List.init (n - (n / 2) - 1) (fun i -> (n / 2) + 1 + i))
            ~symmetric:false
            (Nemesis.during ~from_:(mid - 5) ~until_:(mid + 5));
        ] );
      ( "breaking",
        [ Nemesis.delay ~extra:(4 * delta) (Nemesis.during ~from_:(third - 2) ~until_:(2 * third)) ] );
      ("breaking", [ Nemesis.crash ~k:((n / 2) + 1) mid ]);
    ]
  in
  let cfg = config ~seed ~n ~delta 0.0 in
  let cell ((profile, plan), (p : Protocol.t)) =
    (* The monitors each protocol's theorem calls for, as dds hunt
       wires them; inversions stay off because sync/es only promise
       regularity. *)
    let monitor = Harness.monitor_config p ~n ~delta in
    let spec = Harness.default_spec ~monitor ~horizon ~drain:(20 * delta) () in
    let r = Harness.run (Harness.instance_exn p ~n ~delta) cfg spec plan in
    let problems = Dds_monitor.Verdict.problems r.Harness.verdict in
    {
      nm_plan = Nemesis.to_string plan;
      nm_profile = profile;
      nm_protocol = p.Protocol.name;
      nm_injected = r.Harness.injected;
      nm_findings = List.length problems;
      nm_flagged = problems <> [];
    }
  in
  let cells =
    List.concat_map (fun plan -> List.map (fun p -> (plan, p)) dynamic_protocols) plans
  in
  (* The dup cells are the matrix's one super-linear load: every copy
     of every broadcast over the whole horizon is re-injected, so
     their cost scales with traffic (es at n=10 pays ~200x the crash
     cells). Schedule them first as dedicated jobs and chunk the rest. *)
  let heavy ((_, plan), _) =
    let s = Nemesis.to_string plan in
    String.length s >= 4 && String.equal (String.sub s 0 4) "dup("
  in
  pmap ?pool ~heavy
    ~key:(fun ((_, plan), (p : Protocol.t)) ->
      Printf.sprintf "nemesis:%s:%s" p.Protocol.name (Nemesis.to_string plan))
    cell cells

(* ------------------------------------------------------------------ *)
(* E25 *)

type shard_row = {
  sh_shards : int;
  sh_skew : float;
  sh_churn : float;
  sh_scheduled : int;
  sh_issued : int;
  sh_completed : int;
  sh_throughput : float;
  sh_read_stats : Stats.t;
  sh_write_stats : Stats.t;
  sh_hot_frac : float;
  sh_regular : bool;
}

let shard_scaling ?pool ~protocol ~n ~delta ~shards ~skews ~churns ~keys ~read_rate
    ~write_every ~horizon ~seed () =
  let cells =
    List.concat_map
      (fun sh -> List.concat_map (fun sk -> List.map (fun c -> (sh, sk, c)) churns) skews)
      shards
  in
  let inst = Harness.instance_exn (Protocol.find_exn protocol) ~n ~delta in
  let cell (shard_count, skew, churn) =
    (* One plan per (seed, skew): the identical op stream re-partitions
       across every shard count, so rows down a shards column measure
       routing and parallel registers, never a different workload. *)
    let plan =
      Skew.plan
        ~rng:(Rng.create ~seed)
        { (Skew.default ~keys ~s:skew ~until:(time horizon)) with
          Skew.read_rate; write_every }
    in
    let shards =
      Harness.run_shards inst (config ~seed ~n ~delta churn) ~shards:shard_count
        { Harness.horizon; drain = 20 * delta; workload = Harness.Plan plan; monitor = None }
        []
    in
    let all f = List.concat_map (fun (_, r) -> f r.Harness.history) shards in
    let cr = all History.completed_reads and cw = all History.completed_writes in
    let completed = List.length cr + List.length cw in
    let total_sched = List.length plan in
    {
      sh_shards = shard_count;
      sh_skew = skew;
      sh_churn = churn;
      sh_scheduled = total_sched;
      sh_issued = List.fold_left (fun acc (_, r) -> acc + Harness.issued r) 0 shards;
      sh_completed = completed;
      sh_throughput = float_of_int completed /. float_of_int horizon;
      sh_read_stats = latency_stats cr;
      sh_write_stats = latency_stats cw;
      sh_hot_frac =
        (if total_sched = 0 then 0.0
         else
           float_of_int (List.fold_left (fun acc (routed, _) -> Stdlib.max acc routed) 0 shards)
           /. float_of_int total_sched);
      sh_regular =
        List.for_all (fun (_, r) -> Regularity.is_ok (regularity r)) shards;
    }
  in
  pmap ?pool
    ~key:(fun (sh, sk, c) -> Printf.sprintf "shard:shards=%d:skew=%g:churn=%g" sh sk c)
    cell cells
