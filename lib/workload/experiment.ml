open Dds_sim
open Dds_spec

type params = {
  n : int;
  delta : int;
  horizon : int;
  seed : int;
  churn : float;
  keys : int;
  read_rate : float;
  write_every : int;
  reps : int;
}

type t = {
  id : string;
  enum : string;
  aliases : string list;
  doc : string;
  defaults : params;
  run : ?pool:Dds_engine.Pool.t -> params -> Report.t list;
}

(* The CLI's own defaults and one repetition; each entry below sets
   what its quoted table differs in. *)
let base =
  {
    n = 20;
    delta = 3;
    horizon = 500;
    seed = 42;
    churn = 0.0;
    keys = 1024;
    read_rate = 1.0;
    write_every = 20;
    reps = 1;
  }

let seeds p = List.init p.reps (fun i -> p.seed + i)
let fint = Report.cell_int
let ffloat = Report.cell_float
let fval = function Some v -> Format.asprintf "%a" Value.pp v | None -> "-"
let bound ~delta = 1.0 /. (3.0 *. float_of_int delta)

(* One table row per typed sweep row. *)
let table ~title ~headers ?notes cells rows =
  Report.make ~title ~headers ?notes (List.map cells rows)

(* Most experiments render one table and have no alias. *)
let one ~id ~enum ~doc defaults table =
  { id; enum; aliases = []; doc; defaults; run = (fun ?pool p -> [ table ?pool p ]) }

(* E6 and E8 share one latency layout. *)
let latency_table ~title =
  table ~title
    ~headers:[ "protocol"; "phase"; "op"; "n"; "mean"; "p50"; "p99"; "max" ]
    (fun (r : Sweep.latency_row) ->
      let s = r.Sweep.lat_stats in
      [
        r.Sweep.lat_protocol;
        r.Sweep.lat_phase;
        r.Sweep.lat_op;
        fint (Stats.count s);
        ffloat (Stats.mean s);
        ffloat (Stats.median s);
        ffloat (Stats.percentile s 99.0);
        ffloat (Stats.max_value s);
      ])

(* E5 renders the same grid once per empty-inquiry behaviour. *)
let safety_table ?pool p (on_empty, variant) =
  table
    ~title:
      (Printf.sprintf
         "E5 — synchronous safety across the churn threshold (%s), n=%d delta=%d" variant p.n
         p.delta)
    ~headers:
      [ "c/(1/3d)"; "c"; "runs"; "violations"; "bad runs"; "join retries"; "joins pending" ]
    ~notes:
      [
        "Theorem 1 predicts zero violations for c < 1/(3*delta). Above the threshold";
        "the guarantee lapses; how it lapses depends on what a joiner does with an";
        "empty inquiry round: the paper's literal protocol (adopt-bottom) violates";
        "safety, the retry hardening turns the failure into join non-termination.";
      ]
    (fun (r : Sweep.safety_row) ->
      [
        ffloat r.Sweep.sf_ratio;
        ffloat ~decimals:4 r.Sweep.sf_c;
        fint r.Sweep.sf_runs;
        fint r.Sweep.sf_violations;
        fint r.Sweep.sf_runs_with_violation;
        fint r.Sweep.sf_join_retries;
        fint r.Sweep.sf_incomplete_joins;
      ])
    (Sweep.sync_safety ~on_empty ?pool ~n:p.n ~delta:p.delta
       ~ratios:[ 0.3; 0.6; 0.9; 1.1; 1.4; 2.0; 3.0 ]
       ~seeds:(seeds p) ~horizon:p.horizon ())

let all =
  [
    one ~id:"inversion" ~enum:"e1"
      ~doc:"the introduction's new/old inversion: regular but not atomic" base
      (fun ?pool:_ _ ->
        let o = Scenario.inversion () in
        Report.make ~title:"E1 — new/old inversion (introduction's scenario)"
          ~headers:[ "read"; "returned"; "verdict" ]
          ~notes:
            [
              "The earlier read returns the newer value, the later read the older one:";
              "legal for a regular register, impossible for an atomic one — the checker";
              "confirms regularity and flags exactly the inversion.";
            ]
          [
            [ "r1 (fast replica)"; fval o.Scenario.fast_read; "fresh" ];
            [ "r2 (slow replica)"; fval o.Scenario.slow_read; "old: inversion" ];
            [ "regular?"; Report.cell_bool (Regularity.is_ok o.Scenario.report); "" ];
            [ "inversions"; fint (List.length o.Scenario.inversions); "" ];
          ]);
    {
      id = "fig3";
      enum = "e2";
      aliases = [ "e3"; "fig3a"; "fig3b" ];
      doc = "Figure 3a/3b: the join's initial delta wait, without and with";
      defaults = base;
      run =
        (fun ?pool:_ _ ->
          [
            table ~title:"E2/E3 — Figure 3: the join's initial delta wait"
              ~headers:[ "variant"; "join adopted"; "later read"; "join ticks"; "violations" ]
              ~notes:
                [
                  "Figure 3a (wait disabled): the joiner misses the in-flight write and a read";
                  "issued after the write completed still returns the old value (1 violation).";
                  "Figure 3b (the actual protocol): the wait pushes the inquiry past the write's";
                  "delivery bound, the join adopts the new value, and the run is clean.";
                ]
              (fun (name, join_wait) ->
                let o = Scenario.fig3 ~join_wait in
                [
                  name;
                  fval o.Scenario.join_value;
                  fval o.Scenario.read_value;
                  (match o.Scenario.join_duration with Some d -> fint d | None -> "-");
                  fint (List.length o.Scenario.report.Regularity.violations);
                ])
              [ ("fig3a (no wait)", false); ("fig3b (with wait)", true) ];
          ]);
    };
    one ~id:"lemma2" ~enum:"e4"
      ~doc:"join latency vs churn ratio c*3delta (Lemma 2's admissible region)"
      { base with n = 60; horizon = 1500 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E4 — Lemma 2: min |A(tau, tau+3*delta)| vs n(1-3*delta*c), n=%d delta=%d" p.n
               p.delta)
          ~headers:[ "c/(1/3d)"; "c"; "paper bound"; "measured min"; "min |A(tau)|" ]
          ~notes:
            [
              "Adversarial Active_first churn. The paper's bound assumes the window starts";
              "fully active; with real joins in the pipeline (up to 3*delta ticks) the";
              "steady-state active set sits below n, so the measured minimum can fall under";
              "the bound while remaining positive below the threshold — see EXPERIMENTS.md.";
            ]
          (fun (r : Sweep.lemma2_row) ->
            [
              ffloat r.Sweep.l2_ratio;
              ffloat ~decimals:4 r.Sweep.l2_c;
              ffloat r.Sweep.l2_bound;
              fint r.Sweep.l2_measured_min;
              fint r.Sweep.l2_instant_min;
            ])
          (Sweep.lemma2 ?pool ~n:p.n ~delta:p.delta
             ~ratios:[ 0.25; 0.5; 0.75; 0.9; 1.0; 1.2 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    {
      id = "safety";
      enum = "e5";
      aliases = [];
      doc = "sync register safety vs churn ratio across seeds, paper-literal and hardened";
      defaults = { base with n = 30; horizon = 600; seed = 100; reps = 10 };
      run =
        (fun ?pool p ->
          List.map (safety_table ?pool p)
            [
              (Dds_core.Sync_register.Adopt_bottom, "paper-literal: adopt bottom");
              (Dds_core.Sync_register.Retry, "hardened: retry inquiry");
            ]);
    };
    one ~id:"latency" ~enum:"e6" ~doc:"synchronous operation latencies against Lemma 1's bounds"
      { base with n = 30; delta = 5; churn = 0.01; horizon = 1000; seed = 7 }
      (fun ?pool:_ p ->
        latency_table
          ~title:
            (Printf.sprintf
               "E6 — synchronous latencies (Lemma 1: join <= 3*delta=%d, write = delta=%d, \
                read = 0)"
               (3 * p.delta) p.delta)
          (Sweep.sync_latency ~n:p.n ~delta:p.delta ~c:p.churn ~horizon:p.horizon ~seed:p.seed));
    one ~id:"async" ~enum:"e7"
      ~doc:"Theorem 2 witness: staleness grows with the horizon under unbounded delays"
      { base with horizon = 4000 }
      (fun ?pool p ->
        table ~title:"E7 — Theorem 2 witness: staleness under unbounded delays"
          ~headers:[ "horizon"; "writes completed"; "max staleness"; "mean staleness" ]
          ~notes:
            [
              "The synchronous protocol run over an asynchronous network: writes keep";
              "'completing' on local timers while readers' evidence never arrives, so the";
              "returned values fall unboundedly far behind — no wait-based protocol can";
              "implement a regular register here (Theorem 2).";
            ]
          (fun (r : Sweep.async_row) ->
            [
              fint r.Sweep.as_horizon;
              fint r.Sweep.as_completed_writes;
              fint r.Sweep.as_max_staleness;
              ffloat r.Sweep.as_mean_staleness;
            ])
          (Sweep.async_series ?pool
             ~horizons:(List.map (fun d -> p.horizon / d) [ 16; 8; 4; 2; 1 ])
             ()));
    one ~id:"gst" ~enum:"e8" ~doc:"ES operation latencies before vs after GST"
      { base with delta = 4; horizon = 1200; seed = 21 }
      (fun ?pool:_ p ->
        let gst = 500 and wild = 60 in
        latency_table
          ~title:
            (Printf.sprintf "E8 — ES latencies before vs after GST (gst=%d, delta=%d, wild=%d)"
               gst p.delta wild)
          (Sweep.es_latency ~n:p.n ~gst ~delta:p.delta ~wild ~horizon:p.horizon ~seed:p.seed));
    one ~id:"boundary" ~enum:"e9" ~doc:"ES liveness/safety at the 1/(3 delta n) churn boundary"
      { base with n = 10; horizon = 600; seed = 3 }
      (fun ?pool p ->
        table
          ~title:(Printf.sprintf "E9 — ES protocol at the majority boundary, n=%d" p.n)
          ~headers:
            [ "c"; "completed"; "blocked"; "aborted"; "min |A(tau)|"; "majority"; "violations" ]
          ~notes:
            [
              "As churn erodes the active majority (min |A| < majority), quorum waits";
              "start blocking: liveness degrades while safety violations stay at zero —";
              "the protocol fails safe, exactly as Theorems 3-4 divide the labour.";
            ]
          (fun (r : Sweep.boundary_row) ->
            [
              ffloat ~decimals:3 r.Sweep.bd_c;
              fint r.Sweep.bd_completed;
              fint r.Sweep.bd_pending;
              fint r.Sweep.bd_aborted;
              fint r.Sweep.bd_min_active;
              fint r.Sweep.bd_majority;
              fint r.Sweep.bd_violations;
            ])
          (Sweep.es_boundary ?pool ~n:p.n
             ~rates:[ 0.0; 0.005; 0.01; 0.02; 0.04; 0.08; 0.15 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"versus" ~enum:"e10" ~doc:"ABD on a fixed group vs the dynamic protocols under churn"
      { base with churn = 0.02; horizon = 1500; seed = 11 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf "E10 — static ABD vs dynamic protocols, n=%d c=%.3f horizon=%d" p.n
               p.churn p.horizon)
          ~headers:
            [ "protocol"; "completed"; "blocked"; "violations"; "last op at"; "founders left" ]
          ~notes:
            [
              "ABD's server group is the founding set: churn drains it below a majority and";
              "every later quorum wait blocks (watch 'last op at' freeze early). The dynamic";
              "protocols keep completing operations to the horizon.";
            ]
          (fun (r : Sweep.versus_row) ->
            [
              r.Sweep.vs_protocol;
              fint r.Sweep.vs_completed;
              fint r.Sweep.vs_pending;
              fint r.Sweep.vs_violations;
              fint r.Sweep.vs_last_completed_at;
              fint r.Sweep.vs_founders_alive_at_end;
            ])
          (Sweep.abd_vs_dynamic ?pool ~n:p.n ~delta:p.delta ~c:p.churn ~horizon:p.horizon
             ~seed:p.seed ()));
    one ~id:"msgs" ~enum:"e11" ~doc:"message complexity per operation as n grows"
      { base with seed = 5 }
      (fun ?pool p ->
        table ~title:"E11 — message complexity (point-to-point transmissions per op)"
          ~headers:[ "protocol"; "n"; "per read"; "per write"; "per join" ]
          ~notes:
            [
              "sync: reads are free (local), writes and joins cost one broadcast (n";
              "transmissions) plus replies. es/abd: every operation pays a broadcast";
              "plus a majority of replies/acks, so costs grow linearly in n.";
            ]
          (fun (r : Sweep.msg_row) ->
            [
              r.Sweep.mc_protocol;
              fint r.Sweep.mc_n;
              ffloat ~decimals:1 r.Sweep.mc_per_read;
              ffloat ~decimals:1 r.Sweep.mc_per_write;
              ffloat ~decimals:1 r.Sweep.mc_per_join;
            ])
          (Sweep.msg_complexity ?pool ~ns:[ 10; 20; 40 ] ~delta:p.delta ~seed:p.seed ()));
    one ~id:"quorum" ~enum:"e12" ~doc:"timed-quorum survival probability vs churn"
      { base with n = 30; seed = 17; reps = 400 }
      (fun ?pool p ->
        table
          ~title:(Printf.sprintf "E12 — timed quorums under churn (Section 7 future work), n=%d" p.n)
          ~headers:
            [ "c"; "size"; "lifetime"; "hold rate"; "E[survivors]"; "measured"; "intersect rate" ]
          ~notes:
            [
              "Majority-sized quorums sampled from the active set, trusted for a bounded";
              "lifetime. Measured survivor counts track the analytic size*(1-c)^t law;";
              "intersection probability of two same-aged quorums is what a dynamic";
              "multi-writer register would build on (Gramoli-Raynal [13]).";
            ]
          (fun (r : Sweep.tq_row) ->
            [
              ffloat ~decimals:3 r.Sweep.tq_c;
              fint r.Sweep.tq_size;
              fint r.Sweep.tq_lifetime;
              ffloat r.Sweep.tq_hold_rate;
              ffloat r.Sweep.tq_expected_survivors;
              ffloat r.Sweep.tq_measured_survivors;
              ffloat r.Sweep.tq_intersect_rate;
            ])
          (Sweep.timed_quorum ?pool ~n:p.n
             ~cs:[ 0.005; 0.01; 0.02; 0.05; 0.1 ]
             ~lifetime:20 ~trials:p.reps ~seed:p.seed ()));
    one ~id:"threshold" ~enum:"e13" ~doc:"empirical churn threshold across delta"
      { base with n = 24; horizon = 400; seed = 500; reps = 4 }
      (fun ?pool p ->
        table
          ~title:(Printf.sprintf "E13 — greatest tolerable churn (Section 7's question), n=%d" p.n)
          ~headers:[ "delta"; "paper 1/(3d)"; "empirical c*"; "scan step"; "c*/bound" ]
          ~notes:
            [
              "Largest constant c at which every probe run (adversarial Active_first";
              "departures, paper-literal joins) stayed clean. Empirically the cliff";
              "sits right around 1/(3*delta) (0.8x-1.1x across deltas): against this";
              "randomized adversary the paper's sufficient condition is nearly tight.";
            ]
          (fun (r : Sweep.threshold_row) ->
            [
              fint r.Sweep.th_delta;
              ffloat ~decimals:4 r.Sweep.th_paper_bound;
              ffloat ~decimals:4 r.Sweep.th_empirical;
              ffloat ~decimals:4 r.Sweep.th_step;
              ffloat r.Sweep.th_ratio;
            ])
          (Sweep.churn_threshold ?pool ~n:p.n ~deltas:[ 2; 3; 4 ] ~seeds:(seeds p)
             ~horizon:p.horizon ()));
    one ~id:"bursty" ~enum:"e14" ~doc:"bursty (non-uniform) churn vs the uniform assumption"
      { base with n = 30; horizon = 600; seed = 900; reps = 8 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E14 — bursty churn at a fixed average rate, n=%d delta=%d (bound=%.4f)" p.n
               p.delta (bound ~delta:p.delta))
          ~headers:[ "profile"; "avg c"; "peak c"; "runs"; "violations"; "stuck joins" ]
          ~notes:
            [
              "The first three profiles share one time-averaged churn (0.6x the bound);";
              "the 3.2x burst alone exceeds that average, so it has no base rate and";
              "averages 0.8x. The paper's analysis constrains the constant rate: bursts";
              "whose peak exceeds the threshold can break safety even though the average";
              "is comfortably below it — constant-c is a real modelling assumption, not";
              "a convenience.";
            ]
          (fun (r : Sweep.burst_row) ->
            [
              r.Sweep.br_label;
              ffloat ~decimals:4 r.Sweep.br_avg_c;
              ffloat ~decimals:4 r.Sweep.br_peak_c;
              fint r.Sweep.br_runs;
              fint r.Sweep.br_violations;
              fint r.Sweep.br_stuck_joins;
            ])
          (Sweep.bursty_churn ?pool ~n:p.n ~delta:p.delta ~seeds:(seeds p) ~horizon:p.horizon ()));
    one ~id:"loss" ~enum:"e15" ~doc:"message loss vs the reliable-channel assumption"
      { base with n = 16; seed = 23 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf "E15 — message loss (outside the reliable-network model), n=%d" p.n)
          ~headers:[ "protocol"; "loss"; "completed"; "blocked"; "violations" ]
          ~notes:
            [
              "Each message independently dropped with probability 'loss'. The sync";
              "protocol's timer waits expire regardless, so lost WRITE broadcasts turn";
              "into stale reads (safety erosion); the quorum-based ES protocol instead";
              "stops completing operations (liveness erosion). The paper's reliable";
              "broadcast is load-bearing for both, in opposite directions.";
            ]
          (fun (r : Sweep.loss_row) ->
            [
              r.Sweep.ls_protocol;
              ffloat r.Sweep.ls_loss;
              fint r.Sweep.ls_completed;
              fint r.Sweep.ls_pending;
              fint r.Sweep.ls_violations;
            ])
          (Sweep.message_loss ?pool ~n:p.n ~delta:p.delta
             ~losses:[ 0.0; 0.01; 0.05; 0.1; 0.2 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"joinopt" ~enum:"e16" ~doc:"footnote 4's join-wait optimization: one delta vs two"
      { base with delta = 6; horizon = 800; seed = 29 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E16 — footnote 4: inquiry wait delta+delta' vs 2*delta, n=%d delta=%d" p.n
               p.delta)
          ~headers:[ "variant"; "delta'"; "joins"; "mean join"; "max join"; "violations" ]
          ~notes:
            [
              "With a tighter point-to-point bound delta' the join's inquiry round trip";
              "shrinks from 2*delta to delta+delta' with safety intact — the paper's";
              "footnote 4 optimization, validated under churn.";
            ]
          (fun (r : Sweep.join_opt_row) ->
            [
              r.Sweep.jo_variant;
              fint r.Sweep.jo_p2p;
              fint r.Sweep.jo_joins;
              ffloat r.Sweep.jo_join_mean;
              ffloat r.Sweep.jo_join_max;
              fint r.Sweep.jo_violations;
            ])
          (Sweep.join_wait_optimization ?pool ~n:p.n ~delta:p.delta ~p2ps:[ 1; 2; 3 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"broadcast" ~enum:"e17" ~doc:"broadcast primitive robustness under loss"
      { base with n = 16; horizon = 600; seed = 31 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E17 — postulated broadcast vs flooding implementation under link faults, n=%d"
               p.n)
          ~headers:[ "broadcast"; "loss"; "completed"; "violations"; "transmissions" ]
          ~notes:
            [
              "Same effective delta (per-hop bound 2, relay depth 2). With reliable";
              "links both modes are clean and flooding just costs redundancy. Under";
              "per-message loss the primitive's single copies go missing (stale reads,";
              "violations); flooding's relay diversity absorbs far more loss — the";
              "paper's 'appropriate broadcast' assumption, priced.";
            ]
          (fun (r : Sweep.broadcast_row) ->
            [
              r.Sweep.bc_mode;
              ffloat r.Sweep.bc_loss;
              fint r.Sweep.bc_completed;
              fint r.Sweep.bc_violations;
              fint r.Sweep.bc_transmissions;
            ])
          (Sweep.broadcast_robustness ?pool ~n:p.n
             ~losses:[ 0.0; 0.05; 0.1; 0.2 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"consensus" ~enum:"e18" ~doc:"repeated consensus built from the registers, under churn"
      { base with n = 10; horizon = 1200; seed = 37 }
      (fun ?pool p ->
        let k = 3 in
        table
          ~title:
            (Printf.sprintf
               "E18 — consensus from regular registers + Omega (intro's application), n=%d k=%d"
               p.n k)
          ~headers:
            [ "c"; "protected"; "present"; "decided"; "attempts"; "first decision";
              "agreement"; "validity" ]
          ~notes:
            [
              "Guerraoui-Raynal alpha over the k-register array plus the Omega oracle:";
              "one leader attempt usually suffices; churn replaces the audience but the";
              "decision keeps propagating to joiners. The last row removes participant";
              "protection: leaders can crash mid-attempt — progress needs whoever is";
              "left, and agreement/validity must survive no matter what.";
            ]
          (fun (r : Sweep.consensus_row) ->
            [
              ffloat ~decimals:3 r.Sweep.cn_c;
              Report.cell_bool r.Sweep.cn_protected;
              fint r.Sweep.cn_present;
              fint r.Sweep.cn_decided;
              fint r.Sweep.cn_attempts;
              (match r.Sweep.cn_first_decision with Some t -> fint t | None -> "-");
              Report.cell_bool r.Sweep.cn_agreement;
              Report.cell_bool r.Sweep.cn_validity;
            ])
          (Sweep.consensus_under_churn ?pool ~n:p.n ~k
             ~cs:[ 0.0; 0.005; 0.01; 0.02 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"geo" ~enum:"e19" ~doc:"wireless zone: the churn bound as a speed limit"
      { base with horizon = 1000; seed = 5 }
      (fun ?pool p ->
        (* The zone world fixes its own delta. *)
        let delta = 3 in
        table
          ~title:
            (Printf.sprintf
               "E19 — the churn bound as a speed limit (wireless zone, delta=%d, bound=%.4f)"
               delta (bound ~delta))
          ~headers:
            [ "speed"; "emergent c"; "c/(1/3d)"; "mean pop"; "joins"; "reads"; "violations" ]
          ~notes:
            [
              "Section 2.1's mobile-node example, literally: crossing into the radio";
              "zone is the join, wandering out is the leave, so churn is a function of";
              "node speed. Emergent c grows linearly with speed; once it crosses the";
              "1/(3*delta) threshold, nodes transit the zone faster than the 3*delta";
              "join protocol and activity collapses — the paper's bound as a speed";
              "limit for participating in a MANET register.";
            ]
          (fun (r : Sweep.geo_row) ->
            [
              ffloat ~decimals:1 r.Sweep.geo_speed;
              ffloat ~decimals:4 r.Sweep.geo_churn;
              ffloat r.Sweep.geo_threshold_ratio;
              ffloat ~decimals:1 r.Sweep.geo_mean_population;
              fint r.Sweep.geo_joins;
              fint r.Sweep.geo_reads;
              fint r.Sweep.geo_violations;
            ])
          (Sweep.geo_speed ?pool
             ~speeds:[ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"qsize" ~enum:"e20" ~doc:"ES quorum-size ablation under lossy dissemination"
      { base with n = 10; churn = 0.01; horizon = 800; seed = 1 }
      (fun ?pool p ->
        let loss = 0.3 in
        table
          ~title:
            (Printf.sprintf "E20 — ES quorum-size ablation, n=%d c=%.3f loss=%.2f (majority=%d)"
               p.n p.churn loss ((p.n / 2) + 1))
          ~headers:[ "quorum"; "completed"; "blocked"; "violations"; "inversions" ]
          ~notes:
            [
              "Every ES wait (join, read, write-ack) with the threshold forced to the";
              "given size, under heavy per-message loss so dissemination is partial";
              "and quorum intersection is what guarantees freshness. Tiny quorums are";
              "fast but stale (violations and even new/old inversions); quorums at or";
              "above the majority never return stale values but pay steeply in";
              "liveness under loss. The paper's n/2+1 is the exact pivot.";
            ]
          (fun (r : Sweep.quorum_row) ->
            [
              (let tag = if r.Sweep.qa_quorum = r.Sweep.qa_majority then " (majority)" else "" in
               Printf.sprintf "%d%s" r.Sweep.qa_quorum tag);
              fint r.Sweep.qa_completed;
              fint r.Sweep.qa_pending;
              fint r.Sweep.qa_violations;
              fint r.Sweep.qa_inversions;
            ])
          (Sweep.quorum_ablation ~loss ?pool ~n:p.n ~quorums:[ 1; 2; 3; 4; 5; 6 ] ~c:p.churn
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"repair" ~enum:"e21" ~doc:"read-repair ablation (regular vs atomic reads)"
      { base with n = 10; horizon = 800; seed = 47 }
      (fun ?pool p ->
        table
          ~title:(Printf.sprintf "E21 — regular-to-atomic: ES read-repair ablation, n=%d" p.n)
          ~headers:
            [ "variant"; "scenario inversions"; "run inversions"; "read mean"; "violations" ]
          ~notes:
            [
              "The constructed execution (stalled dissemination, one informed reader,";
              "one cut-off reader) exhibits the quorum protocol's own new/old";
              "inversion; read-repair — propagate what you are about to return to a";
              "majority first — eliminates it at the price of a second round trip per";
              "read. The introduction's computability claim (regular = atomic in";
              "power), realized on the dynamic substrate.";
            ]
          (fun (r : Sweep.repair_row) ->
            [
              r.Sweep.rp_variant;
              fint r.Sweep.rp_scenario_inversions;
              fint r.Sweep.rp_run_inversions;
              ffloat r.Sweep.rp_read_mean;
              fint r.Sweep.rp_violations;
            ])
          (Sweep.read_repair_ablation ?pool ~n:p.n ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"calibration" ~enum:"e22" ~doc:"believed vs actual delta calibration (actual = --delta)"
      { base with delta = 6; horizon = 900; seed = 53 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E22 — delta mis-calibration: protocol belief vs network bound %d, n=%d" p.delta
               p.n)
          ~headers:[ "believed delta"; "actual"; "joins"; "join mean"; "violations" ]
          ~notes:
            [
              "The synchronous protocol cannot observe delta; it consumes it. Waits";
              "sized below the true bound expire before the evidence arrives — the";
              "asynchronous impossibility in miniature (stale joins, violations).";
              "Waits sized above it are safe and merely slow: the cost of synchrony";
              "assumptions is asymmetric, which is why eventually-synchronous designs";
              "(Section 5) drop the bound entirely and pay with quorum waits.";
            ]
          (fun (r : Sweep.calibration_row) ->
            [
              fint r.Sweep.cb_believed;
              fint r.Sweep.cb_actual;
              fint r.Sweep.cb_joins;
              ffloat r.Sweep.cb_join_mean;
              fint r.Sweep.cb_violations;
            ])
          (Sweep.delta_calibration ?pool ~n:p.n ~actual:p.delta
             ~believed:[ 2; 4; 6; 9; 12 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"sessions" ~enum:"e23" ~doc:"churn process shape at an equal average rate"
      { base with n = 30; horizon = 900; seed = 59 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf
               "E23 — churn process shape at equal average rate, n=%d delta=%d (bound=%.4f)" p.n
               p.delta (bound ~delta:p.delta))
          ~headers:
            [ "session model"; "mean"; "measured c"; "checked"; "violations"; "stuck joins";
              "min |A(t,t+3d)|" ]
          ~notes:
            [
              "The paper cites Ko et al. [19] to argue constant churn is realistic;";
              "here four churn processes share one average rate. Memoryless and";
              "heavy-tailed (Pareto) sessions behave like the paper's constant-rate";
              "model: clean runs, active window always positive. Fully synchronized";
              "sessions are the hidden failure mode: the whole cohort departs at";
              "once — instantaneous churn far above the bound, an empty 3*delta";
              "window — and the register collapses despite a compliant average.";
              "'Constant c' is really an anti-correlation assumption on departures.";
            ]
          (fun (r : Sweep.session_row) ->
            [
              r.Sweep.ss_model;
              ffloat ~decimals:1 r.Sweep.ss_mean_session;
              ffloat ~decimals:4 r.Sweep.ss_measured_c;
              fint r.Sweep.ss_checked;
              fint r.Sweep.ss_violations;
              fint r.Sweep.ss_stuck_joins;
              fint r.Sweep.ss_min_window;
            ])
          (Sweep.session_models ?pool ~n:p.n ~delta:p.delta ~mean:15.0 ~horizon:p.horizon
             ~seed:p.seed ()));
    one ~id:"nemesis" ~enum:"e24" ~doc:"fault-plan matrix: each nemesis vs each protocol"
      { base with n = 10; horizon = 240; seed = 61 }
      (fun ?pool p ->
        table
          ~title:
            (Printf.sprintf "E24 — nemesis fault matrix, n=%d delta=%d (write every 20 ticks)"
               p.n p.delta)
          ~headers:[ "plan"; "profile"; "protocol"; "injected"; "findings"; "verdict" ]
          ~notes:
            [
              "Within-model plans (duplicates, minority crash-with-recovery, single-";
              "process storms) must leave both registers unflagged — Theorems 1 and 4";
              "tolerate them. Breaking plans each target one assumption: the one-way";
              "majority partition starves dissemination/quorums, the over-delta delay";
              "voids the synchrony bound, the majority crash kills the ES model's";
              "standing active-majority hypothesis. 'findings' counts monitor";
              "episodes plus regularity violations; dds hunt shrinks any flagged";
              "plan to a minimal counterexample.";
            ]
          (fun (r : Sweep.nemesis_row) ->
            [
              r.Sweep.nm_plan;
              r.Sweep.nm_profile;
              r.Sweep.nm_protocol;
              fint r.Sweep.nm_injected;
              fint r.Sweep.nm_findings;
              (if r.Sweep.nm_flagged then "FLAGGED" else "ok");
            ])
          (Sweep.nemesis_matrix ?pool ~n:p.n ~delta:p.delta ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"shard" ~enum:"e25"
      ~doc:"sharded key-space: throughput/latency vs shard count x churn x skew"
      { base with n = 10; keys = 512; horizon = 600; seed = 67 }
      (fun ?pool p ->
        let protocol = "sync" in
        let rows =
          Sweep.shard_scaling ?pool ~protocol ~n:p.n ~delta:p.delta
            ~shards:[ 1; 2; 4; 8 ]
            ~skews:[ 0.0; 1.0 ]
            ~churns:[ 0.0; 0.02 ]
            ~keys:p.keys ~read_rate:p.read_rate ~write_every:p.write_every ~horizon:p.horizon
            ~seed:p.seed ()
        in
        table
          ~title:
            (Printf.sprintf
               "E25 — sharded key-space scaling (%s), n=%d/shard, %d keys, horizon %d" protocol
               p.n p.keys p.horizon)
          ~headers:
            [ "shards"; "zipf s"; "churn"; "ops"; "issued"; "done"; "ops/tick"; "read p50";
              "read p99"; "write p99"; "hot shard"; "regular" ]
          ~notes:
            [
              "One zipfian op stream per (seed, skew), hash-partitioned across N";
              "independent registers, each with its own membership and churn process.";
              "'hot shard' is the busiest shard's share of the plan: skew concentrates";
              "keys, but hashing spreads ranks, so the share shrinks as shards grow.";
              "'regular' is the conjunction of the per-shard regularity verdicts —";
              "sharding multiplies the paper's theorem, it never weakens it.";
            ]
          (fun (r : Sweep.shard_row) ->
            [
              fint r.Sweep.sh_shards;
              ffloat ~decimals:1 r.Sweep.sh_skew;
              ffloat ~decimals:3 r.Sweep.sh_churn;
              fint r.Sweep.sh_scheduled;
              fint r.Sweep.sh_issued;
              fint r.Sweep.sh_completed;
              ffloat r.Sweep.sh_throughput;
              ffloat ~decimals:1 (Stats.percentile r.Sweep.sh_read_stats 50.0);
              ffloat ~decimals:1 (Stats.percentile r.Sweep.sh_read_stats 99.0);
              ffloat ~decimals:1 (Stats.percentile r.Sweep.sh_write_stats 99.0);
              ffloat ~decimals:2 r.Sweep.sh_hot_frac;
              Report.cell_bool r.Sweep.sh_regular;
            ])
          rows
        |> Report.with_data "shard_scaling"
             (Json.List
                (List.map
                   (fun (r : Sweep.shard_row) ->
                     Json.Obj
                       [
                         ("shards", Json.Int r.Sweep.sh_shards);
                         ("skew", Json.Float r.Sweep.sh_skew);
                         ("churn", Json.Float r.Sweep.sh_churn);
                         ("scheduled", Json.Int r.Sweep.sh_scheduled);
                         ("issued", Json.Int r.Sweep.sh_issued);
                         ("completed", Json.Int r.Sweep.sh_completed);
                         ("ops_per_tick", Json.Float r.Sweep.sh_throughput);
                         ("read_p99_ticks", Json.Float (Stats.percentile r.Sweep.sh_read_stats 99.0));
                         ( "write_p99_ticks",
                           Json.Float (Stats.percentile r.Sweep.sh_write_stats 99.0) );
                         ("hot_shard_frac", Json.Float r.Sweep.sh_hot_frac);
                         ("regular", Json.Bool r.Sweep.sh_regular);
                       ])
                   rows)));
  ]

let find name =
  let key = String.lowercase_ascii name in
  match List.find_opt (fun e -> e.id = key || e.enum = key || List.mem key e.aliases) all with
  | Some e -> Ok e
  | None ->
    Error
      (Printf.sprintf "unknown experiment %S (one of %s, or its E-number)" name
         (String.concat ", " (List.map (fun e -> e.id) all)))

(* E24's fault windows sit at thirds and halves of the horizon and its
   writes fire every 20 ticks, hence the floor. *)
let quick p = { p with horizon = Stdlib.max 120 (p.horizon / 4); reps = Stdlib.max 1 (p.reps / 4) }
