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

(* Most experiments render one table and have no alias. *)
let one ~id ~enum ~doc defaults table =
  { id; enum; aliases = []; doc; defaults; run = (fun ?pool p -> [ table ?pool p ]) }

let all =
  [
    one ~id:"inversion" ~enum:"e1"
      ~doc:"the introduction's new/old inversion: regular but not atomic" base
      (fun ?pool:_ _ -> Tables.inversion (Scenario.inversion ()));
    {
      id = "fig3";
      enum = "e2";
      aliases = [ "e3"; "fig3a"; "fig3b" ];
      doc = "Figure 3a/3b: the join's initial delta wait, without and with";
      defaults = base;
      run =
        (fun ?pool:_ _ ->
          [ Tables.fig3 (Scenario.fig3 ~join_wait:false) (Scenario.fig3 ~join_wait:true) ]);
    };
    one ~id:"lemma2" ~enum:"e4"
      ~doc:"join latency vs churn ratio c*3delta (Lemma 2's admissible region)"
      { base with n = 60; horizon = 1500 }
      (fun ?pool p ->
        Tables.lemma2 ~n:p.n ~delta:p.delta
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
          List.map
            (fun (on_empty, variant) ->
              Tables.sync_safety ~n:p.n ~delta:p.delta ~variant
                (Sweep.sync_safety ~on_empty ?pool ~n:p.n ~delta:p.delta
                   ~ratios:[ 0.3; 0.6; 0.9; 1.1; 1.4; 2.0; 3.0 ]
                   ~seeds:(seeds p) ~horizon:p.horizon ()))
            [
              (Dds_core.Sync_register.Adopt_bottom, "paper-literal: adopt bottom");
              (Dds_core.Sync_register.Retry, "hardened: retry inquiry");
            ]);
    };
    one ~id:"latency" ~enum:"e6" ~doc:"synchronous operation latencies against Lemma 1's bounds"
      { base with n = 30; delta = 5; churn = 0.01; horizon = 1000; seed = 7 }
      (fun ?pool:_ p ->
        Tables.latency
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
        Tables.async_impossibility
          (Sweep.async_series ?pool
             ~horizons:(List.map (fun d -> p.horizon / d) [ 16; 8; 4; 2; 1 ])
             ()));
    one ~id:"gst" ~enum:"e8" ~doc:"ES operation latencies before vs after GST"
      { base with delta = 4; horizon = 1200; seed = 21 }
      (fun ?pool:_ p ->
        let gst = 500 and wild = 60 in
        Tables.latency
          ~title:
            (Printf.sprintf "E8 — ES latencies before vs after GST (gst=%d, delta=%d, wild=%d)"
               gst p.delta wild)
          (Sweep.es_latency ~n:p.n ~gst ~delta:p.delta ~wild ~horizon:p.horizon ~seed:p.seed));
    one ~id:"boundary" ~enum:"e9" ~doc:"ES liveness/safety at the 1/(3 delta n) churn boundary"
      { base with n = 10; horizon = 600; seed = 3 }
      (fun ?pool p ->
        Tables.es_boundary ~n:p.n
          (Sweep.es_boundary ?pool ~n:p.n
             ~rates:[ 0.0; 0.005; 0.01; 0.02; 0.04; 0.08; 0.15 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"versus" ~enum:"e10" ~doc:"ABD on a fixed group vs the dynamic protocols under churn"
      { base with churn = 0.02; horizon = 1500; seed = 11 }
      (fun ?pool p ->
        Tables.abd_vs_dynamic ~n:p.n ~c:p.churn ~horizon:p.horizon
          (Sweep.abd_vs_dynamic ?pool ~n:p.n ~delta:p.delta ~c:p.churn ~horizon:p.horizon
             ~seed:p.seed ()));
    one ~id:"msgs" ~enum:"e11" ~doc:"message complexity per operation as n grows"
      { base with seed = 5 }
      (fun ?pool p ->
        Tables.msg_complexity
          (Sweep.msg_complexity ?pool ~ns:[ 10; 20; 40 ] ~delta:p.delta ~seed:p.seed ()));
    one ~id:"quorum" ~enum:"e12" ~doc:"timed-quorum survival probability vs churn"
      { base with n = 30; seed = 17; reps = 400 }
      (fun ?pool p ->
        Tables.timed_quorum ~n:p.n
          (Sweep.timed_quorum ?pool ~n:p.n
             ~cs:[ 0.005; 0.01; 0.02; 0.05; 0.1 ]
             ~lifetime:20 ~trials:p.reps ~seed:p.seed ()));
    one ~id:"threshold" ~enum:"e13" ~doc:"empirical churn threshold across delta"
      { base with n = 24; horizon = 400; seed = 500; reps = 4 }
      (fun ?pool p ->
        Tables.churn_threshold ~n:p.n
          (Sweep.churn_threshold ?pool ~n:p.n ~deltas:[ 2; 3; 4 ] ~seeds:(seeds p)
             ~horizon:p.horizon ()));
    one ~id:"bursty" ~enum:"e14" ~doc:"bursty (non-uniform) churn vs the uniform assumption"
      { base with n = 30; horizon = 600; seed = 900; reps = 8 }
      (fun ?pool p ->
        Tables.bursty_churn ~n:p.n ~delta:p.delta
          (Sweep.bursty_churn ?pool ~n:p.n ~delta:p.delta ~seeds:(seeds p)
             ~horizon:p.horizon ()));
    one ~id:"loss" ~enum:"e15" ~doc:"message loss vs the reliable-channel assumption"
      { base with n = 16; seed = 23 }
      (fun ?pool p ->
        Tables.message_loss ~n:p.n
          (Sweep.message_loss ?pool ~n:p.n ~delta:p.delta
             ~losses:[ 0.0; 0.01; 0.05; 0.1; 0.2 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"joinopt" ~enum:"e16" ~doc:"footnote 4's join-wait optimization: one delta vs two"
      { base with delta = 6; horizon = 800; seed = 29 }
      (fun ?pool p ->
        Tables.join_wait_optimization ~n:p.n ~delta:p.delta
          (Sweep.join_wait_optimization ?pool ~n:p.n ~delta:p.delta ~p2ps:[ 1; 2; 3 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"broadcast" ~enum:"e17" ~doc:"broadcast primitive robustness under loss"
      { base with n = 16; horizon = 600; seed = 31 }
      (fun ?pool p ->
        Tables.broadcast_robustness ~n:p.n
          (Sweep.broadcast_robustness ?pool ~n:p.n
             ~losses:[ 0.0; 0.05; 0.1; 0.2 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"consensus" ~enum:"e18" ~doc:"repeated consensus built from the registers, under churn"
      { base with n = 10; horizon = 1200; seed = 37 }
      (fun ?pool p ->
        Tables.consensus ~n:p.n ~k:3
          (Sweep.consensus_under_churn ?pool ~n:p.n ~k:3
             ~cs:[ 0.0; 0.005; 0.01; 0.02 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"geo" ~enum:"e19" ~doc:"wireless zone: the churn bound as a speed limit"
      { base with horizon = 1000; seed = 5 }
      (fun ?pool p ->
        Tables.geo_speed ~delta:3
          (Sweep.geo_speed ?pool
             ~speeds:[ 0.0; 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"qsize" ~enum:"e20" ~doc:"ES quorum-size ablation under lossy dissemination"
      { base with n = 10; churn = 0.01; horizon = 800; seed = 1 }
      (fun ?pool p ->
        Tables.quorum_ablation ~n:p.n ~c:p.churn ~loss:0.3
          (Sweep.quorum_ablation ~loss:0.3 ?pool ~n:p.n ~quorums:[ 1; 2; 3; 4; 5; 6 ]
             ~c:p.churn ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"repair" ~enum:"e21" ~doc:"read-repair ablation (regular vs atomic reads)"
      { base with n = 10; horizon = 800; seed = 47 }
      (fun ?pool p ->
        Tables.read_repair ~n:p.n
          (Sweep.read_repair_ablation ?pool ~n:p.n ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"calibration" ~enum:"e22" ~doc:"believed vs actual delta calibration (actual = --delta)"
      { base with delta = 6; horizon = 900; seed = 53 }
      (fun ?pool p ->
        Tables.delta_calibration ~n:p.n ~actual:p.delta
          (Sweep.delta_calibration ?pool ~n:p.n ~actual:p.delta
             ~believed:[ 2; 4; 6; 9; 12 ]
             ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"sessions" ~enum:"e23" ~doc:"churn process shape at an equal average rate"
      { base with n = 30; horizon = 900; seed = 59 }
      (fun ?pool p ->
        Tables.session_models ~n:p.n ~delta:p.delta
          (Sweep.session_models ?pool ~n:p.n ~delta:p.delta ~mean:15.0 ~horizon:p.horizon
             ~seed:p.seed ()));
    one ~id:"nemesis" ~enum:"e24" ~doc:"fault-plan matrix: each nemesis vs each protocol"
      { base with n = 10; horizon = 240; seed = 61 }
      (fun ?pool p ->
        Tables.nemesis_matrix ~n:p.n ~delta:p.delta
          (Sweep.nemesis_matrix ?pool ~n:p.n ~delta:p.delta ~horizon:p.horizon ~seed:p.seed ()));
    one ~id:"shard" ~enum:"e25"
      ~doc:"sharded key-space: throughput/latency vs shard count x churn x skew"
      { base with n = 10; keys = 512; horizon = 600; seed = 67 }
      (fun ?pool p ->
        Tables.shard_scaling ~protocol:"sync" ~n:p.n ~keys:p.keys ~horizon:p.horizon
          (Sweep.shard_scaling ?pool ~protocol:"sync" ~n:p.n ~delta:p.delta
             ~shards:[ 1; 2; 4; 8 ]
             ~skews:[ 0.0; 1.0 ]
             ~churns:[ 0.0; 0.02 ]
             ~keys:p.keys ~read_rate:p.read_rate ~write_every:p.write_every
             ~horizon:p.horizon ~seed:p.seed ()));
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
