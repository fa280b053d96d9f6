open Dds_sim

(** Parameter-sweep experiment runners.

    One function per experiment of the DESIGN.md index (E4–E25). Each
    returns typed rows, which the experiment's {!Experiment} entry
    renders. All runners are deterministic in their [seed]/[seeds]
    arguments.

    Every simulated register run goes through {!Harness.run} (E25's
    sharded store through {!Harness.run_shards}), except where Harness
    cannot express the run: E15, E17 and E20 install seeded
    per-message loss on the network, and E23's session rows replace
    the constant-rate churn process.

    Every multi-cell runner takes [?pool]: given a
    {!Dds_engine.Pool.t}, its independent (seed, params) cells run as
    engine jobs and the rows come back in canonical submission order,
    so the output is byte-identical to the sequential run for any
    worker count. Without a pool the cells run inline. *)

(** {1 E4 — Lemma 2's continuously-active-set bound} *)

type lemma2_row = {
  l2_c : float;  (** churn rate *)
  l2_ratio : float;  (** c as a fraction of the 1/(3 delta) threshold *)
  l2_bound : float;  (** the paper's bound n (1 - 3 delta c) *)
  l2_measured_min : int;  (** empirical min over tau of |A(tau, tau+3delta)| *)
  l2_instant_min : int;  (** empirical min over tau of |A(tau)| *)
}

val lemma2 :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  ratios:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  lemma2_row list
(** Full synchronous-protocol deployments (joins take up to 3 delta,
    so the steady-state active set sits {e below} n) under adversarial
    Active_first churn at [ratio / (3 delta)] each. *)

(** {1 E5 — synchronous safety across the churn threshold} *)

type safety_row = {
  sf_ratio : float;  (** c relative to 1/(3 delta) *)
  sf_c : float;
  sf_runs : int;
  sf_violations : int;  (** total violating reads+joins across runs *)
  sf_runs_with_violation : int;
  sf_join_retries : int;  (** empty inquiry rounds (above-threshold symptom) *)
  sf_incomplete_joins : int;  (** joins pending at horizon *)
}

val sync_safety :
  ?on_empty:Dds_core.Sync_register.empty_inquiry_behavior ->
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  ratios:float list ->
  seeds:int list ->
  horizon:int ->
  unit ->
  safety_row list
(** [on_empty] (default [Retry]) picks what a joiner does when an
    inquiry round returns nothing: [Adopt_bottom] is the paper's
    literal Figure 1 and exhibits the safety cliff above the
    threshold; [Retry] trades it for a liveness failure (retry
    counts in [sf_join_retries]). *)

(** {1 E6 / E8 — operation latencies} *)

type latency_row = {
  lat_protocol : string;
  lat_phase : string;  (** "sync", "pre-GST", "post-GST", ... *)
  lat_op : string;  (** "join" | "read" | "write" *)
  lat_stats : Stats.t;  (** latencies in ticks *)
}

val sync_latency : n:int -> delta:int -> c:float -> horizon:int -> seed:int -> latency_row list
(** E6: join <= 3 delta, write = delta, read = 0 (Lemma 1's bounds). *)

val es_latency :
  n:int -> gst:int -> delta:int -> wild:int -> horizon:int -> seed:int -> latency_row list
(** E8: rows for operations invoked before vs after GST. *)

(** {1 E7 — the asynchronous impossibility curve} *)

type async_row = {
  as_horizon : int;
  as_completed_writes : int;
  as_max_staleness : int;
  as_mean_staleness : float;
}

val async_series : ?pool:Dds_engine.Pool.t -> horizons:int list -> unit -> async_row list

(** {1 E9 — ES liveness at the majority boundary} *)

type boundary_row = {
  bd_c : float;
  bd_completed : int;
  bd_pending : int;  (** operations blocked at the horizon *)
  bd_aborted : int;
  bd_min_active : int;  (** worst instantaneous |A(tau)| *)
  bd_majority : int;  (** the n/2+1 the protocol needs *)
  bd_violations : int;
}

val es_boundary :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  rates:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  boundary_row list

(** {1 E10 — static ABD vs the dynamic protocols under churn} *)

type versus_row = {
  vs_protocol : string;
  vs_completed : int;
  vs_pending : int;
  vs_violations : int;
  vs_last_completed_at : int;  (** tick of the last successful operation *)
  vs_founders_alive_at_end : int;
}

val abd_vs_dynamic :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  c:float ->
  horizon:int ->
  seed:int ->
  unit ->
  versus_row list

(** {1 E11 — message complexity} *)

type msg_row = {
  mc_protocol : string;
  mc_n : int;
  mc_per_read : float;  (** point-to-point transmissions per operation *)
  mc_per_write : float;
  mc_per_join : float;
}

val msg_complexity :
  ?pool:Dds_engine.Pool.t -> ns:int list -> delta:int -> seed:int -> unit -> msg_row list

(** {1 E12 — timed quorums (Section 7 future work)} *)

type tq_row = {
  tq_c : float;
  tq_size : int;
  tq_lifetime : int;
  tq_hold_rate : float;  (** fraction of quorums still majority-alive *)
  tq_expected_survivors : float;  (** analytic size (1-c)^lifetime *)
  tq_measured_survivors : float;
  tq_intersect_rate : float;  (** two same-aged quorums still intersect *)
}

val timed_quorum :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  cs:float list ->
  lifetime:int ->
  trials:int ->
  seed:int ->
  unit ->
  tq_row list

(** {1 E13 — the greatest tolerable churn (Section 7's open question)} *)

type threshold_row = {
  th_delta : int;
  th_paper_bound : float;  (** 1 / (3 delta) *)
  th_empirical : float;
      (** largest c (granularity {!th_step}) with zero violations and
          zero non-terminating joins across all probe seeds *)
  th_step : float;
  th_ratio : float;  (** empirical / paper bound *)
}

val churn_threshold :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  deltas:int list ->
  seeds:int list ->
  horizon:int ->
  unit ->
  threshold_row list
(** Scans c upward (paper-literal adopt-bottom joins, adversarial
    Active_first departures) until a safety violation or a stuck join
    appears, per delta. Answers the paper's "can the greatest value of
    c be characterized?" empirically: how much slack the analysis
    leaves against this adversary. *)

(** {1 E14 — bursty churn: how robust is the constant-c analysis?} *)

type burst_row = {
  br_label : string;
  br_avg_c : float;  (** the profile's time-averaged churn rate ({!Dds_churn.Churn.mean_rate}) *)
  br_peak_c : float;
  br_violations : int;
  br_stuck_joins : int;
  br_runs : int;
}

val bursty_churn :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  seeds:int list ->
  horizon:int ->
  unit ->
  burst_row list
(** Profiles aiming at one average rate (0.6x the bound) with
    increasing peakedness; a peak too high to offset with a
    non-negative base rate averages above that. The paper's bound
    constrains the {e constant} rate, and bursts whose peak exceeds
    the threshold break the protocol even when the average sits well
    below it. *)

(** {1 E15 — message loss (outside the paper's reliable-network model)} *)

type loss_row = {
  ls_protocol : string;
  ls_loss : float;  (** per-message drop probability *)
  ls_completed : int;
  ls_pending : int;
  ls_violations : int;
}

val message_loss :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  losses:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  loss_row list
(** Fault injection: each message is independently dropped with the
    given probability. The sync protocol's timer-based waits keep
    "succeeding" and safety erodes; the quorum-based ES protocol loses
    liveness instead. Both behaviours are outside the paper's model —
    this quantifies how load-bearing the reliable-network assumption
    is. *)

(** {1 E16 — footnote 4: the delta + delta' join optimization} *)

type join_opt_row = {
  jo_variant : string;
  jo_p2p : int;  (** the point-to-point bound delta' *)
  jo_join_mean : float;
  jo_join_max : float;
  jo_joins : int;
  jo_violations : int;
}

val join_wait_optimization :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  p2ps:int list ->
  horizon:int ->
  seed:int ->
  unit ->
  join_opt_row list
(** Runs the synchronous protocol over a split-bound network
    ({!Dds_net.Delay.synchronous_split}) with the inquiry wait
    shortened to [delta + delta'], against the unoptimized [2 delta]
    baseline; joins get faster, safety must stay intact. *)

(** {1 E17 — implementing the broadcast: primitive vs flooding} *)

type broadcast_row = {
  bc_mode : string;
  bc_loss : float;
  bc_completed : int;
  bc_violations : int;
  bc_transmissions : int;
}

val broadcast_robustness :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  losses:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  broadcast_row list
(** The synchronous register over the postulated one-shot broadcast vs
    the flooding implementation ({!Dds_net.Network.broadcast_mode}),
    with the per-message fault injector sweeping link-loss rates. Same
    effective delta in both modes. *)

(** {1 E18 — consensus from the registers (the introduction's application)} *)

type consensus_row = {
  cn_c : float;
  cn_protected : bool;  (** participants shielded from churn *)
  cn_present : int;  (** processes in the system at the horizon *)
  cn_decided : int;  (** processes that learned the decision *)
  cn_attempts : int;  (** alpha attempts launched *)
  cn_first_decision : int option;  (** tick of the first decision *)
  cn_agreement : bool;
  cn_validity : bool;
}

val consensus_under_churn :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  k:int ->
  cs:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  consensus_row list
(** Omega + alpha over the dynamic register array: one consensus
    instance per churn rate with protected participants, plus a final
    unprotected run at the highest rate (leaders then crash
    mid-attempt; safety must hold regardless). *)

(** {1 E19 — the churn bound as a speed limit (Section 2.1's wireless zone)} *)

type geo_row = {
  geo_speed : float;  (** walker speed, distance units per tick *)
  geo_churn : float;  (** measured emergent churn rate *)
  geo_threshold_ratio : float;  (** emergent c relative to 1/(3 delta) *)
  geo_mean_population : float;
  geo_joins : int;  (** joins that completed *)
  geo_reads : int;
  geo_violations : int;
}

val geo_speed :
  ?pool:Dds_engine.Pool.t ->
  speeds:float list ->
  horizon:int ->
  seed:int ->
  unit ->
  geo_row list
(** Random-waypoint walkers crossing a radio zone that hosts the
    synchronous register: zone crossings are the joins/leaves, so the
    churn rate is an emergent function of speed. Below the threshold
    the register hums; above it nodes transit faster than the 3*delta
    join and the zone goes silent — the paper's bound as physics. *)

(** {1 E20 — quorum-size ablation: majority is the safety boundary} *)

type quorum_row = {
  qa_quorum : int;  (** the threshold every ES wait uses *)
  qa_majority : int;  (** what the paper prescribes *)
  qa_completed : int;
  qa_pending : int;
  qa_violations : int;
  qa_inversions : int;
}

val quorum_ablation :
  ?loss:float ->
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  quorums:int list ->
  c:float ->
  horizon:int ->
  seed:int ->
  unit ->
  quorum_row list
(** The ES protocol with its majority threshold replaced by arbitrary
    quorum sizes. On a reliable network the full WRITE broadcast hides
    the difference (every replica converges within delta); [loss]
    injects per-message drops so dissemination is partial and quorum
    {e intersection} becomes load-bearing: below the majority, a
    write's ack set and a later read's reply set can miss each other
    and stale reads appear; at and above it they cannot. *)

(** {1 E21 — the regular-to-atomic transformation, in the dynamic system} *)

type repair_row = {
  rp_variant : string;
  rp_scenario_inversions : int;  (** in the constructed E21 execution *)
  rp_run_inversions : int;  (** in a randomized churn run *)
  rp_read_mean : float;  (** mean read latency in that run, ticks *)
  rp_violations : int;
}

val read_repair_ablation :
  ?pool:Dds_engine.Pool.t -> n:int -> horizon:int -> seed:int -> unit -> repair_row list
(** The ES register with and without {!Dds_core.Es_register.params}'
    [read_repair]: the constructed inversion must vanish, randomized
    runs stay inversion-free, and the price is one extra round trip
    per read — the introduction's "same computational power" claim
    exercised in the churn setting. *)

(** {1 E22 — delta mis-calibration: what the synchrony assumption buys} *)

type calibration_row = {
  cb_believed : int;  (** the delta the protocol's waits use *)
  cb_actual : int;  (** the network's true bound *)
  cb_violations : int;
  cb_join_mean : float;
  cb_joins : int;
}

val delta_calibration :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  actual:int ->
  believed:int list ->
  horizon:int ->
  seed:int ->
  unit ->
  calibration_row list
(** The synchronous protocol run with a wrong belief about delta.
    Underestimating it re-creates the asynchronous impossibility in
    miniature (waits expire before evidence arrives: stale joins and
    reads); overestimating is safe and merely slows every join and
    write down — the protocol consumes the bound, it cannot detect
    it. *)

(** {1 E23 — session-lifetime churn: testing the paper's citation of [19]} *)

type session_row = {
  ss_model : string;
  ss_mean_session : float;  (** ticks; the common average across models *)
  ss_measured_c : float;  (** emergent churn rate *)
  ss_checked : int;
  ss_violations : int;
  ss_stuck_joins : int;
  ss_min_window : int;  (** min |A(tau, tau+3delta)| over the run *)
}

val session_models :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  mean:float ->
  horizon:int ->
  seed:int ->
  unit ->
  session_row list
(** The synchronous register (paper-literal joins) under four churn
    processes with the same average rate: the paper's constant-rate
    refresh, and three session-lifetime models after Ko et al. [19] —
    fixed (fully synchronized departures), geometric (memoryless) and
    Pareto (heavy-tailed, as measured in deployed P2P systems). *)

(** {1 E24 — nemesis fault matrix: within-model vs assumption-breaking} *)

type nemesis_row = {
  nm_plan : string;  (** the plan in [Nemesis.to_string] syntax *)
  nm_profile : string;  (** ["within"] or ["breaking"] *)
  nm_protocol : string;
  nm_injected : int;  (** faults actually applied *)
  nm_findings : int;  (** monitor findings + regularity violations *)
  nm_flagged : bool;
}

val nemesis_matrix :
  ?pool:Dds_engine.Pool.t ->
  n:int ->
  delta:int ->
  horizon:int ->
  seed:int ->
  unit ->
  nemesis_row list
(** Six fixed nemesis plans (duplicates, minority crash-with-recovery,
    single-process storm; one-way majority partition, over-delta
    delay, majority crash) against the sync and es registers, each run
    judged by the protocol's theorem-matched monitors plus the
    regularity checker. Within-model rows must come back unflagged;
    breaking rows demonstrate which assumption each protocol leans
    on. *)

(** {1 E25 — sharded key-space scaling} *)

type shard_row = {
  sh_shards : int;
  sh_skew : float;  (** zipf exponent s *)
  sh_churn : float;  (** per-shard churn rate *)
  sh_scheduled : int;  (** plan ops routed (sum over shards) *)
  sh_issued : int;  (** ops that found an idle process *)
  sh_completed : int;  (** reads + writes that responded *)
  sh_throughput : float;  (** completed ops per tick *)
  sh_read_stats : Stats.t;  (** read latency, ticks *)
  sh_write_stats : Stats.t;
  sh_hot_frac : float;  (** hottest shard's share of the plan *)
  sh_regular : bool;  (** every shard's register is regular *)
}

val shard_scaling :
  ?pool:Dds_engine.Pool.t ->
  protocol:string ->
  n:int ->
  delta:int ->
  shards:int list ->
  skews:float list ->
  churns:float list ->
  keys:int ->
  read_rate:float ->
  write_every:int ->
  horizon:int ->
  seed:int ->
  unit ->
  shard_row list
(** The full (shards x skew x churn) matrix over the named registry
    protocol: each cell draws one zipfian plan ({!Skew.plan}, the same
    per seed+skew regardless of shard count), hash-routes it across
    [shards] independent per-shard deployments of [n] processes each
    ({!Harness.run_shards}), runs them under per-shard churn, and reports
    store-wide throughput, latency and the conjunction of the
    per-shard regularity verdicts.
    @raise Invalid_argument on an unknown protocol name. *)
