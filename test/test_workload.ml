(* Tests for the workload layer: the random generator, the table
   renderer, and (smoke-level, small parameters) every experiment
   runner, asserting the qualitative shape each experiment exists to
   show. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_workload

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int

module Sync_d = Deployment.Make (Sync_register)
module G = Generator.Make (Sync_d)

(* ------------------------------------------------------------------ *)
(* Generator *)

let sync_deploy ?(seed = 3) ?(churn = 0.0) () =
  Sync_d.create
    (Deployment.default_config ~seed ~n:10 ~delay:(Delay.synchronous ~delta:3)
       ~churn_rate:churn)
    (Sync_register.default_params ~delta:3)

let test_generator_rates () =
  let d = sync_deploy () in
  G.run d { Generator.read_rate = 2.0; write_every = 10; start = time 1; until = time 100 };
  Sync_d.run_until d (time 120);
  let h = Sync_d.history d in
  (* read_rate 2.0 over 100 ticks: exactly 200 reads (integer part is
     deterministic). Writes at ticks 10,20,...,100: 10 writes. *)
  check_int "reads" 200 (List.length (History.completed_reads h));
  check_int "writes" 10 (List.length (History.completed_writes h))

let test_generator_fractional_rate () =
  let d = sync_deploy () in
  G.run d { Generator.read_rate = 0.5; write_every = 0; start = time 1; until = time 400 };
  Sync_d.run_until d (time 420);
  let reads = List.length (History.completed_reads (Sync_d.history d)) in
  (* Bernoulli(0.5) per tick over 400 ticks: expect ~200, loose bounds. *)
  check_bool "fractional rate honoured" true (reads > 120 && reads < 280);
  check_int "write_every=0 disables writes" 0
    (List.length (History.completed_writes (Sync_d.history d)))

let test_generator_distinct_write_data () =
  let d = sync_deploy () in
  G.run d { Generator.read_rate = 0.0; write_every = 5; start = time 1; until = time 200 };
  Sync_d.run_until d (time 220);
  let report = Sync_d.regularity d in
  check_bool "distinct data" true report.Regularity.distinct_data;
  check_bool "sequential writes" true report.Regularity.writes_sequential

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  scan 0

let test_report_rendering () =
  let r =
    Report.make ~title:"demo" ~headers:[ "a"; "bb" ] ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; Report.cell_float 1.5 ] ]
  in
  let s = Format.asprintf "%a" Report.pp r in
  check_bool "title present" true (contains s "== demo ==");
  check_bool "cells present" true (contains s "333");
  check_bool "note present" true (contains s "a note");
  check Alcotest.string "int cell" "42" (Report.cell_int 42);
  check Alcotest.string "nan cell" "-" (Report.cell_float Float.nan);
  check Alcotest.string "bool cell" "yes" (Report.cell_bool true)

(* ------------------------------------------------------------------ *)
(* Experiment runners: small-parameter smoke tests asserting shape *)

let test_lemma2_shape () =
  let rows = Sweep.lemma2 ~n:20 ~delta:2 ~ratios:[ 0.3; 0.8 ] ~horizon:200 ~seed:1 () in
  check_int "two rows" 2 (List.length rows);
  List.iter
    (fun (r : Sweep.lemma2_row) ->
      check_bool "min positive below threshold" true (r.Sweep.l2_measured_min > 0);
      check_bool "instant >= window" true
        (r.Sweep.l2_instant_min >= r.Sweep.l2_measured_min))
    rows

let test_sync_safety_cliff () =
  let rows =
    Sweep.sync_safety ~on_empty:Sync_register.Adopt_bottom ~n:20 ~delta:3
      ~ratios:[ 0.5; 3.0 ]
      ~seeds:[ 1; 2; 3 ]
      ~horizon:300 ()
  in
  match rows with
  | [ below; above ] ->
    check_int "clean below threshold" 0 below.Sweep.sf_violations;
    check_bool "violations above threshold" true (above.Sweep.sf_violations > 0)
  | _ -> Alcotest.fail "expected two rows"

let test_sync_latency_bounds () =
  let delta = 4 in
  let rows = Sweep.sync_latency ~n:15 ~delta ~c:0.01 ~horizon:400 ~seed:2 in
  List.iter
    (fun (r : Sweep.latency_row) ->
      let s = r.Sweep.lat_stats in
      if Stats.count s > 0 then
        match r.Sweep.lat_op with
        | "join" -> check_bool "join <= 3 delta" true (Stats.max_value s <= float_of_int (3 * delta))
        | "read" -> check (Alcotest.float 1e-9) "read = 0" 0.0 (Stats.max_value s)
        | "write" -> check (Alcotest.float 1e-9) "write = delta" (float_of_int delta) (Stats.max_value s)
        | _ -> ())
    rows

let test_async_series_monotone () =
  let rows = Sweep.async_series ~horizons:[ 300; 900 ] () in
  match rows with
  | [ a; b ] ->
    check_bool "staleness grows" true (b.Sweep.as_max_staleness > a.Sweep.as_max_staleness)
  | _ -> Alcotest.fail "expected two rows"

let test_es_boundary_fail_safe () =
  let rows = Sweep.es_boundary ~n:8 ~rates:[ 0.0; 0.2 ] ~horizon:300 ~seed:4 () in
  match rows with
  | [ calm; storm ] ->
    check_int "no violations calm" 0 calm.Sweep.bd_violations;
    check_int "no violations under erosion either (fail-safe)" 0 storm.Sweep.bd_violations;
    check_bool "liveness lost under erosion" true
      (storm.Sweep.bd_pending + storm.Sweep.bd_aborted > 0)
  | _ -> Alcotest.fail "expected two rows"

let test_abd_versus_shape () =
  let rows = Sweep.abd_vs_dynamic ~n:12 ~delta:3 ~c:0.03 ~horizon:600 ~seed:5 () in
  let find p = List.find (fun (r : Sweep.versus_row) -> r.Sweep.vs_protocol = p) rows in
  let abd = find "abd" and sync = find "sync" and es = find "es" in
  check_bool "abd freezes early" true
    (abd.Sweep.vs_last_completed_at < sync.Sweep.vs_last_completed_at);
  check_bool "dynamic protocols keep going" true
    (sync.Sweep.vs_completed > (10 * abd.Sweep.vs_completed)
    && es.Sweep.vs_completed > (10 * abd.Sweep.vs_completed));
  check_int "nobody violates" 0
    (abd.Sweep.vs_violations + sync.Sweep.vs_violations + es.Sweep.vs_violations)

let test_msg_complexity_formulas () =
  let rows = Sweep.msg_complexity ~ns:[ 10 ] ~delta:3 ~seed:6 () in
  let find p = List.find (fun (r : Sweep.msg_row) -> r.Sweep.mc_protocol = p) rows in
  let sync = find "sync" in
  (* Fast reads cost nothing; a write is one broadcast = n transmissions. *)
  check (Alcotest.float 1e-9) "sync read free" 0.0 sync.Sweep.mc_per_read;
  check (Alcotest.float 1e-9) "sync write = n" 10.0 sync.Sweep.mc_per_write;
  let es = find "es" in
  (* ES read: broadcast (n) + n replies + n acks = 3n with all active. *)
  check (Alcotest.float 1e-9) "es read = 3n" 30.0 es.Sweep.mc_per_read;
  check_bool "es write costs more than read" true
    (es.Sweep.mc_per_write > es.Sweep.mc_per_read)

let test_timed_quorum_decay_shape () =
  let rows = Sweep.timed_quorum ~n:20 ~cs:[ 0.01; 0.1 ] ~lifetime:15 ~trials:100 ~seed:7 () in
  match rows with
  | [ slow; fast ] ->
    check_bool "hold rate decreases with churn" true
      (slow.Sweep.tq_hold_rate >= fast.Sweep.tq_hold_rate);
    check_bool "measured tracks expectation" true
      (Float.abs (slow.Sweep.tq_measured_survivors -. slow.Sweep.tq_expected_survivors)
      < 2.0)
  | _ -> Alcotest.fail "expected two rows"

let test_churn_threshold_sanity () =
  let rows = Sweep.churn_threshold ~n:16 ~deltas:[ 2 ] ~seeds:[ 1; 2 ] ~horizon:200 () in
  match rows with
  | [ r ] ->
    check_bool "empirical threshold positive" true (r.Sweep.th_empirical > 0.0);
    check_bool "at least half the paper bound" true
      (r.Sweep.th_empirical >= 0.5 *. r.Sweep.th_paper_bound)
  | _ -> Alcotest.fail "expected one row"

let test_bursty_churn_shape () =
  let rows = Sweep.bursty_churn ~n:20 ~delta:3 ~seeds:[ 1; 2; 3 ] ~horizon:400 () in
  (match rows with
  | constant :: _ ->
    check_int "constant profile at 0.6x bound is clean" 0 constant.Sweep.br_violations
  | [] -> Alcotest.fail "no rows");
  let worst = List.nth rows (List.length rows - 1) in
  check_bool "worst burst breaks safety or liveness" true
    (worst.Sweep.br_violations + worst.Sweep.br_stuck_joins > 0)

(* E14 runs 10-tick bursts every 40 ticks, each profile aiming at 0.6x
   the bound on average. A peak of more than 4x that target cannot be
   offset by a non-negative base rate, so its profile's base is 0 and
   its average exceeds the target: each row must report its own
   profile's time average, not the target. *)
let test_bursty_avg_is_time_average () =
  let delta = 3 and period = 40.0 and burst = 10.0 in
  let target = 0.6 /. (3.0 *. float_of_int delta) in
  let rows = Sweep.bursty_churn ~n:12 ~delta ~seeds:[ 1 ] ~horizon:150 () in
  List.iter
    (fun (r : Sweep.burst_row) ->
      let peak = r.Sweep.br_peak_c in
      let expected =
        if r.Sweep.br_label = "constant" then peak
        else
          let base = Float.max 0.0 (((target *. period) -. (peak *. burst)) /. (period -. burst)) in
          ((base *. (period -. burst)) +. (peak *. burst)) /. period
      in
      check (Alcotest.float 1e-12) r.Sweep.br_label expected r.Sweep.br_avg_c)
    rows;
  check_bool "the 3.2x burst averages above the target" true
    (List.exists (fun (r : Sweep.burst_row) -> r.Sweep.br_avg_c > target +. 1e-9) rows)

let test_message_loss_shape () =
  let rows = Sweep.message_loss ~n:10 ~delta:3 ~losses:[ 0.0; 0.25 ] ~horizon:300 ~seed:8 () in
  let get proto loss =
    List.find
      (fun (r : Sweep.loss_row) -> r.Sweep.ls_protocol = proto && r.Sweep.ls_loss = loss)
      rows
  in
  check_int "sync clean without loss" 0 (get "sync" 0.0).Sweep.ls_violations;
  check_int "es clean without loss" 0 (get "es" 0.0).Sweep.ls_violations;
  check_bool "sync loses safety under loss" true ((get "sync" 0.25).Sweep.ls_violations > 0);
  let es_lossy = get "es" 0.25 in
  check_int "es never violates" 0 es_lossy.Sweep.ls_violations;
  check_bool "es loses liveness instead" true
    (es_lossy.Sweep.ls_completed < (get "es" 0.0).Sweep.ls_completed)

let test_geo_speed_shape () =
  let rows = Sweep.geo_speed ~speeds:[ 1.0; 16.0 ] ~horizon:400 ~seed:5 () in
  match rows with
  | [ slow; fast ] ->
    check_bool "churn grows with speed" true (fast.Sweep.geo_churn > slow.Sweep.geo_churn);
    check_bool "slow zone is alive" true (slow.Sweep.geo_joins > 20);
    check_int "fast zone starves joins" 0 fast.Sweep.geo_joins;
    check_int "never corrupt" 0 (slow.Sweep.geo_violations + fast.Sweep.geo_violations)
  | _ -> Alcotest.fail "expected two rows"

let test_quorum_ablation_shape () =
  let rows =
    Sweep.quorum_ablation ~loss:0.3 ~n:10 ~quorums:[ 1; 6 ] ~c:0.01 ~horizon:800 ~seed:1 ()
  in
  match rows with
  | [ tiny; majority ] ->
    check_bool "tiny quorum goes stale" true (tiny.Sweep.qa_violations > 0);
    check_int "majority quorum never stale" 0 majority.Sweep.qa_violations;
    check_bool "majority pays liveness under loss" true
      (majority.Sweep.qa_completed < tiny.Sweep.qa_completed)
  | _ -> Alcotest.fail "expected two rows"

let test_session_models_shape () =
  let rows = Sweep.session_models ~n:20 ~delta:3 ~mean:15.0 ~horizon:600 ~seed:59 () in
  let find prefix =
    List.find
      (fun (r : Sweep.session_row) ->
        String.length r.Sweep.ss_model >= String.length prefix
        && String.sub r.Sweep.ss_model 0 (String.length prefix) = prefix)
      rows
  in
  check_int "constant model clean" 0 (find "constant").Sweep.ss_violations;
  check_int "geometric model clean" 0 (find "geometric").Sweep.ss_violations;
  check_bool "synchronized cohorts break the register" true
    ((find "fixed").Sweep.ss_violations > 100);
  check_int "synchronized cohorts empty the window" 0 (find "fixed").Sweep.ss_min_window

let test_delta_calibration_shape () =
  let rows =
    Sweep.delta_calibration ~n:15 ~actual:6 ~believed:[ 3; 6; 10 ] ~horizon:500 ~seed:53 ()
  in
  match rows with
  | [ under; exact; over ] ->
    check_bool "underestimating violates" true (under.Sweep.cb_violations > 0);
    check_int "exact is safe" 0 exact.Sweep.cb_violations;
    check_int "overestimating is safe" 0 over.Sweep.cb_violations;
    check_bool "overestimating is slower" true (over.Sweep.cb_join_mean > exact.Sweep.cb_join_mean)
  | _ -> Alcotest.fail "expected three rows"

let test_join_wait_optimization_shape () =
  let rows = Sweep.join_wait_optimization ~n:12 ~delta:6 ~p2ps:[ 1 ] ~horizon:400 ~seed:9 () in
  match rows with
  | [ baseline; optimized ] ->
    check_bool "optimized joins faster" true
      (optimized.Sweep.jo_join_mean < baseline.Sweep.jo_join_mean);
    check_int "baseline safe" 0 baseline.Sweep.jo_violations;
    check_int "optimized safe" 0 optimized.Sweep.jo_violations
  | _ -> Alcotest.fail "expected two rows"

(* Every registered table, rendered at the bench's --quick scale, must
   produce rows whose width matches its header — guards against column
   drift as experiments evolve. *)
let test_tables_column_consistency () =
  List.iter
    (fun (e : Experiment.t) ->
      let tables = e.Experiment.run (Experiment.quick e.Experiment.defaults) in
      check_bool (e.Experiment.id ^ " renders a table") true (tables <> []);
      List.iter
        (fun (r : Report.t) ->
          let w = List.length r.Report.headers in
          check_bool r.Report.title true
            (r.Report.rows <> [] && List.for_all (fun row -> List.length row = w) r.Report.rows))
        tables)
    Experiment.all

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

let names (e : Experiment.t) = e.Experiment.id :: e.Experiment.enum :: e.Experiment.aliases

let test_registry_names_unique () =
  let all = List.concat_map names Experiment.all in
  List.iter
    (fun name ->
      check_int (Printf.sprintf "%S named once" name) 1
        (List.length (List.filter (String.equal name) all)))
    all

let test_registry_covers_e_numbers () =
  for i = 1 to 25 do
    let e = Printf.sprintf "e%d" i in
    let owners = List.filter (fun x -> List.mem e (names x)) Experiment.all in
    check_int (e ^ " has exactly one entry") 1 (List.length owners);
    match Experiment.find e with
    | Ok found -> check_bool (e ^ " resolves to its entry") true (found == List.hd owners)
    | Error msg -> Alcotest.failf "%s: %s" e msg
  done

let test_registry_find_ignores_case () =
  List.iter
    (fun (e : Experiment.t) ->
      List.iter
        (fun name ->
          match Experiment.find name with
          | Ok found -> check_bool name true (found == e)
          | Error msg -> Alcotest.failf "%s: %s" name msg)
        [
          e.Experiment.id;
          String.uppercase_ascii e.Experiment.id;
          String.capitalize_ascii e.Experiment.id;
          e.Experiment.enum;
          String.uppercase_ascii e.Experiment.enum;
        ])
    Experiment.all

let test_registry_unknown_lists_ids () =
  match Experiment.find "e99" with
  | Ok _ -> Alcotest.fail "e99 resolved"
  | Error msg ->
    let mentions id =
      let n = String.length id and l = String.length msg in
      let rec at i = i + n <= l && (String.sub msg i n = id || at (i + 1)) in
      at 0
    in
    List.iter
      (fun (e : Experiment.t) ->
        check_bool (e.Experiment.id ^ " listed") true (mentions e.Experiment.id))
      Experiment.all

let () =
  Alcotest.run "dds_workload"
    [
      ( "generator",
        [
          Alcotest.test_case "rates" `Quick test_generator_rates;
          Alcotest.test_case "fractional rate" `Quick test_generator_fractional_rate;
          Alcotest.test_case "distinct write data" `Quick test_generator_distinct_write_data;
        ] );
      ("report", [ Alcotest.test_case "rendering" `Quick test_report_rendering ]);
      ( "registry",
        [
          Alcotest.test_case "names pairwise unique" `Quick test_registry_names_unique;
          Alcotest.test_case "E1-E25 each resolve once" `Quick test_registry_covers_e_numbers;
          Alcotest.test_case "find ignores case" `Quick test_registry_find_ignores_case;
          Alcotest.test_case "unknown name lists every id" `Quick test_registry_unknown_lists_ids;
        ] );
      ( "tables",
        [ Alcotest.test_case "column consistency" `Slow test_tables_column_consistency ] );
      ( "sweeps",
        [
          Alcotest.test_case "E4 lemma2 shape" `Quick test_lemma2_shape;
          Alcotest.test_case "E5 safety cliff" `Slow test_sync_safety_cliff;
          Alcotest.test_case "E6 latency bounds" `Quick test_sync_latency_bounds;
          Alcotest.test_case "E7 async monotone" `Quick test_async_series_monotone;
          Alcotest.test_case "E9 fail safe" `Quick test_es_boundary_fail_safe;
          Alcotest.test_case "E10 abd versus" `Slow test_abd_versus_shape;
          Alcotest.test_case "E11 msg formulas" `Quick test_msg_complexity_formulas;
          Alcotest.test_case "E12 quorum decay" `Quick test_timed_quorum_decay_shape;
          Alcotest.test_case "E13 threshold sanity" `Slow test_churn_threshold_sanity;
          Alcotest.test_case "E14 bursty shape" `Slow test_bursty_churn_shape;
          Alcotest.test_case "E14 avg c is each profile's time average" `Quick
            test_bursty_avg_is_time_average;
          Alcotest.test_case "E15 loss shape" `Quick test_message_loss_shape;
          Alcotest.test_case "E16 join wait" `Quick test_join_wait_optimization_shape;
          Alcotest.test_case "E19 geo speed" `Slow test_geo_speed_shape;
          Alcotest.test_case "E22 delta calibration" `Slow test_delta_calibration_shape;
          Alcotest.test_case "E23 session models" `Slow test_session_models_shape;
          Alcotest.test_case "E20 quorum ablation" `Slow test_quorum_ablation_shape;
        ] );
    ]
