(* Tests for the sharded multi-register key-space: placement
   (lib/shard), the skewed workload generator (Dds_workload.Skew) and
   sharded runs through Harness.run_shards — routing conservation
   (every key owns exactly one shard and the per-shard op counts sum to
   the plan), issue accounting under churn, determinism under reseeding
   (placement never moves, only traffic), span-id disjointness, tagged
   trace round-trips, per-shard REGULAR verdicts, and the offline audit
   agreeing with each shard's in-run monitors. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_workload
module Shard = Dds_shard.Shard

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int
let sync = Protocol.find_exn "sync"
let sync_8 = Harness.instance_exn sync ~n:8 ~delta:3

let base_config ?(seed = 7) ?(churn = 0.0) ?(events = false) () =
  {
    (Deployment.default_config ~seed ~n:8 ~delay:(Delay.synchronous ~delta:3)
       ~churn_rate:churn)
    with
    Deployment.events_enabled = events;
  }

let plan ?(keys = 64) ?(s = 1.0) ?(seed = 11) ?(until = 300) ?(read_rate = 1.0)
    ?(write_every = 10) ?storm ?(rotate_every = 0) () =
  Skew.plan ~rng:(Rng.create ~seed)
    { (Skew.default ~keys ~s ~until:(time until)) with
      Skew.read_rate; write_every; storm; rotate_every }

(* A sharded sync store, n = 8 per shard, driven by [ops] up to
   [horizon], drained 60 ticks. *)
let run_store ?(shards = 4) ?seed ?churn ?events ?monitor ?(horizon = 300) ops =
  Harness.run_shards sync_8
    (base_config ?seed ?churn ?events ())
    ~shards
    { Harness.horizon; drain = 60; workload = Harness.Plan ops; monitor }
    []

let routed shards = List.fold_left (fun acc (n, _) -> acc + n) 0 shards

(* ------------------------------------------------------------------ *)
(* qcheck properties: routing *)

(* Every key routes to exactly one shard, inside [0, shards). *)
let prop_route_in_range =
  QCheck2.Test.make ~name:"route lands in [0, shards)" ~count:500
    QCheck2.Gen.(pair (int_range 1 64) int)
    (fun (shards, key) ->
      let s = Shard.route ~shards ~key in
      0 <= s && s < shards)

(* Placement is a pure function of the key: the same key asked twice,
   or asked through stores built from different seeds, lands on the
   same shard (reseeding moves the traffic, never the placement). *)
let prop_route_deterministic =
  QCheck2.Test.make ~name:"routing is seed-independent and repeatable" ~count:200
    QCheck2.Gen.(triple (int_range 1 32) int (int_range 0 10_000))
    (fun (shards, key, _seed) ->
      Shard.route ~shards ~key = Shard.route ~shards ~key)

(* Conservation through a store: the per-shard routed counts sum to
   the generator's total, i.e. hashing partitions the plan, never
   duplicating or dropping an op, and every shard gets exactly the ops
   whose keys route to it. *)
let prop_counts_conserve =
  QCheck2.Test.make ~name:"per-shard op counts sum to the plan total" ~count:25
    QCheck2.Gen.(triple (int_range 1 8) (int_range 1 128) (int_range 0 10_000))
    (fun (shards, keys, seed) ->
      let ops = plan ~keys ~seed ~until:120 () in
      let store = run_store ~shards ~seed ~horizon:120 ops in
      let owned s = List.filter (fun (o : Shard.op) -> Shard.route ~shards ~key:o.Shard.key = s) ops in
      routed store = List.length ops
      && List.for_all Fun.id (List.mapi (fun s (n, _) -> n = List.length (owned s)) store))

(* The issue-time invariant under churn, per shard: every issued op
   (the op.read + op.write counters) is an op of the shard's history,
   and the skipped ones (routed - issued) are never negative. *)
let prop_issue_conserves =
  QCheck2.Test.make ~name:"scheduled = issued + skipped under churn" ~count:10
    QCheck2.Gen.(pair (int_range 1 6) (int_range 0 10_000))
    (fun (shards, seed) ->
      let ops = plan ~seed ~until:200 () in
      let store = run_store ~shards ~seed ~churn:0.03 ~horizon:200 ops in
      routed store = List.length ops
      && List.for_all
           (fun (n, (r : Harness.result)) ->
             let in_history =
               List.length
                 (List.filter
                    (fun (o : History.op) ->
                      match o.History.kind with
                      | History.Read _ | History.Write _ -> true
                      | History.Join _ -> false)
                    (History.ops r.Harness.history))
             in
             Harness.issued r = in_history && Harness.issued r <= n)
           store)

(* ------------------------------------------------------------------ *)
(* qcheck properties: the skewed generator *)

(* The plan is a pure function of (seed, config). *)
let prop_plan_deterministic =
  QCheck2.Test.make ~name:"plan is a pure function of seed and config" ~count:25
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 64))
    (fun (seed, keys) -> plan ~keys ~seed () = plan ~keys ~seed ())

(* Every drawn key is in range, and the histogram totals the plan. *)
let prop_plan_keys_in_range =
  QCheck2.Test.make ~name:"plan keys are in [0, keys) and histogram totals" ~count:25
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 64))
    (fun (seed, keys) ->
      let ops = plan ~keys ~seed () in
      let hist = Skew.key_histogram ops ~keys in
      List.for_all (fun (o : Shard.op) -> 0 <= o.Shard.key && o.Shard.key < keys) ops
      && Array.fold_left ( + ) 0 hist = List.length ops)

(* ------------------------------------------------------------------ *)
(* Unit: skew shape, storms, rotation *)

let test_zipf_skew () =
  (* At s = 1.2 the most popular key dwarfs the median; at s = 0 the
     histogram is flat-ish. Compare top-1 shares. *)
  let share s =
    let ops = plan ~keys:32 ~s ~seed:5 ~until:2000 () in
    let hist = Skew.key_histogram ops ~keys:32 in
    let top = Array.fold_left Stdlib.max 0 hist in
    float_of_int top /. float_of_int (List.length ops)
  in
  let flat = share 0.0 and skewed = share 1.2 in
  check_bool "uniform top-1 share small" true (flat < 0.10);
  check_bool "zipf concentrates" true (skewed > 2.0 *. flat)

let test_storm_redirects () =
  let storm =
    { Skew.storm_start = time 1; storm_until = time 500; storm_bias = 0.9 }
  in
  let ops = plan ~keys:64 ~s:0.0 ~seed:5 ~until:499 ~storm () in
  let hist = Skew.key_histogram ops ~keys:64 in
  let top = Array.fold_left Stdlib.max 0 hist in
  (* 90% of a uniform stream redirected to one key: its share must be
     dominant (loose bound, the rest is uniform noise). *)
  check_bool "storm concentrates on the hot key" true
    (float_of_int top /. float_of_int (List.length ops) > 0.6)

let test_rotation_moves_hot_key () =
  let hot until rotate_every =
    let ops = plan ~keys:16 ~s:2.0 ~seed:5 ~until ~rotate_every () in
    let hist = Skew.key_histogram ops ~keys:16 in
    let hot = ref 0 in
    Array.iteri (fun k n -> if n > hist.(!hot) then hot := k) hist;
    !hot
  in
  (* Without rotation the hot key of the first half is the hot key of
     the whole run; with aggressive rotation the mass spreads, so the
     top key's identity (almost surely) differs from the static one. *)
  let static = hot 400 0 in
  let rotated =
    let ops = plan ~keys:16 ~s:2.0 ~seed:5 ~until:400 ~rotate_every:25 () in
    let hist = Skew.key_histogram ops ~keys:16 in
    float_of_int (Array.fold_left Stdlib.max 0 hist)
    /. float_of_int (List.length ops)
  in
  let static_share =
    let ops = plan ~keys:16 ~s:2.0 ~seed:5 ~until:400 () in
    let hist = Skew.key_histogram ops ~keys:16 in
    float_of_int hist.(static) /. float_of_int (List.length ops)
  in
  check_bool "rotation flattens the histogram" true (rotated < static_share)

(* ------------------------------------------------------------------ *)
(* Unit: the store end to end *)

let regular (r : Harness.result) = Regularity.is_ok r.Harness.regularity

let test_store_regular_per_shard () =
  let store = run_store ~shards:4 ~churn:0.02 (plan ()) in
  check_int "4 shard results" 4 (List.length store);
  List.iteri
    (fun s (_, r) -> check_bool (Printf.sprintf "shard %d regular" s) true (regular r))
    store;
  check_bool "work was issued" true
    (List.fold_left (fun acc (_, r) -> acc + Harness.issued r) 0 store > 0)

let test_store_same_plan_any_shard_count () =
  (* The identical plan re-partitions across shard counts: total
     routed is invariant. *)
  let ops = plan ~until:100 () in
  List.iter
    (fun shards ->
      check_int "total invariant" (List.length ops)
        (routed (run_store ~shards ~horizon:100 ops)))
    [ 1; 2; 4; 8 ]

let test_span_bases_disjoint () =
  let tagged = Harness.tagged_events (run_store ~shards:3 ~events:true (plan ~until:100 ())) in
  (* Span ids from different shards must live in disjoint 1M bands. *)
  check_bool "events recorded" true (tagged <> []);
  List.iter
    (fun ((shard, ev) : int option * Event.stamped) ->
      let s = Option.get shard in
      match ev.Event.ev with
      | Event.Op_start { span; _ }
      | Event.Op_phase { span; _ }
      | Event.Op_end { span; _ }
      | Event.Quorum_progress { span; _ } ->
        check_int (Printf.sprintf "span %d in shard %d band" span s) s (span / 1_000_000)
      | _ -> ())
    tagged

let parse_tagged text =
  match Export.events_of_jsonl text with
  | Error e -> Alcotest.failf "tagged parse: %s" e
  | Ok (_, w :: _) -> Alcotest.failf "tagged parse truncated: %s" w
  | Ok (back, []) -> back

let test_tagged_export_roundtrip () =
  let tagged = Harness.tagged_events (run_store ~shards:3 ~events:true (plan ~until:100 ())) in
  let back = parse_tagged (Export.jsonl_of_tagged_events tagged) in
  check_int "round-trip count" (List.length tagged) (List.length back);
  List.iter2
    (fun (s1, (e1 : Event.stamped)) (s2, (e2 : Event.stamped)) ->
      check_bool "tag preserved" true (s1 = s2);
      check_bool "timestamp preserved" true (Time.compare e1.Event.at e2.Event.at = 0))
    tagged back

(* Differential: each shard's in-run verdict (Harness's live monitors
   and regularity check) equals the offline audit of that shard's
   slice of the exported tagged trace. Churn 0.15 is past sync's bound
   1/(3 delta) = 0.111, so the churn monitor has findings to agree on. *)
let test_audit_matches_run () =
  let monitor = Harness.monitor_config sync ~n:8 ~delta:3 in
  let store = run_store ~shards:3 ~churn:0.15 ~monitor (plan ~until:200 ()) ~horizon:200 in
  let back = parse_tagged (Export.jsonl_of_tagged_events (Harness.tagged_events store)) in
  check_bool "the run is past the churn bound" true
    (List.exists (fun (_, r) -> r.Harness.findings <> []) store);
  List.iteri
    (fun s (_, (r : Harness.result)) ->
      let slice = List.filter_map (fun (t, ev) -> if t = Some s then Some ev else None) back in
      let a = Harness.audit monitor ~initial:0 slice in
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "shard %d findings" s)
        (List.map (Format.asprintf "%a" Dds_monitor.Monitor.pp_violation) r.Harness.findings)
        (List.map (Format.asprintf "%a" Dds_monitor.Monitor.pp_violation) a.Harness.findings);
      check_bool (Printf.sprintf "shard %d regularity" s) true
        (r.Harness.regularity = a.Harness.regularity))
    store

let test_shard_table_columns () =
  let e = Result.get_ok (Experiment.find "shard") in
  let t =
    List.hd
      (e.Experiment.run
         { e.Experiment.defaults with Experiment.n = 6; keys = 32; write_every = 10; horizon = 100;
           seed = 3 })
  in
  let w = List.length t.Report.headers in
  check_bool "rows match header width" true
    (t.Report.rows <> [] && List.for_all (fun r -> List.length r = w) t.Report.rows);
  let rows =
    Sweep.shard_scaling ~protocol:"sync" ~n:6 ~delta:3 ~shards:[ 1; 2 ] ~skews:[ 1.0 ]
      ~churns:[ 0.0 ] ~keys:32 ~read_rate:1.0 ~write_every:10 ~horizon:100 ~seed:3 ()
  in
  (* Hashing spreads the plan: with 2 shards nobody owns everything. *)
  match rows with
  | [ one; two ] ->
    check_bool "1 shard owns all" true (one.Sweep.sh_hot_frac = 1.0);
    check_bool "2 shards split" true (two.Sweep.sh_hot_frac < 1.0);
    check_bool "both regular" true (one.Sweep.sh_regular && two.Sweep.sh_regular)
  | _ -> Alcotest.fail "expected two rows"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_shard"
    [
      qsuite "routing properties"
        [ prop_route_in_range; prop_route_deterministic; prop_counts_conserve;
          prop_issue_conserves ];
      qsuite "skew properties" [ prop_plan_deterministic; prop_plan_keys_in_range ];
      ( "skew",
        [
          Alcotest.test_case "zipf concentrates" `Quick test_zipf_skew;
          Alcotest.test_case "storm redirects" `Quick test_storm_redirects;
          Alcotest.test_case "rotation moves the hot key" `Quick test_rotation_moves_hot_key;
        ] );
      ( "store",
        [
          Alcotest.test_case "regular per shard under churn" `Quick
            test_store_regular_per_shard;
          Alcotest.test_case "plan invariant across shard counts" `Quick
            test_store_same_plan_any_shard_count;
          Alcotest.test_case "span bases disjoint" `Quick test_span_bases_disjoint;
          Alcotest.test_case "tagged export round-trip" `Quick test_tagged_export_roundtrip;
          Alcotest.test_case "audit agrees with each shard's run" `Quick
            test_audit_matches_run;
          Alcotest.test_case "E25 table columns" `Quick test_shard_table_columns;
        ] );
    ]
