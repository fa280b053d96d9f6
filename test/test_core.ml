(* Tests for the register protocols (synchronous, eventually
   synchronous, ABD baseline) and the deployment wiring, including the
   paper's constructed executions (Figure 3, the new/old inversion). *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_workload

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int
let pid = Pid.of_int

module Sync_d = Deployment.Make (Sync_register)
module Es_d = Deployment.Make (Es_register)
module Abd_d = Deployment.Make (Abd_register)

let sync_cfg ?(seed = 7) ?(n = 5) ?(delta = 3) ?(churn = 0.0) () =
  Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta) ~churn_rate:churn

let sync_params ?(delta = 3) () = Sync_register.default_params ~delta

let value_of (o : History.op) =
  match o.History.kind with
  | History.Read v | History.Join v -> v
  | History.Write v -> Some v

let data_of o = Option.map (fun v -> v.Value.data) (value_of o)

(* ------------------------------------------------------------------ *)
(* Synchronous protocol *)

let test_sync_founders_active () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  check_int "n active at t=0" 5 (Dds_churn.Membership.n_active (Sync_d.membership d));
  check_bool "writer designated" true (Sync_d.writer d <> None);
  (* A founding member holds the initial value. *)
  match Sync_d.node d (pid 1) with
  | Some node ->
    check_bool "holds initial" true
      (match Sync_register.snapshot node with
      | Some v -> Value.equal v (Value.initial 0)
      | None -> false)
  | None -> Alcotest.fail "founder missing"

let test_sync_read_is_fast () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Sync_d.read d (pid 1)));
  Sync_d.run_until d (time 20);
  match History.completed_reads (Sync_d.history d) with
  | [ r ] ->
    check Alcotest.(option int) "zero latency" (Some 5)
      (Option.map Time.to_int r.History.responded);
    check Alcotest.(option int) "initial value" (Some 0) (data_of r)
  | _ -> Alcotest.fail "expected one read"

let test_sync_write_latency_and_visibility () =
  let delta = 3 in
  let d = Sync_d.create (sync_cfg ~delta ()) (sync_params ~delta ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d (pid 0)));
  (* Strictly after the write completes, every member must return it. *)
  ignore (Scheduler.schedule_at sched (time 14) (fun () -> Sync_d.read d (pid 4)));
  Sync_d.run_until d (time 40);
  let h = Sync_d.history d in
  (match History.completed_writes h with
  | [ w ] ->
    check Alcotest.(option int) "write takes delta" (Some (10 + delta))
      (Option.map Time.to_int w.History.responded)
  | _ -> Alcotest.fail "expected one write");
  (match History.completed_reads h with
  | [ r ] -> check Alcotest.(option int) "fresh value" (Some 1) (data_of r)
  | _ -> Alcotest.fail "expected one read");
  check_bool "regular" true (Regularity.is_ok (Sync_d.regularity d))

let test_sync_concurrent_read_legal () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d (pid 0)));
  (* During the write window some member may still return the old value. *)
  ignore (Scheduler.schedule_at sched (time 11) (fun () -> Sync_d.read d (pid 3)));
  Sync_d.run_until d (time 40);
  check_bool "still regular" true (Regularity.is_ok (Sync_d.regularity d))

let test_sync_join_adopts_latest () =
  let delta = 3 in
  let d = Sync_d.create (sync_cfg ~delta ()) (sync_params ~delta ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Sync_d.write d (pid 0)));
  (* Spawn well after the write completed: the join must adopt it. *)
  ignore (Scheduler.schedule_at sched (time 20) (fun () -> ignore (Sync_d.spawn d)));
  Sync_d.run_until d (time 60);
  match History.completed_joins (Sync_d.history d) with
  | [ j ] ->
    check Alcotest.(option int) "join adopted latest" (Some 1) (data_of j);
    let latency = Time.diff (Option.get j.History.responded) j.History.invoked in
    check_bool "join within 3 delta" true (latency <= 3 * delta);
    check_bool "regular incl. join" true (Regularity.is_ok (Sync_d.regularity d))
  | _ -> Alcotest.fail "expected one join"

let test_sync_join_fast_path_on_concurrent_write () =
  (* A write broadcast lands during the joiner's initial wait: the
     joiner skips the inquiry round entirely and activates at delta. *)
  let delta = 5 in
  let cfg =
    { (sync_cfg ~delta ()) with Deployment.delay = Delay.adversarial (fun _ -> 1) }
  in
  let d = Sync_d.create cfg (sync_params ~delta ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> ignore (Sync_d.spawn d)));
  ignore (Scheduler.schedule_at sched (time 11) (fun () -> Sync_d.write d (pid 0)));
  Sync_d.run_until d (time 40);
  match History.completed_joins (Sync_d.history d) with
  | [ j ] ->
    check Alcotest.(option int) "activated at exactly delta" (Some (10 + delta))
      (Option.map Time.to_int j.History.responded);
    check Alcotest.(option int) "adopted the in-flight write" (Some 1) (data_of j)
  | _ -> Alcotest.fail "expected one join"

let test_sync_joiner_answers_postponed_inquiries () =
  (* Two concurrent joiners: the second's inquiry reaches the first
     while the first is still joining; the first must reply after it
     activates, and both must end with the correct value. *)
  let delta = 3 in
  let d = Sync_d.create (sync_cfg ~delta ~n:3 ()) (sync_params ~delta ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> ignore (Sync_d.spawn d)));
  ignore (Scheduler.schedule_at sched (time 11) (fun () -> ignore (Sync_d.spawn d)));
  Sync_d.run_until d (time 60);
  let joins = History.completed_joins (Sync_d.history d) in
  check_int "both joins completed" 2 (List.length joins);
  List.iter
    (fun j -> check Alcotest.(option int) "correct value" (Some 0) (data_of j))
    joins

let test_sync_churn_below_threshold_safe () =
  (* c = 1/(6 delta), half the bound; adversarial Active_first leaves;
     steady reads and writes for 400 ticks. Expect: no safety
     violation, no join retries. *)
  let delta = 3 and n = 20 in
  let c = 1.0 /. (6.0 *. float_of_int delta) in
  let cfg =
    {
      (sync_cfg ~seed:11 ~n ~delta ~churn:c ()) with
      Deployment.churn_policy = Dds_churn.Churn.Active_first;
    }
  in
  let d = Sync_d.create cfg (sync_params ~delta ()) in
  let module G = Generator.Make (Sync_d) in
  Sync_d.start_churn d ~until:(time 400);
  G.run d { Generator.read_rate = 1.0; write_every = 15; start = time 1; until = time 400 };
  Sync_d.run_until d (time 450);
  let report = Sync_d.regularity d in
  check_bool "no violations" true (Regularity.is_ok report);
  check_bool "plenty of reads checked" true (report.Regularity.checked_reads > 200);
  check_bool "joins happened and were checked" true (report.Regularity.checked_joins > 20)

let test_sync_deployment_determinism () =
  let run () =
    let d = Sync_d.create (sync_cfg ~seed:99 ~churn:0.05 ()) (sync_params ()) in
    let module G = Generator.Make (Sync_d) in
    Sync_d.start_churn d ~until:(time 200);
    G.run d (Generator.default ~until:(time 200));
    Sync_d.run_until d (time 220);
    List.map
      (fun (o : History.op) ->
        (Pid.to_int o.History.pid, Time.to_int o.History.invoked, data_of o))
      (History.ops (Sync_d.history d))
  in
  check_bool "same seed, same history" true (run () = run ())

let test_sync_join_retries_when_system_empties () =
  (* All founders leave before a joiner's inquiry can be answered: the
     (hardened) joiner re-inquires forever instead of activating. *)
  let d = Sync_d.create (sync_cfg ~n:3 ()) (sync_params ()) in
  let sched = Sync_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         List.iter (fun i -> Sync_d.retire d (pid i)) [ 0; 1; 2 ]));
  let joiner = ref None in
  ignore (Scheduler.schedule_at sched (time 6) (fun () -> joiner := Some (Sync_d.spawn d)));
  Sync_d.run_until d (time 200);
  let j = Option.get !joiner in
  (match Sync_d.node d j with
  | Some node ->
    check_bool "never active" false (Sync_register.is_active node);
    check_bool "kept retrying" true (Sync_register.join_retries node > 3)
  | None -> Alcotest.fail "joiner disappeared");
  check_int "retry metric counted" (Sync_register.join_retries (Option.get (Sync_d.node d j)))
    (Dds_sim.Metrics.get (Sync_d.metrics d) "sync.join.retry");
  check_int "join pending forever" 1 (List.length (History.pending (Sync_d.history d)))

let test_sync_adopt_bottom_violates () =
  (* Same situation under the paper-literal policy: the joiner
     activates holding bottom and its read is a detectable violation. *)
  let params = { (sync_params ()) with Sync_register.on_empty_inquiry = Sync_register.Adopt_bottom } in
  let d = Sync_d.create (sync_cfg ~n:3 ()) params in
  let sched = Sync_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         List.iter (fun i -> Sync_d.retire d (pid i)) [ 0; 1; 2 ]));
  let joiner = ref None in
  ignore (Scheduler.schedule_at sched (time 6) (fun () -> joiner := Some (Sync_d.spawn d)));
  ignore
    (Scheduler.schedule_at sched (time 100) (fun () ->
         match !joiner with Some j -> Sync_d.read d j | None -> ()));
  Sync_d.run_until d (time 200);
  (match Sync_d.node d (Option.get !joiner) with
  | Some node ->
    check_bool "active with bottom" true (Sync_register.is_active node);
    check_bool "snapshot is bottom" true
      (match Sync_register.snapshot node with Some v -> Value.is_bottom v | None -> false)
  | None -> Alcotest.fail "joiner disappeared");
  let report = Sync_d.regularity d in
  check_bool "bottom read + join flagged" true
    (List.length report.Regularity.violations >= 1)

let test_sync_over_flooding_broadcast () =
  (* The protocol over the *implemented* broadcast: per-hop bound 2,
     depth 2, protocol delta = 4 — still regular under churn. *)
  let cfg =
    {
      (Deployment.default_config ~seed:61 ~n:12 ~delay:(Delay.synchronous ~delta:2)
         ~churn_rate:0.03)
      with
      Deployment.broadcast_mode = Network.Flooding { relay_depth = 2 };
    }
  in
  let d = Sync_d.create cfg (sync_params ~delta:4 ()) in
  let module G = Generator.Make (Sync_d) in
  Sync_d.start_churn d ~until:(time 300);
  G.run d { Generator.read_rate = 0.5; write_every = 20; start = time 1; until = time 300 };
  Sync_d.run_until d (time 340);
  check_bool "regular over flooding" true (Regularity.is_ok (Sync_d.regularity d));
  check_bool "relays occurred" true
    (Dds_sim.Metrics.get (Sync_d.metrics d) "net.relayed" > 0)

let test_es_whitebox_read_state () =
  let cfg =
    Deployment.default_config ~seed:13 ~n:10 ~delay:(Delay.synchronous ~delta:3)
      ~churn_rate:0.0
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  let node () = Option.get (Es_d.node d (pid 2)) in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Es_d.read d (pid 2);
         check_bool "reading flag set" true (Es_register.is_reading (node ()));
         check_int "read_sn bumped" 1 (Es_register.read_sn (node ()));
         check_bool "busy" true (Es_register.busy (node ()))));
  Es_d.run_until d (time 60);
  check_bool "reading flag cleared" false (Es_register.is_reading (node ()));
  check_bool "gathered at least a majority" true (Es_register.replies_gathered (node ()) >= 6);
  ignore
    (Scheduler.schedule_at sched (time 70) (fun () -> Es_d.read d (pid 2)));
  Es_d.run_until d (time 130);
  check_int "read_sn monotone" 2 (Es_register.read_sn (node ()))

(* ------------------------------------------------------------------ *)
(* Figure 3 and the inversion scenarios *)

let test_fig3a_violation () =
  let o = Scenario.fig3 ~join_wait:false in
  check Alcotest.(option int) "joiner adopted stale 0" (Some 0)
    (Option.map (fun v -> v.Value.data) o.Scenario.join_value);
  check Alcotest.(option int) "read returned stale 0" (Some 0)
    (Option.map (fun v -> v.Value.data) o.Scenario.read_value);
  check_int "exactly one violation" 1
    (List.length o.Scenario.report.Regularity.violations);
  (* The violating operation is the read, not the join: adopting the old
     value was legal (the write was concurrent with the join). *)
  match o.Scenario.report.Regularity.violations with
  | [ v ] ->
    check_bool "violation is a read" true
      (match v.Regularity.op.History.kind with History.Read _ -> true | _ -> false)
  | _ -> ()

let test_fig3b_correct () =
  let o = Scenario.fig3 ~join_wait:true in
  check Alcotest.(option int) "joiner adopted fresh 1" (Some 1)
    (Option.map (fun v -> v.Value.data) o.Scenario.join_value);
  check Alcotest.(option int) "read returned 1" (Some 1)
    (Option.map (fun v -> v.Value.data) o.Scenario.read_value);
  check_bool "no violations" true (Regularity.is_ok o.Scenario.report)

let test_inversion_scenario () =
  let o = Scenario.inversion () in
  check Alcotest.(option int) "fast read saw new value" (Some 2)
    (Option.map (fun v -> v.Value.data) o.Scenario.fast_read);
  check Alcotest.(option int) "slow read saw old value" (Some 1)
    (Option.map (fun v -> v.Value.data) o.Scenario.slow_read);
  check_int "one inversion" 1 (List.length o.Scenario.inversions);
  check_bool "yet regular" true (Regularity.is_ok o.Scenario.report)

let test_es_inversion_and_read_repair () =
  let plain = Scenario.es_inversion ~read_repair:false () in
  check Alcotest.(option int) "informed reader saw new" (Some 1)
    (Option.map (fun v -> v.Value.data) plain.Scenario.fast_read);
  check Alcotest.(option int) "cut-off reader saw old" (Some 0)
    (Option.map (fun v -> v.Value.data) plain.Scenario.slow_read);
  check_int "quorum protocol inverts too" 1 (List.length plain.Scenario.inversions);
  check_bool "yet regular" true (Regularity.is_ok plain.Scenario.report);
  let repaired = Scenario.es_inversion ~read_repair:true () in
  check_int "read-repair removes the inversion" 0
    (List.length repaired.Scenario.inversions);
  check Alcotest.(option int) "second reader now sees new" (Some 1)
    (Option.map (fun v -> v.Value.data) repaired.Scenario.slow_read)

let test_async_staleness_grows () =
  let short = Scenario.async_staleness ~horizon:500 in
  let long = Scenario.async_staleness ~horizon:2000 in
  check_bool "stale at all" true (short.Scenario.staleness.Staleness.max_staleness > 3);
  check_bool "staleness grows with horizon" true
    (long.Scenario.staleness.Staleness.max_staleness
    >= 2 * short.Scenario.staleness.Staleness.max_staleness);
  check_bool "writes kept completing" true
    (long.Scenario.completed_writes > short.Scenario.completed_writes)

(* ------------------------------------------------------------------ *)
(* Eventually synchronous protocol *)

let es_cfg ?(seed = 13) ?(n = 10) ?(churn = 0.0) ?(delay = Delay.synchronous ~delta:3) () =
  Deployment.default_config ~seed ~n ~delay ~churn_rate:churn

let test_es_majority () =
  check_int "n=10 -> 6" 6 (Es_register.majority (Es_register.default_params ~n:10));
  check_int "n=9 -> 5" 5 (Es_register.majority (Es_register.default_params ~n:9));
  check_int "n=2 -> 2" 2 (Es_register.majority (Es_register.default_params ~n:2));
  check_int "override wins" 4
    (Es_register.majority
       { (Es_register.default_params ~n:10) with Es_register.quorum_override = Some 4 })

let test_es_write_read_roundtrip () =
  let d = Es_d.create (es_cfg ()) (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Es_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 50) (fun () -> Es_d.read d (pid 3)));
  Es_d.run_until d (time 100);
  let h = Es_d.history d in
  check_int "write completed" 1 (List.length (History.completed_writes h));
  (match History.completed_reads h with
  | [ r ] -> check Alcotest.(option int) "read fresh" (Some 1) (data_of r)
  | _ -> Alcotest.fail "expected one read");
  check_bool "regular" true (Regularity.is_ok (Es_d.regularity d))

let test_es_read_needs_majority_replies () =
  let d = Es_d.create (es_cfg ()) (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Es_d.read d (pid 2)));
  Es_d.run_until d (time 50);
  match History.completed_reads (Es_d.history d) with
  | [ r ] ->
    let latency = Time.diff (Option.get r.History.responded) r.History.invoked in
    (* Broadcast + reply, each <= 3 under the synchronous test delay. *)
    check_bool "read took a round trip" true (latency >= 2 && latency <= 6)
  | _ -> Alcotest.fail "expected one read"

let test_es_join_adopts_latest () =
  let d = Es_d.create (es_cfg ()) (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Es_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 40) (fun () -> ignore (Es_d.spawn d)));
  Es_d.run_until d (time 120);
  match History.completed_joins (Es_d.history d) with
  | [ j ] ->
    check Alcotest.(option int) "join adopted latest" (Some 1) (data_of j);
    check_bool "regular incl. join" true (Regularity.is_ok (Es_d.regularity d))
  | _ -> Alcotest.fail "expected one join"

let test_es_concurrent_joins_unblock_each_other () =
  (* Several simultaneous joiners: DL_PREV bookkeeping must let all of
     them finish (Lemma 5's mechanism). *)
  let d = Es_d.create (es_cfg ~n:6 ()) (Es_register.default_params ~n:6) in
  let sched = Es_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 10) (fun () ->
         ignore (Es_d.spawn d);
         ignore (Es_d.spawn d);
         ignore (Es_d.spawn d)));
  Es_d.run_until d (time 200);
  check_int "all three joins completed" 3
    (List.length (History.completed_joins (Es_d.history d)))

let test_es_write_embeds_read () =
  (* Writes from different nodes must still produce strictly increasing
     sequence numbers thanks to the embedded read phase. *)
  let d = Es_d.create (es_cfg ()) (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Es_d.write_value d (pid 0) 101));
  ignore (Scheduler.schedule_at sched (time 60) (fun () -> Es_d.write_value d (pid 5) 102));
  ignore (Scheduler.schedule_at sched (time 120) (fun () -> Es_d.read d (pid 8)));
  Es_d.run_until d (time 200);
  let h = Es_d.history d in
  let writes = History.completed_writes h in
  check_int "two writes" 2 (List.length writes);
  let sns =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.kind with History.Write v -> Some v.Value.sn | _ -> None)
      writes
  in
  Alcotest.(check (list int)) "sns strictly increase" [ 1; 2 ] sns;
  (match History.completed_reads h with
  | [ r ] -> check Alcotest.(option int) "read sees second write" (Some 102) (data_of r)
  | _ -> Alcotest.fail "expected one read");
  check_bool "regular" true (Regularity.is_ok (Es_d.regularity d))

let test_es_pre_gst_still_safe_and_live () =
  (* Wild delays before GST at t=300: operations take long but finish,
     and safety never wavers. *)
  let delay = Delay.eventually_synchronous ~gst:(time 300) ~delta:3 ~wild:40 in
  let d = Es_d.create (es_cfg ~seed:21 ~delay ()) (Es_register.default_params ~n:10) in
  let module G = Generator.Make (Es_d) in
  G.run d { Generator.read_rate = 0.2; write_every = 60; start = time 1; until = time 600 };
  Es_d.run_until d (time 800);
  let report = Es_d.regularity d in
  check_bool "regular throughout" true (Regularity.is_ok report);
  check_bool "reads completed" true (report.Regularity.checked_reads > 50);
  check_int "nothing pending at horizon" 0
    (List.length (History.pending (Es_d.history d)))

let test_es_churn_with_majority_safe () =
  (* Churn well within the assumption: 10 nodes, c = 0.01 (one refresh
     every 10 ticks), synchronous-speed delays. *)
  let d =
    Es_d.create
      { (es_cfg ~seed:31 ~churn:0.01 ()) with Deployment.protect_writer = true }
      (Es_register.default_params ~n:10)
  in
  let module G = Generator.Make (Es_d) in
  Es_d.start_churn d ~until:(time 500);
  G.run d { Generator.read_rate = 0.5; write_every = 40; start = time 1; until = time 500 };
  Es_d.run_until d (time 700);
  let report = Es_d.regularity d in
  check_bool "regular under churn" true (Regularity.is_ok report);
  check_bool "joins checked" true (report.Regularity.checked_joins >= 3)

let test_es_blocks_without_active_majority () =
  (* Retire actives until fewer than a majority remain: a read must
     block forever (liveness loss, not corruption). *)
  let d = Es_d.create (es_cfg ~n:5 ()) (Es_register.default_params ~n:5) in
  let sched = Es_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Es_d.retire d (pid 1);
         Es_d.retire d (pid 2);
         Es_d.retire d (pid 3)));
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Es_d.read d (pid 4)));
  Es_d.run_until d (time 300);
  let h = Es_d.history d in
  check_int "read still pending" 1 (List.length (History.pending h));
  check_int "no read completed" 0 (List.length (History.completed_reads h))

(* ------------------------------------------------------------------ *)
(* ABD baseline *)

let abd_cfg ?(seed = 41) ?(n = 7) ?(churn = 0.0) () =
  Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta:3) ~churn_rate:churn

let test_abd_write_read () =
  let d = Abd_d.create (abd_cfg ()) (Abd_register.default_params ~group_size:7) in
  let sched = Abd_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Abd_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 40) (fun () -> Abd_d.read d (pid 3)));
  Abd_d.run_until d (time 100);
  (match History.completed_reads (Abd_d.history d) with
  | [ r ] -> check Alcotest.(option int) "fresh read" (Some 1) (data_of r)
  | _ -> Alcotest.fail "expected one read");
  check_bool "regular" true (Regularity.is_ok (Abd_d.regularity d))

let test_abd_atomic_with_write_back () =
  let d = Abd_d.create (abd_cfg ~seed:43 ()) (Abd_register.default_params ~group_size:7) in
  let module G = Generator.Make (Abd_d) in
  G.run d { Generator.read_rate = 0.5; write_every = 25; start = time 1; until = time 400 };
  Abd_d.run_until d (time 500);
  check_bool "regular" true (Regularity.is_ok (Abd_d.regularity d));
  check_int "no inversions (atomic)" 0
    (List.length (Atomicity.inversions (Abd_d.history d)))

let test_abd_joiner_reads_through_group () =
  let d = Abd_d.create (abd_cfg ()) (Abd_register.default_params ~group_size:7) in
  let sched = Abd_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Abd_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 30) (fun () -> ignore (Abd_d.spawn d)));
  Abd_d.run_until d (time 100);
  match History.completed_joins (Abd_d.history d) with
  | [ j ] -> check Alcotest.(option int) "client join got value" (Some 1) (data_of j)
  | _ -> Alcotest.fail "expected one join"

let test_abd_blocks_once_majority_left () =
  (* Retire 4 of 7 founders: every subsequent operation blocks. *)
  let d = Abd_d.create (abd_cfg ()) (Abd_register.default_params ~group_size:7) in
  let sched = Abd_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         List.iter (fun i -> Abd_d.retire d (pid i)) [ 1; 2; 3; 4 ]));
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Abd_d.read d (pid 5)));
  ignore (Scheduler.schedule_at sched (time 15) (fun () -> Abd_d.write d (pid 0)));
  Abd_d.run_until d (time 400);
  let h = Abd_d.history d in
  check_int "both ops pending forever" 2 (List.length (History.pending h));
  check_int "none completed" 0
    (List.length (History.completed_reads h) + List.length (History.completed_writes h))

let test_abd_write_back_ablation () =
  (* Without the read's write-back phase ABD degrades from atomic to
     regular: while a write is still collecting acknowledgements, a
     fast replica answers one reader with the new value and a slow
     quorum answers a later reader with the old one — a new/old
     inversion. Write-back propagates the read value to a majority
     first, restoring atomicity. The delay schedule (n = 5, writer p0,
     fast replica p1, isolated reader p4):
     - p0's broadcasts crawl to everyone but p0/p1;
     - anything p0 or p1 sends p4 crawls;
     - p1's point-to-point messages to p0 crawl (stalling the ack
       quorum, so the write stays in flight across both reads). *)
  let slow = 100 in
  let delay (dec : Delay.decision) =
    let src = Pid.to_int dec.Delay.src and dst = Pid.to_int dec.Delay.dst in
    if src = 0 && dec.Delay.kind = Delay.Broadcast && dst <> 0 && dst <> 1 then slow
    else if src = 1 && dst = 0 then slow
    else if (src = 0 || src = 1) && dst = 4 then slow
    else 1
  in
  let run ~write_back =
    let cfg =
      Deployment.default_config ~seed:67 ~n:5 ~delay:(Delay.adversarial delay)
        ~churn_rate:0.0
    in
    let d =
      Abd_d.create cfg { Abd_register.group_size = 5; read_write_back = write_back }
    in
    let sched = Abd_d.scheduler d in
    ignore (Scheduler.schedule_at sched (time 10) (fun () -> Abd_d.write d (pid 0)));
    ignore (Scheduler.schedule_at sched (time 120) (fun () -> Abd_d.read d (pid 1)));
    ignore (Scheduler.schedule_at sched (time 130) (fun () -> Abd_d.read d (pid 4)));
    Abd_d.run_until d (time 500);
    let h = Abd_d.history d in
    (Regularity.is_ok (Abd_d.regularity d), List.length (Atomicity.inversions h))
  in
  let regular_no_wb, inversions_no_wb = run ~write_back:false in
  check_bool "still regular without write-back" true regular_no_wb;
  check_int "inversion without write-back" 1 inversions_no_wb;
  let regular_wb, inversions_wb = run ~write_back:true in
  check_bool "regular with write-back" true regular_wb;
  check_int "write-back restores atomicity" 0 inversions_wb

let test_es_joiner_defers_reply_to_reader () =
  (* Figure 5 lines 08-11: a joining process postpones its reply to a
     READ and delivers it upon activation. Observable as the reader
     gathering one more reply than the active population: n founders
     (all reply, including itself) + the joiner. *)
  let cfg =
    Deployment.default_config ~seed:71 ~n:4 ~delay:(Delay.adversarial (fun _ -> 2))
      ~churn_rate:0.0
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:4) in
  let sched = Es_d.scheduler d in
  (* Joiner enters first; its join (two message rounds at delay 2)
     completes at ~t5. The read starts at t2: its READ broadcast
     reaches the still-joining process, which must defer. *)
  ignore (Scheduler.schedule_at sched (time 1) (fun () -> ignore (Es_d.spawn d)));
  ignore (Scheduler.schedule_at sched (time 2) (fun () -> Es_d.read d (pid 3)));
  Es_d.run_until d (time 100);
  let h = Es_d.history d in
  check_int "read completed" 1 (List.length (History.completed_reads h));
  check_int "join completed" 1 (List.length (History.completed_joins h));
  match Es_d.node d (pid 3) with
  | Some node ->
    check_int "reader eventually heard founders + joiner" 5
      (Es_register.replies_gathered node)
  | None -> Alcotest.fail "reader missing"

let test_es_reader_dl_prev_to_joiner () =
  (* Figure 4 line 14: an active reading process sends DL_PREV along
     with its reply, so the joiner will send it a fresh value upon
     activating — even though the joiner never saw the READ broadcast
     (it entered afterwards). *)
  let cfg =
    Deployment.default_config ~seed:73 ~n:4 ~delay:(Delay.adversarial (fun _ -> 3))
      ~churn_rate:0.0
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:4) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 1) (fun () -> Es_d.read d (pid 3)));
  (* The joiner enters after the READ broadcast left: only the DL_PREV
     channel can route its reply back to the reader. *)
  ignore (Scheduler.schedule_at sched (time 2) (fun () -> ignore (Es_d.spawn d)));
  Es_d.run_until d (time 100);
  match Es_d.node d (pid 3) with
  | Some node ->
    check_int "reader heard the joiner via DL_PREV" 5
      (Es_register.replies_gathered node)
  | None -> Alcotest.fail "reader missing"

(* ------------------------------------------------------------------ *)
(* Node host *)

(* The es protocol with a [leave] that does nothing: the departed node
   stays attached and its joins, reads and writes still return, so only
   the host's own bookkeeping keeps their records aborted. *)
module Lingering = struct
  include Es_register

  let leave (_ : node) = ()
end

module Lingering_host = Node_host.Make (Lingering)
module Es_host = Node_host.Make (Es_register)

(* [n] es founders p0..p(n-1) on a fresh host over a synchronous
   network, or one whose delays an adversary picks. *)
let es_founders ~create ~found ?(delay = Delay.synchronous ~delta:3) ~n () =
  let sched = Scheduler.create () in
  let net = Network.create ~sched ~rng:(Rng.create ~seed:1) ~delay () in
  let host = create ~sched ~net ~params:(Es_register.default_params ~n) in
  for i = 0 to n - 1 do
    found host (pid i) ~on_active:ignore
  done;
  (sched, host)

let lingering_founders =
  es_founders ~create:Lingering_host.create ~found:Lingering_host.found

let test_host_departed_joiner_join_aborted () =
  let sched, host = lingering_founders ~n:5 () in
  let joiner = pid 5 and activated = ref false in
  ignore
    (Scheduler.schedule_at sched (time 1) (fun () ->
         Lingering_host.join host joiner ~on_active:(fun _ -> activated := true);
         Lingering_host.depart host joiner));
  Scheduler.run_until sched (time 50);
  let h = Lingering_host.history host in
  check_bool "on_active never fired" false !activated;
  check_int "no completed join" 0 (List.length (History.completed_joins h));
  check_int "join aborted" 1 (List.length (History.aborted h));
  check_int "nothing pending" 0 (List.length (History.pending h));
  check_bool "node gone" true (Option.is_none (Lingering_host.node host joiner))

let test_host_departure_aborts_read_and_write () =
  let sched, host = lingering_founders ~n:5 () in
  let returned = ref 0 in
  ignore
    (Scheduler.schedule_at sched (time 1) (fun () ->
         Lingering_host.write host (pid 0) 7 ~k:(fun _ -> incr returned);
         Lingering_host.read host (pid 1) ~k:(fun _ -> incr returned);
         Lingering_host.depart host (pid 0);
         Lingering_host.depart host (pid 1)));
  Scheduler.run_until sched (time 50);
  let h = Lingering_host.history host in
  check_int "no continuation fired" 0 !returned;
  check_int "no completed write" 0 (List.length (History.completed_writes h));
  check_int "no completed read" 0 (List.length (History.completed_reads h));
  check_int "both aborted" 2 (List.length (History.aborted h));
  check_int "nothing pending" 0 (List.length (History.pending h))

let test_host_write_patched_to_final_sn () =
  (* Every message from p0 to p2 takes 59 ticks, so p2 still holds sn 0
     when it writes at t = 20 and guesses sn 1; its read phase hears
     sn 1 from p1 and the write goes out with sn 2. *)
  let slow_to_p2 (d : Delay.decision) =
    if Pid.equal d.Delay.src (pid 0) && Pid.equal d.Delay.dst (pid 2) then 59 else 1
  in
  let sched, host =
    es_founders ~create:Es_host.create ~found:Es_host.found ~delay:(Delay.adversarial slow_to_p2)
      ~n:3 ()
  in
  let write_sns () =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.kind with
        | History.Write v when Pid.equal o.History.pid (pid 2) -> Some v.Value.sn
        | _ -> None)
      (History.ops (Es_host.history host))
  in
  let guessed = ref [] in
  ignore (Scheduler.schedule_at sched (time 1) (fun () -> Es_host.write host (pid 0) 1 ~k:ignore));
  ignore
    (Scheduler.schedule_at sched (time 20) (fun () ->
         Es_host.write host (pid 2) 2 ~k:ignore;
         guessed := write_sns ()));
  Scheduler.run_until sched (time 40);
  check (Alcotest.list Alcotest.int) "invocation guess" [ 1 ] !guessed;
  check (Alcotest.list Alcotest.int) "final sn" [ 2 ] (write_sns ());
  check_int "completed" 2 (List.length (History.completed_writes (Es_host.history host)))

(* ------------------------------------------------------------------ *)
(* Deployment mechanics *)

let test_deployment_abort_on_leave () =
  (* An ES read in flight when the reader leaves must be aborted, not
     counted against safety or liveness. *)
  let d = Es_d.create (es_cfg ()) (Es_register.default_params ~n:10) in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Es_d.read d (pid 2)));
  ignore (Scheduler.schedule_at sched (time 6) (fun () -> Es_d.retire d (pid 2)));
  Es_d.run_until d (time 100);
  let h = Es_d.history d in
  check_int "aborted" 1 (List.length (History.aborted h));
  check_int "not pending" 0 (List.length (History.pending h));
  check_bool "still regular" true (Regularity.is_ok (Es_d.regularity d))

let test_deployment_crash_cancels_timers () =
  (* A crash-stop mid-write: the sync writer's completion timer is
     pending in the scheduler when the process dies. Scheduler.cancel
     (via the protocol's leave) must keep it from firing — the write
     ends aborted, never responded — and the crash is attributed in
     the membership record and churn counters. *)
  let d = Sync_d.create (sync_cfg ~n:5 ()) (sync_params ()) in
  let sched = Sync_d.scheduler d in
  let w = Option.get (Sync_d.writer d) in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d w));
  (* delta = 3: the completion timer sits at t = 13 when the crash
     lands at t = 11. *)
  ignore (Scheduler.schedule_at sched (time 11) (fun () -> Sync_d.crash d w));
  Sync_d.run_until d (time 40);
  let h = Sync_d.history d in
  check_int "no completed writes" 0 (List.length (History.completed_writes h));
  check_int "write aborted" 1 (List.length (History.aborted h));
  check_int "not pending" 0 (List.length (History.pending h));
  check_int "crash counted" 1 (Metrics.get (Sync_d.metrics d) "churn.crash");
  check_bool "writer designation cleared" true (Sync_d.writer d = None);
  (* The cancelled timer must not resurrect the write after the fact:
     drain everything and re-check. *)
  Sync_d.run_to_quiescence d ();
  check_int "still no completed writes" 0 (List.length (History.completed_writes h));
  check_bool "still regular" true (Regularity.is_ok (Sync_d.regularity d))

let test_deployment_busy_and_idle_listing () =
  let d = Es_d.create (es_cfg ~n:4 ()) (Es_register.default_params ~n:4) in
  let sched = Es_d.scheduler d in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Es_d.read d (pid 1);
         check_int "busy node excluded" 3 (List.length (Es_d.idle_active d));
         check_bool "double-issue rejected" true
           (try
              Es_d.read d (pid 1);
              false
            with Invalid_argument _ -> true)));
  Es_d.run_until d (time 100);
  check_int "idle again" 4 (List.length (Es_d.idle_active d))

let test_deployment_retire_writer_clears_designation () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  let w = Option.get (Sync_d.writer d) in
  ignore (Scheduler.schedule_at (Sync_d.scheduler d) (time 1) (fun () -> Sync_d.retire d w));
  Sync_d.run_until d (time 10);
  check_bool "writer gone" true (Sync_d.writer d = None)

let test_deployment_writer_rotation () =
  (* Unprotected writer under churn: elect_writer promotes a successor
     and the (non-concurrent) writes from changing writers stay safe.
     Exercised on ES, whose write embeds a read to catch up on sn. *)
  let cfg =
    { (es_cfg ~seed:55 ~churn:0.02 ()) with Deployment.protect_writer = false }
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:10) in
  let module G = Generator.Make (Es_d) in
  Es_d.start_churn d ~until:(time 600);
  G.run d { Generator.read_rate = 0.5; write_every = 30; start = time 1; until = time 600 };
  Es_d.run_until d (time 800);
  let h = Es_d.history d in
  let writers =
    History.completed_writes h
    |> List.map (fun (o : History.op) -> Pid.to_int o.History.pid)
    |> List.sort_uniq Int.compare
  in
  check_bool "more than one writer over the run" true (List.length writers > 1);
  check_bool "still regular" true (Regularity.is_ok (Es_d.regularity d));
  (* Writes by successive writers carry strictly increasing sns. *)
  let sns =
    List.filter_map
      (fun (o : History.op) ->
        match o.History.kind with History.Write v -> Some v.Value.sn | _ -> None)
      (History.completed_writes h)
  in
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | [ _ ] | [] -> true
  in
  check_bool "sns strictly increase across writers" true (strictly_increasing sns)

let test_deployment_trace_records_lifecycle () =
  let cfg = { (sync_cfg ~churn:0.05 ()) with Deployment.events_enabled = true } in
  let d = Sync_d.create cfg (sync_params ()) in
  Sync_d.start_churn d ~until:(time 60);
  Sync_d.run_until d (time 80);
  let has p =
    List.exists (fun (st : Event.stamped) -> p st.Event.at st.Event.ev)
      (Event.events (Sync_d.events d))
  in
  check_bool "churn joins" true
    (has (fun at -> function Event.Node_join _ -> Time.to_int at > 0 | _ -> false));
  check_bool "leaves" true (has (fun _ -> function Event.Node_leave _ -> true | _ -> false));
  check_bool "deliveries" true (has (fun _ -> function Event.Deliver _ -> true | _ -> false))

let test_history_csv_export () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 5) (fun () -> Sync_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.read d (pid 1)));
  Sync_d.run_until d (time 30);
  let csv = History.to_csv (Sync_d.history d) in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check_int "header + 2 ops" 3 (List.length lines);
  check Alcotest.string "header" "id,pid,kind,data,sn,invoked,responded,aborted"
    (List.hd lines);
  check_bool "write row" true
    (List.exists (fun l -> String.length l > 0 && String.sub l 0 9 = "0,0,write") lines);
  check_bool "read row" true
    (List.exists
       (fun l -> String.length l > 8 && String.sub l 0 8 = "1,1,read")
       lines)

let test_deployment_ops_on_unknown_rejected () =
  let d = Sync_d.create (sync_cfg ()) (sync_params ()) in
  check_bool "unknown pid" true
    (try
       Sync_d.read d (pid 77);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

(* The synchronous protocol is safe for random seeds and churn rates
   below the threshold. *)
let prop_sync_safe_below_threshold =
  QCheck2.Test.make ~name:"sync protocol regular below churn bound" ~count:25
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 2 4) (int_range 10 25))
    (fun (seed, delta, n) ->
      let c = 0.8 /. (3.0 *. float_of_int delta) /. 2.0 in
      let cfg =
        {
          (sync_cfg ~seed ~n ~delta ~churn:c ()) with
          Deployment.churn_policy = Dds_churn.Churn.Active_first;
        }
      in
      let d = Sync_d.create cfg (sync_params ~delta ()) in
      let module G = Generator.Make (Sync_d) in
      Sync_d.start_churn d ~until:(time 300);
      G.run d { Generator.read_rate = 0.5; write_every = 17; start = time 1; until = time 300 };
      Sync_d.run_until d (time 340);
      Regularity.is_ok (Sync_d.regularity d))

(* The ES protocol is safe for random pre-GST wildness. *)
let prop_es_safe_random_gst =
  QCheck2.Test.make ~name:"es protocol regular across random GST/wildness" ~count:15
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 400) (int_range 5 30))
    (fun (seed, gst, wild) ->
      let delay = Delay.eventually_synchronous ~gst:(time gst) ~delta:4 ~wild:(4 + wild) in
      let d = Es_d.create (es_cfg ~seed ~delay ()) (Es_register.default_params ~n:10) in
      let module G = Generator.Make (Es_d) in
      G.run d { Generator.read_rate = 0.3; write_every = 50; start = time 1; until = time 500 };
      Es_d.run_until d (time 900);
      Regularity.is_ok (Es_d.regularity d))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_core"
    [
      ( "sync",
        [
          Alcotest.test_case "founders active" `Quick test_sync_founders_active;
          Alcotest.test_case "read is fast" `Quick test_sync_read_is_fast;
          Alcotest.test_case "write latency and visibility" `Quick
            test_sync_write_latency_and_visibility;
          Alcotest.test_case "concurrent read legal" `Quick test_sync_concurrent_read_legal;
          Alcotest.test_case "join adopts latest" `Quick test_sync_join_adopts_latest;
          Alcotest.test_case "join fast path" `Quick
            test_sync_join_fast_path_on_concurrent_write;
          Alcotest.test_case "joiner answers postponed inquiries" `Quick
            test_sync_joiner_answers_postponed_inquiries;
          Alcotest.test_case "churn below threshold safe" `Slow
            test_sync_churn_below_threshold_safe;
          Alcotest.test_case "determinism" `Quick test_sync_deployment_determinism;
          Alcotest.test_case "join retries when system empties" `Quick
            test_sync_join_retries_when_system_empties;
          Alcotest.test_case "adopt-bottom violates" `Quick test_sync_adopt_bottom_violates;
          Alcotest.test_case "over flooding broadcast" `Quick
            test_sync_over_flooding_broadcast;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "fig3a violation" `Quick test_fig3a_violation;
          Alcotest.test_case "fig3b correct" `Quick test_fig3b_correct;
          Alcotest.test_case "new/old inversion" `Quick test_inversion_scenario;
          Alcotest.test_case "es inversion + read repair" `Quick
            test_es_inversion_and_read_repair;
          Alcotest.test_case "async staleness grows" `Slow test_async_staleness_grows;
        ] );
      ( "es",
        [
          Alcotest.test_case "majority arithmetic" `Quick test_es_majority;
          Alcotest.test_case "write/read roundtrip" `Quick test_es_write_read_roundtrip;
          Alcotest.test_case "read quorum latency" `Quick test_es_read_needs_majority_replies;
          Alcotest.test_case "join adopts latest" `Quick test_es_join_adopts_latest;
          Alcotest.test_case "concurrent joins unblock" `Quick
            test_es_concurrent_joins_unblock_each_other;
          Alcotest.test_case "write embeds read" `Quick test_es_write_embeds_read;
          Alcotest.test_case "pre-GST safe and live" `Slow test_es_pre_gst_still_safe_and_live;
          Alcotest.test_case "churn with majority safe" `Slow test_es_churn_with_majority_safe;
          Alcotest.test_case "blocks without majority" `Quick
            test_es_blocks_without_active_majority;
          Alcotest.test_case "white-box read state" `Quick test_es_whitebox_read_state;
          Alcotest.test_case "joiner defers reply to reader" `Quick
            test_es_joiner_defers_reply_to_reader;
          Alcotest.test_case "reader DL_PREV to joiner" `Quick
            test_es_reader_dl_prev_to_joiner;
        ] );
      ( "abd",
        [
          Alcotest.test_case "write/read" `Quick test_abd_write_read;
          Alcotest.test_case "atomic with write-back" `Slow test_abd_atomic_with_write_back;
          Alcotest.test_case "joiner reads through group" `Quick
            test_abd_joiner_reads_through_group;
          Alcotest.test_case "blocks once majority left" `Quick
            test_abd_blocks_once_majority_left;
          Alcotest.test_case "write-back ablation" `Quick test_abd_write_back_ablation;
        ] );
      ( "host",
        [
          Alcotest.test_case "departed joiner's join aborted" `Quick
            test_host_departed_joiner_join_aborted;
          Alcotest.test_case "departure aborts read and write" `Quick
            test_host_departure_aborts_read_and_write;
          Alcotest.test_case "write patched to final sn" `Quick
            test_host_write_patched_to_final_sn;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "abort on leave" `Quick test_deployment_abort_on_leave;
          Alcotest.test_case "crash cancels timers" `Quick
            test_deployment_crash_cancels_timers;
          Alcotest.test_case "busy and idle listing" `Quick
            test_deployment_busy_and_idle_listing;
          Alcotest.test_case "retire writer" `Quick
            test_deployment_retire_writer_clears_designation;
          Alcotest.test_case "writer rotation" `Slow test_deployment_writer_rotation;
          Alcotest.test_case "trace lifecycle" `Quick test_deployment_trace_records_lifecycle;
          Alcotest.test_case "history csv" `Quick test_history_csv_export;
          Alcotest.test_case "unknown pid rejected" `Quick
            test_deployment_ops_on_unknown_rejected;
        ] );
      qsuite "core-props" [ prop_sync_safe_below_threshold; prop_es_safe_random_gst ];
    ]
