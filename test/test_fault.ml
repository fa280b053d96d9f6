(* Tests for the fault-injection subsystem: the nemesis plan codec,
   within-model plans leaving runs regular vs assumption-breaking
   plans getting flagged, the hunter's search/shrink loop, and the
   visibility of every injected fault in the typed-event record. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_fault

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int
let pid = Pid.of_int

module Sync_d = Deployment.Make (Sync_register)
module Harness = Dds_workload.Harness
module Verdict = Dds_monitor.Verdict
module Generator = Dds_workload.Generator

let sync = Protocol.find_exn "sync"
let es = Protocol.find_exn "es"

(* Judged runs: no background churn, so any violation is the plan's
   doing, under the monitors each protocol's theorem calls for, as dds
   hunt wires them. [proto_delta] > [delta] opens a slack window
   between the bound the network enforces and the one the protocol
   believes. *)
let judged (p : Protocol.t) ~seed ~n ~delta ~proto_delta ~horizon plan =
  let cfg =
    Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta) ~churn_rate:0.0
  in
  let spec =
    Harness.default_spec
      ~monitor:(Harness.monitor_config p ~n ~delta:proto_delta)
      ~horizon ~drain:(20 * proto_delta) ()
  in
  Harness.run (Harness.instance_exn p ~n ~delta:proto_delta) cfg spec plan

let run_sync ?(seed = 11) ?(n = 10) ?(delta = 3) ?proto_delta ~horizon plan =
  let proto_delta = Option.value proto_delta ~default:delta in
  judged sync ~seed ~n ~delta ~proto_delta ~horizon plan

let run_es ?(seed = 11) ?(n = 10) ?(delta = 3) ~horizon plan =
  judged es ~seed ~n ~delta ~proto_delta:delta ~horizon plan

let check_clean name (r : Harness.result) =
  if not (Verdict.is_ok r.Harness.verdict) then
    Alcotest.failf "%s: expected a clean run, got:@.%s" name
      (String.concat "\n" (Verdict.problems r.Harness.verdict))

let check_flagged name (r : Harness.result) =
  check_bool (name ^ " flagged") true (not (Verdict.is_ok r.Harness.verdict))

(* ------------------------------------------------------------------ *)
(* Codec *)

let roundtrip plan =
  match Nemesis.of_string (Nemesis.to_string plan) with
  | Ok plan' ->
    check_bool
      (Format.asprintf "round-trips: %s" (Nemesis.to_string plan))
      true (Nemesis.equal plan plan')
  | Error e -> Alcotest.failf "parse failed on %S: %s" (Nemesis.to_string plan) e

let test_codec_roundtrip_hand_cases () =
  roundtrip [];
  roundtrip [ Nemesis.drop Nemesis.always ];
  roundtrip [ Nemesis.dup ~copies:3 (Nemesis.during ~from_:0 ~until_:100) ];
  roundtrip
    [
      Nemesis.drop ~srcs:[ 1; 2 ] ~dsts:[ 3 ] ~kinds:[ "INQUIRY"; "REPLY" ] ~p:0.1
        ~max_faults:5
        (Nemesis.during ~from_:10 ~until_:50);
      Nemesis.delay ~extra:9 ~kinds:[ "WRITE" ] (Nemesis.during ~from_:40 ~until_:60);
      Nemesis.corrupt (Nemesis.at 7);
      Nemesis.partition ~a:[ 0; 1; 2; 3; 4 ] ~b:[ 5; 6; 7; 8; 9 ] ~symmetric:false
        (Nemesis.during ~from_:100 ~until_:150);
      Nemesis.crash ~recover:10 ~k:2 120;
      Nemesis.storm ~k:6 200;
    ];
  (* Non-contiguous pid lists and open-ended windows survive too. *)
  roundtrip [ Nemesis.drop ~srcs:[ 0; 2; 7 ] (Nemesis.during ~from_:5 ~until_:max_int) ]

let test_codec_parses_doc_grammar () =
  let s =
    "drop(kind=INQUIRY|REPLY,src=1|2,dst=3,p=0.1,max=5)@[10,50];dup(copies=2)@[0,100];"
    ^ "delay(extra=9,kind=WRITE)@[40,60];corrupt()@7;"
    ^ "partition(a=0-4,b=5-9,oneway)@[100,150];crash(k=2,recover=10)@120;storm(k=6)@200"
  in
  match Nemesis.of_string s with
  | Error e -> Alcotest.failf "doc grammar rejected: %s" e
  | Ok plan ->
    check_int "seven steps" 7 (List.length plan);
    roundtrip plan

let test_codec_rejects_garbage () =
  (match Nemesis.of_string "bogus(k=1)@5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown head accepted");
  match Nemesis.of_string "drop(zork=1)@[1,2]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted"

let prop_codec_roundtrip_random =
  QCheck2.Test.make ~name:"nemesis codec round-trips random plans" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let profile =
        if seed mod 2 = 0 then Nemesis.Any else Nemesis.Within { slack = 2 }
      in
      let plan =
        Nemesis.random ~rng:(Rng.create ~seed) ~n:10 ~horizon:200 ~delta:3 profile
      in
      match Nemesis.of_string (Nemesis.to_string plan) with
      | Ok plan' -> Nemesis.equal plan plan'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Within-model plans must leave the run regular (Theorems 1 and 4
   tolerate them): duplicates, delay within the protocol's slack,
   single crash-recoveries, single-process storms. *)

let test_within_sync_duplicates () =
  let o = run_sync ~horizon:100 [ Nemesis.dup ~copies:2 (Nemesis.during ~from_:1 ~until_:80) ] in
  check_clean "sync under duplicates" o;
  check_bool "faults actually injected" true (o.Harness.injected > 0)

let test_within_es_duplicates () =
  let o = run_es ~horizon:100 [ Nemesis.dup ~copies:1 Nemesis.always ] in
  check_clean "es under duplicates" o;
  check_bool "faults actually injected" true (o.Harness.injected > 0)

let test_within_sync_delay_inside_slack () =
  (* The network enforces delta = 3; the protocol believes delta = 6.
     Injecting up to 3 extra ticks keeps every delivery inside the
     believed bound, so the run must stay regular. *)
  let o =
    run_sync ~delta:3 ~proto_delta:6 ~horizon:100
      [ Nemesis.delay ~extra:3 (Nemesis.during ~from_:1 ~until_:80) ]
  in
  check_clean "sync with delay inside slack" o;
  check_bool "faults actually injected" true (o.Harness.injected > 0)

let test_within_es_crash_recovery () =
  let o = run_es ~horizon:100 [ Nemesis.crash ~recover:6 ~k:1 40 ] in
  check_clean "es minority crash with recovery" o;
  check_bool "crash injected" true (o.Harness.injected >= 1)

let test_within_sync_storm () =
  let o = run_sync ~horizon:100 [ Nemesis.storm ~k:1 50 ] in
  check_clean "sync single-process storm" o;
  check_bool "storm injected" true (o.Harness.injected >= 1)

(* ------------------------------------------------------------------ *)
(* Assumption-breaking plans must be flagged. *)

let breaking_partition =
  (* Cuts the writer's side off from pids 7-9 across a write (writes
     fire every 20 ticks): sync dissemination never reaches them, so
     reads there return the old value after the write completed. *)
  Nemesis.partition ~a:[ 0; 1; 2; 3; 4; 5; 6 ] ~b:[ 7; 8; 9 ] ~symmetric:false
    (Nemesis.during ~from_:35 ~until_:45)

let test_breaking_sync_partition () =
  let o = run_sync ~horizon:100 [ breaking_partition ] in
  check_flagged "oneway partition across a write" o;
  check_bool "stale read reported" true
    (List.exists (fun v -> String.length v >= 10 && String.sub v 0 10 = "regularity") (Verdict.problems o.Harness.verdict))

let test_breaking_sync_delay_past_delta () =
  (* WRITE broadcasts delayed well past the believed bound: the writer
     responds after delta ticks but members adopt much later, so reads
     strictly after the write see the old value. *)
  let o =
    run_sync ~horizon:100
      [ Nemesis.delay ~extra:10 ~kinds:[ "WRITE" ] (Nemesis.during ~from_:18 ~until_:45) ]
  in
  check_flagged "delay past delta on WRITE" o

let test_breaking_es_mass_crash () =
  (* Crashing 6 of 10 leaves 4 active: the ES model's standing
     active-majority assumption fails and the monitor must say so. *)
  let o = run_es ~horizon:100 [ Nemesis.crash ~k:6 40 ] in
  check_flagged "es majority crash" o;
  check_bool "majority monitor fired" true
    (List.exists
       (fun v ->
         let has_sub sub =
           let n = String.length sub and m = String.length v in
           let rec go i = i + n <= m && (String.sub v i n = sub || go (i + 1)) in
           go 0
         in
         has_sub "majority")
       (Verdict.problems o.Harness.verdict))

(* ------------------------------------------------------------------ *)
(* Hunt: search finds a planted violation, shrink strips the harmless
   steps, and the shrunk plan still reproduces through its own codec
   string — exactly what the printed repro line relies on. *)

let test_hunt_search_clean_on_within_plans () =
  let runner ~seed plan = (run_sync ~seed ~horizon:80 plan).Harness.verdict in
  let gen ~seed:_ = [ Nemesis.dup ~copies:1 (Nemesis.during ~from_:1 ~until_:60) ] in
  match Hunt.search ~runner ~gen [ 3; 4 ] with
  | None -> ()
  | Some f ->
    Alcotest.failf "within-model plan flagged: %s" (String.concat "; " (Verdict.problems f.Hunt.verdict))

let test_hunt_search_and_shrink () =
  let runner ~seed plan = (run_sync ~seed ~horizon:100 plan).Harness.verdict in
  let harmless = Nemesis.dup ~copies:1 (Nemesis.during ~from_:1 ~until_:10) in
  let gen ~seed:_ = [ harmless; breaking_partition ] in
  match Hunt.search ~runner ~gen [ 11 ] with
  | None -> Alcotest.fail "planted violation not found"
  | Some found ->
    check_bool "violations reported" true (not (Verdict.is_ok found.Hunt.verdict));
    let shrunk = Hunt.shrink ~runner found in
    check_bool "shrunk no larger" true
      (List.length shrunk.Hunt.plan <= List.length found.Hunt.plan);
    check_bool "harmless dup stripped" true
      (not
         (List.exists
            (function
              | Nemesis.Msg { Fault.action = Fault.Dup _; _ } -> true
              | _ -> false)
            shrunk.Hunt.plan));
    check_bool "partition kept" true
      (List.exists
         (function Nemesis.Partition _ -> true | _ -> false)
         shrunk.Hunt.plan);
    (* Repro line fidelity: the plan survives its own codec and the
       replay still violates. *)
    let s = Nemesis.to_string shrunk.Hunt.plan in
    (match Nemesis.of_string s with
    | Error e -> Alcotest.failf "shrunk plan unparsable (%S): %s" s e
    | Ok plan' ->
      check_bool "shrunk plan round-trips" true (Nemesis.equal plan' shrunk.Hunt.plan);
      let o = runner ~seed:shrunk.Hunt.seed plan' in
      check_bool "repro still violates" true (not (Verdict.is_ok o)))

(* ------------------------------------------------------------------ *)
(* One run path: arming splits a stream off the workload rng, so the
   harness arms no empty plan — a run under [[]] is the execution a
   hand-driven deployment gives, which is what a hunt's repro line
   replays through dds run. *)

let churned_config ~seed ~n ~delta ~churn =
  {
    (Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta) ~churn_rate:churn)
    with
    Deployment.events_enabled = true;
  }

let snapshot_json s = Json.to_string (Export.metrics_to_json s)

let test_empty_plan_is_no_plan () =
  let n = 20 and delta = 3 and horizon = 300 in
  let drain = 20 * delta in
  let cfg = churned_config ~seed:42 ~n ~delta ~churn:0.03 in
  List.iter
    (fun name ->
      let (module I) = Harness.instance_exn (Protocol.find_exn name) ~n ~delta in
      let r = Harness.run (module I) cfg (Harness.default_spec ~horizon ~drain ()) [] in
      let module G = Generator.Make (I.D) in
      let d = I.D.create cfg I.params in
      I.D.start_churn d ~until:(time horizon);
      G.run d (Generator.default ~until:(time horizon));
      I.D.run_until d (time (horizon + drain));
      check Alcotest.string (name ^ ": same history")
        (History.to_csv (I.D.history d))
        (History.to_csv r.Harness.history);
      check Alcotest.string (name ^ ": same metrics")
        (snapshot_json (I.D.metrics_snapshot d))
        (snapshot_json r.Harness.snapshot))
    Protocol.names

(* `dds hunt es --churn 0.03 --plans 1` at the CLI defaults (seed 42,
   n 20, delta 3, horizon 500, drain 20 delta + 4 wild): over-bound
   churn trips the churn monitor with or without faults, so seed 42's
   plan shrinks to [[]]. The shrunk run must be the one its repro line
   `dds run es --seed 42 --nodes 20 --delta 3 --churn 0.03 --horizon
   500 --monitor` replays: 23 writes and 51240 transmissions. *)
let test_hunt_shrunk_run_is_repro () =
  let n = 20 and delta = 3 and horizon = 500 in
  let cfg = churned_config ~seed:42 ~n ~delta ~churn:0.03 in
  let spec =
    Harness.default_spec
      ~monitor:(Harness.monitor_config es ~n ~delta)
      ~horizon
      ~drain:((20 * delta) + (4 * 50))
      ()
  in
  let inst = Harness.instance_exn es ~n ~delta in
  let go ~seed plan = Harness.run inst { cfg with Deployment.seed } spec plan in
  let runner ~seed plan = (go ~seed plan).Harness.verdict in
  let plan =
    match Nemesis.of_string "delay(extra=10)@[51,166]" with
    | Ok plan -> plan
    | Error e -> Alcotest.fail e
  in
  match Hunt.search ~runner ~gen:(fun ~seed:_ -> plan) [ 42 ] with
  | None -> Alcotest.fail "over-bound churn not flagged"
  | Some found ->
    let shrunk = Hunt.shrink ~runner found in
    check_bool "shrinks to the empty plan" true (shrunk.Hunt.plan = []);
    let r = go ~seed:shrunk.Hunt.seed shrunk.Hunt.plan in
    check_int "writes" 23 (Metrics.get r.Harness.metrics "op.write");
    check_int "transmissions" 51240 (Metrics.get r.Harness.metrics "net.transmit")

(* ------------------------------------------------------------------ *)
(* Telemetry: every injected fault shows up as a typed event, the
   Send/transmit pairing survives duplication, and the JSONL exporter
   round-trips the fault events (what dds audit replays). *)

let test_fault_events_in_trace () =
  let cfg =
    {
      (Deployment.default_config ~seed:11 ~n:10 ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:0.0)
      with
      Deployment.events_enabled = true;
    }
  in
  let d = Sync_d.create cfg (Sync_register.default_params ~delta:3) in
  let module I = Injector.Make (Sync_d) in
  let plan = [ Nemesis.dup ~copies:1 Nemesis.always; Nemesis.crash ~k:1 15 ] in
  let inj = I.install ~rng:(Rng.split (Sync_d.workload_rng d)) d plan in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 20) (fun () ->
      match Sync_d.random_idle_active d with Some p -> Sync_d.read d p | None -> ()));
  Sync_d.run_until d (time 40);
  let evs = Event.events (Sync_d.events d) in
  let fault_named name =
    List.exists
      (fun st ->
        match st.Event.ev with
        | Event.Fault_injected { fault; _ } -> fault = name
        | _ -> false)
      evs
  in
  check_bool "duplicate visible as Fault_injected" true (fault_named "dup");
  check_bool "crash visible as Fault_injected" true (fault_named "crash");
  check_bool "Node_crash emitted" true
    (List.exists
       (fun st -> match st.Event.ev with Event.Node_crash _ -> true | _ -> false)
       evs);
  check_bool "injector counted both" true (I.total_injected inj >= 2);
  (* Invariant: one Send event per wire copy — injected duplicates add
     Sends, and the count matches the transmit counter exactly. *)
  let sends =
    List.length
      (List.filter
         (fun st -> match st.Event.ev with Event.Send _ -> true | _ -> false)
         evs)
  in
  check_int "send events = net.transmit" (Metrics.get (Sync_d.metrics d) "net.transmit") sends;
  (* The exported JSONL keeps the fault events, so dds audit sees them. *)
  match Export.events_of_jsonl (Export.jsonl_of_events evs) with
  | Error e -> Alcotest.failf "export round-trip failed: %s" e
  | Ok (_, w :: _) -> Alcotest.failf "export round-trip truncated: %s" w
  | Ok (tagged, []) ->
    let evs' = List.map snd tagged in
    check_int "export round-trip preserves count" (List.length evs) (List.length evs');
    check_bool "fault events survive export" true
      (List.exists
         (fun st ->
           match st.Event.ev with Event.Fault_injected _ -> true | _ -> false)
         evs')

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_fault"
    [
      ( "codec",
        [
          Alcotest.test_case "hand cases round-trip" `Quick test_codec_roundtrip_hand_cases;
          Alcotest.test_case "doc grammar parses" `Quick test_codec_parses_doc_grammar;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
        ] );
      ( "within-model",
        [
          Alcotest.test_case "sync duplicates" `Slow test_within_sync_duplicates;
          Alcotest.test_case "es duplicates" `Slow test_within_es_duplicates;
          Alcotest.test_case "sync delay inside slack" `Slow
            test_within_sync_delay_inside_slack;
          Alcotest.test_case "es crash recovery" `Slow test_within_es_crash_recovery;
          Alcotest.test_case "sync storm" `Slow test_within_sync_storm;
        ] );
      ( "breaking",
        [
          Alcotest.test_case "sync oneway partition" `Slow test_breaking_sync_partition;
          Alcotest.test_case "sync delay past delta" `Slow
            test_breaking_sync_delay_past_delta;
          Alcotest.test_case "es mass crash" `Slow test_breaking_es_mass_crash;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "clean on within plans" `Slow
            test_hunt_search_clean_on_within_plans;
          Alcotest.test_case "search and shrink" `Slow test_hunt_search_and_shrink;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "faults in event record" `Quick test_fault_events_in_trace ] );
      ( "run path",
        [
          Alcotest.test_case "empty plan is no plan" `Quick test_empty_plan_is_no_plan;
          Alcotest.test_case "shrunk hunt run is its repro" `Slow test_hunt_shrunk_run_is_repro;
        ] );
      qsuite "codec-props" [ prop_codec_roundtrip_random ];
    ]
