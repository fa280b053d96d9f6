(* Tests for the causal critical-path analyzer (lib/causal): every
   attribution is exact (phases and path segments sum to the span
   latency), every critical path is causally well-formed, a
   nemesis-delayed quorum names its straggler on the slowest op's
   path, lenient JSONL parsing tolerates a truncated final line, and
   the monitor's structural overdue-span hook stays empty on a
   compliant run. *)

open Dds_sim
open Dds_net
open Dds_core
module Generator = Dds_workload.Generator
module Nemesis = Dds_fault.Nemesis
module Causal = Dds_causal.Causal

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int

module Es_d = Deployment.Make (Es_register)
module Es_gen = Generator.Make (Es_d)
module Es_inj = Dds_fault.Injector.Make (Es_d)
module Sync_d = Deployment.Make (Sync_register)
module Sync_gen = Generator.Make (Sync_d)

(* One seeded ES run with the sink on, optionally armed with a
   nemesis plan, returning the full event record. *)
let es_trace ?(seed = 11) ?(n = 5) ?(churn = 0.0) ?(horizon = 120) ?plan () =
  let cfg =
    {
      (Deployment.default_config ~seed ~n ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:churn)
      with
      Deployment.events_enabled = true;
    }
  in
  let d = Es_d.create cfg (Es_register.default_params ~n) in
  (match plan with
  | Some p -> ignore (Es_inj.install ~rng:(Rng.create ~seed:(seed + 7919)) d p)
  | None -> ());
  if churn > 0.0 then Es_d.start_churn d ~until:(time horizon);
  Es_gen.run d
    {
      (Generator.default ~until:(time horizon)) with
      Generator.read_rate = 0.4;
      write_every = 15;
    };
  Es_d.run_until d (time (horizon + 60));
  Event.events (Es_d.events d)

let sync_trace ~seed ~churn ~horizon =
  let cfg =
    {
      (Deployment.default_config ~seed ~n:10 ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:churn)
      with
      Deployment.events_enabled = true;
    }
  in
  let d = Sync_d.create cfg (Sync_register.default_params ~delta:3) in
  Sync_d.start_churn d ~until:(time horizon);
  Sync_gen.run d (Generator.default ~until:(time horizon));
  Sync_d.run_until d (time (horizon + 40));
  Event.events (Sync_d.events d)

(* ------------------------------------------------------------------ *)
(* Exactness and well-formedness, checked on one attribution *)

let phase_sum (a : Causal.attribution) =
  a.Causal.a_compute + a.Causal.a_transit + a.Causal.a_quorum + a.Causal.a_timer
  + a.Causal.a_retry

(* The defining invariants of an attribution:
   - latency is the span window, and the attributed phases sum to it
     exactly (the machine-checkable contract `dds explain` prints);
   - the critical path tiles that window: contiguous segments from
     Op_start to Op_end, each respecting causal (Lamport/time) order,
     so no segment — and no phase — can exceed the span duration;
   - transit segments carry a real sender and wire kind. *)
let well_formed (a : Causal.attribution) =
  let lat = a.Causal.a_latency in
  lat = Time.to_int a.Causal.a_ended - Time.to_int a.Causal.a_started
  && lat >= 0
  && phase_sum a = lat
  && List.fold_left (fun s g -> s + Causal.seg_dur g) 0 a.Causal.a_segments = lat
  && List.for_all
       (fun (g : Causal.segment) ->
         Causal.seg_dur g >= 0
         && Causal.seg_dur g <= lat
         && Time.compare a.Causal.a_started g.Causal.g_from <= 0
         && Time.compare g.Causal.g_to a.Causal.a_ended <= 0
         && (g.Causal.g_kind <> Causal.Transit || String.length g.Causal.g_msg > 0))
       a.Causal.a_segments
  &&
  (* Contiguity: each segment starts where the previous one ended. *)
  let rec chain = function
    | g1 :: (g2 : Causal.segment) :: rest ->
      Time.compare g1.Causal.g_to g2.Causal.g_from = 0 && chain (g2 :: rest)
    | [ last ] -> Time.compare last.Causal.g_to a.Causal.a_ended = 0
    | [] -> lat = 0
  in
  match a.Causal.a_segments with
  | [] -> lat = 0
  | first :: _ -> Time.compare first.Causal.g_from a.Causal.a_started = 0 && chain a.Causal.a_segments

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_attribution_exact =
  QCheck2.Test.make ~name:"every es attribution is exact and well-formed" ~count:12
    QCheck2.Gen.(pair (int_range 0 5_000) (int_range 0 2))
    (fun (seed, churn_i) ->
      let churn = float_of_int churn_i *. 0.004 in
      let r = Causal.analyze (es_trace ~seed ~n:6 ~churn ()) in
      r.Causal.r_ops <> [] && List.for_all well_formed r.Causal.r_ops)

let prop_sync_attribution_exact =
  QCheck2.Test.make ~name:"every sync attribution is exact and well-formed" ~count:8
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let r = Causal.analyze (sync_trace ~seed ~churn:0.02 ~horizon:150) in
      r.Causal.r_ops <> [] && List.for_all well_formed r.Causal.r_ops)

let prop_analyze_deterministic =
  QCheck2.Test.make ~name:"analyze is a pure function of the trace" ~count:6
    QCheck2.Gen.(int_range 0 5_000)
    (fun seed ->
      let evs = es_trace ~seed ~n:5 ~churn:0.003 () in
      Causal.analyze ~bound:30 evs = Causal.analyze ~bound:30 evs)

(* ------------------------------------------------------------------ *)
(* Straggler attribution under an injected delay *)

(* n=5 ES, majority quorum 3: the client's own response and p1's come
   back fast, while REPLY/ACK from p2-p4 ride a +6-tick nemesis
   delay. Every quorum therefore completes on a delayed responder —
   the analyzer must name one of them as the straggler of the slowest
   op and put that responder's hop on its critical path. This is the
   acceptance scenario: a nemesis-delayed run names the straggler
   node/message on the slowest op's path. *)
let test_nemesis_straggler () =
  let plan =
    [
      Nemesis.delay ~extra:6 ~srcs:[ 2; 3; 4 ] ~kinds:[ "REPLY"; "ACK" ] Nemesis.always
    ]
  in
  let evs = es_trace ~seed:11 ~n:5 ~horizon:120 ~plan () in
  let r = Causal.analyze ~bound:30 evs in
  check_bool "attributed ops exist" true (r.Causal.r_ops <> []);
  check_bool "all exact under nemesis" true (List.for_all well_formed r.Causal.r_ops);
  match Causal.slowest r 1 with
  | [] -> Alcotest.fail "no slowest op"
  | slow :: _ -> (
    match slow.Causal.a_straggler with
    | None -> Alcotest.fail "slowest op has no straggler"
    | Some st ->
      check_bool "straggler is a delayed responder" true
        (List.mem st.Causal.st_node [ 2; 3; 4 ]);
      check_bool "straggler message kind named" true
        (List.mem st.Causal.st_msg [ "REPLY"; "ACK" ]);
      check_bool "straggler waited" true (st.Causal.st_wait > 0);
      check_bool "straggler's hop is on the critical path" true
        (List.exists
           (fun (g : Causal.segment) -> g.Causal.g_src = st.Causal.st_node)
           slow.Causal.a_segments);
      (* The quorum wait the straggler caused is attributed, and the
         delayed run is slower than the clean one. *)
      check_bool "quorum phase is charged" true (slow.Causal.a_quorum > 0);
      let clean = Causal.analyze (es_trace ~seed:11 ~n:5 ~horizon:120 ()) in
      match Causal.slowest clean 1 with
      | [] -> Alcotest.fail "clean run has no ops"
      | clean_slow :: _ ->
        check_bool "delay shows up in the slowest latency" true
          (slow.Causal.a_latency > clean_slow.Causal.a_latency))

(* ------------------------------------------------------------------ *)
(* Bound flagging *)

let test_over_bound_witnesses () =
  let evs = es_trace ~seed:3 ~n:6 ~churn:0.004 () in
  let r = Causal.analyze ~bound:1 evs in
  check_bool "tiny bound flags ops" true (r.Causal.r_over_bound <> []);
  check_bool "every flagged op exceeds the bound" true
    (List.for_all (fun a -> a.Causal.a_latency > 1) r.Causal.r_over_bound);
  (* Slowest first, and each witness is itself a well-formed path. *)
  let rec sorted = function
    | a :: b :: rest ->
      a.Causal.a_latency >= b.Causal.a_latency && sorted (b :: rest)
    | _ -> true
  in
  check_bool "witnesses sorted slowest-first" true (sorted r.Causal.r_over_bound);
  check_bool "witness paths are well-formed" true
    (List.for_all well_formed r.Causal.r_over_bound);
  let generous = Causal.analyze ~bound:10_000 evs in
  check Alcotest.(list int) "generous bound flags nothing" []
    (List.map (fun a -> a.Causal.a_span) generous.Causal.r_over_bound)

(* ------------------------------------------------------------------ *)
(* Aggregate table *)

let test_aggregate_counts () =
  let evs = es_trace ~seed:5 ~n:6 ~churn:0.003 () in
  let r = Causal.analyze evs in
  let agg_total =
    List.fold_left (fun s og -> s + og.Causal.og_count) 0 r.Causal.r_aggregate
  in
  check_int "aggregate rows cover every op" (List.length r.Causal.r_ops) agg_total;
  List.iter
    (fun og ->
      check_int "one phase row per kind" (List.length Causal.all_seg_kinds)
        (List.length og.Causal.og_phases);
      check_bool "p50 <= p99 <= max" true
        (og.Causal.og_lat_p50 <= og.Causal.og_lat_p99
        && og.Causal.og_lat_p99 <= og.Causal.og_lat_max))
    r.Causal.r_aggregate

(* ------------------------------------------------------------------ *)
(* Lenient JSONL parsing (truncated trace files) *)

let test_truncated_jsonl () =
  let evs = es_trace ~seed:7 ~n:5 () in
  let s = Export.jsonl_of_events evs in
  (* Cut the file mid-way through its final line, as a crashed or
     killed run would leave it. *)
  let cut = String.length s - 9 in
  let truncated = String.sub s 0 cut in
  match Export.events_of_jsonl truncated with
  | Error e -> Alcotest.failf "lenient parse failed outright: %s" e
  | Ok (tagged, warnings) ->
    let evs' = List.map snd tagged in
    check_int "exactly the final line dropped" (List.length evs - 1) (List.length evs');
    check_bool "truncation warned about" true (warnings <> []);
    (* The analyzer runs on what survived; spans cut open by the
       truncation surface as orphans, not failures. *)
    let r = Causal.analyze evs' in
    check_bool "attribution still exact" true (List.for_all well_formed r.Causal.r_ops)

let test_json_report_exactness () =
  let evs = es_trace ~seed:13 ~n:6 ~churn:0.004 () in
  let r = Causal.analyze ~bound:30 evs in
  match Causal.report_to_json r with
  | Json.Obj members ->
    let ops =
      match List.assoc_opt "ops" members with Some (Json.List l) -> l | _ -> []
    in
    check_int "one JSON op per attribution" (List.length r.Causal.r_ops) (List.length ops);
    List.iter
      (fun op ->
        let phases =
          match Json.member "phases" op with
          | Some (Json.Obj ps) ->
            List.fold_left
              (fun s (_, v) -> s + Option.value ~default:0 (Json.to_int_opt v))
              0 ps
          | _ -> -1
        in
        let lat =
          Option.bind (Json.member "latency" op) Json.to_int_opt
          |> Option.value ~default:(-2)
        in
        check_int "JSON phases sum to JSON latency" lat phases)
      ops
  | _ -> Alcotest.fail "report_to_json did not return an object"

(* ------------------------------------------------------------------ *)
(* Monitor overdue-span hook *)

let test_monitor_overdue_empty_on_compliant_run () =
  let evs = es_trace ~seed:11 ~n:8 ~churn:0.003 ~horizon:150 () in
  let cfg =
    {
      (Dds_monitor.Monitor.default ~n:8 ~delta:3) with
      Dds_monitor.Monitor.majority = true;
      inversions = false;
    }
  in
  let m = Dds_monitor.Monitor.create cfg in
  List.iter (fun st -> ignore (Dds_monitor.Monitor.feed m st)) evs;
  let last_at =
    List.fold_left (fun a (st : Event.stamped) -> Time.max a st.Event.at) Time.zero evs
  in
  ignore (Dds_monitor.Monitor.finalize m ~at:last_at);
  check Alcotest.(list int) "no structurally overdue spans" []
    (Dds_monitor.Monitor.overdue (Dds_monitor.Monitor.violations m))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_causal"
    [
      ( "attribution",
        [
          Alcotest.test_case "nemesis delay names the straggler" `Quick
            test_nemesis_straggler;
          Alcotest.test_case "over-bound ops carry witnesses" `Quick
            test_over_bound_witnesses;
          Alcotest.test_case "aggregate covers every op" `Quick test_aggregate_counts;
          Alcotest.test_case "JSON report is machine-checkably exact" `Quick
            test_json_report_exactness;
        ] );
      ( "io",
        [
          Alcotest.test_case "truncated final JSONL line tolerated" `Quick
            test_truncated_jsonl;
          Alcotest.test_case "monitor overdue hook empty when compliant" `Quick
            test_monitor_overdue_empty_on_compliant_run;
        ] );
      qsuite "properties"
        [
          prop_attribution_exact;
          prop_sync_attribution_exact;
          prop_analyze_deterministic;
        ];
    ]
