(* The streaming assumption/safety monitors: seeded synthetic streams
   force each violation kind; a compliant real run fires nothing; and
   the trace -> history bridge reconstructs the in-process regularity
   report byte for byte. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
module M = Dds_monitor.Monitor

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let st at ev = { Event.at = Time.of_int at; ev }

let monitors vs = List.map (fun (v : M.violation) -> v.M.monitor) vs

(* ------------------------------------------------------------------ *)
(* Synthetic violation scenarios *)

(* n=10, delta=3: bound 1/(3*3) with a 9-tick window means more than
   10 membership changes of one kind in the window cross it. *)
let churn_cfg =
  {
    (M.default ~n:10 ~delta:3) with
    M.churn_bound = Some (1.0 /. 9.0);
    churn_window = 9;
    liveness_bound = None;
    inversions = false;
  }

let founding ~n = List.init n (fun i -> st 0 (Event.Node_join { node = i }))

let test_churn_violation () =
  let burst =
    (* 3 joins per tick from t=1: the window holds 3*t joins, crossing
       10 at t=4. *)
    List.concat_map
      (fun t -> List.init 3 (fun i -> st t (Event.Node_join { node = 100 + (10 * t) + i })))
      [ 1; 2; 3; 4; 5 ]
  in
  let vs = M.run churn_cfg (founding ~n:10 @ burst) in
  check Alcotest.(list string) "one churn episode" [ "churn" ] (monitors vs);
  check_int "first offending tick" 4 (Time.to_int (List.hd vs).M.at)

let test_churn_compliant_quiet () =
  let slow =
    (* One join every 3 ticks: 3-4 changes per window, well under 10. *)
    List.init 8 (fun i -> st (3 * (i + 1)) (Event.Node_join { node = 100 + i }))
  in
  check Alcotest.(list string) "no violations" []
    (monitors (M.run churn_cfg (founding ~n:10 @ slow)))

let test_churn_episode_rearms () =
  let burst t0 =
    List.concat_map
      (fun t ->
        List.init 4 (fun i -> st (t0 + t) (Event.Node_join { node = (100 * t0) + (10 * t) + i })))
      [ 0; 1; 2 ]
  in
  (* Two bursts separated by a long quiet gap: the monitor re-arms in
     between, so each burst is one finding. *)
  let vs = M.run churn_cfg (founding ~n:10 @ burst 1 @ burst 50) in
  check Alcotest.(list string) "two episodes" [ "churn"; "churn" ] (monitors vs)

let majority_cfg =
  {
    (M.default ~n:5 ~delta:3) with
    M.majority = true;
    liveness_bound = None;
    inversions = false;
  }

let test_majority_violation () =
  let evs =
    founding ~n:5
    @ [
        st 5 (Event.Node_leave { node = 0 });
        st 6 (Event.Node_leave { node = 1 });
        (* down to 3 = n/2+1: still fine *)
        st 7 (Event.Node_leave { node = 2 });
        (* 2 < 3: violation *)
        st 10
          (Event.Op_end
             {
               span = 9;
               node = 9;
               op = Event.Join;
               outcome = Event.Completed;
               value = Some { Event.data = 0; sn = 0 };
             });
        (* back to 3: re-armed *)
        st 12 (Event.Node_leave { node = 3 });
        (* 2 again: second episode *)
      ]
  in
  let vs = M.run majority_cfg evs in
  check Alcotest.(list string) "two majority episodes" [ "majority"; "majority" ]
    (monitors vs);
  check_int "first fired when active dropped to 2" 7 (Time.to_int (List.hd vs).M.at)

let liveness_cfg =
  { (M.default ~n:5 ~delta:3) with M.liveness_bound = Some 10; inversions = false }

let test_liveness_violation () =
  let evs =
    founding ~n:5
    @ [
        st 1 (Event.Op_start { span = 0; node = 2; op = Event.Read; value = None });
        st 20 (Event.Node_join { node = 50 });
        (* time advances past the t=11 deadline *)
        st 25 (Event.Node_join { node = 51 });
        (* already reported: no second finding *)
      ]
  in
  let vs = M.run liveness_cfg evs in
  check Alcotest.(list string) "one liveness finding" [ "liveness" ] (monitors vs)

let test_liveness_finalize_catches_hung_span () =
  let t = M.create liveness_cfg in
  List.iter
    (fun e -> check Alcotest.(list string) "quiet during feed" [] (monitors (M.feed t e)))
    (founding ~n:5
    @ [ st 1 (Event.Op_start { span = 0; node = 2; op = Event.Write; value = None }) ]);
  let vs = M.finalize t ~at:(Time.of_int 30) in
  check Alcotest.(list string) "hung span caught at finalize" [ "liveness" ] (monitors vs)

let test_liveness_clock_starts_at_gst () =
  let cfg = { liveness_cfg with M.liveness_from_gst = true } in
  let span0 = st 1 (Event.Op_start { span = 0; node = 2; op = Event.Read; value = None }) in
  (* Without a GST mark nothing is ever overdue... *)
  let vs = M.run cfg (founding ~n:5 @ [ span0; st 40 (Event.Node_join { node = 50 }) ]) in
  check Alcotest.(list string) "unbounded before stabilization" [] (monitors vs);
  (* ... and with one, the deadline counts from stabilization. *)
  let vs =
    M.run cfg
      (founding ~n:5
      @ [ span0; st 5 Event.Gst_reached; st 40 (Event.Node_join { node = 50 }) ])
  in
  check Alcotest.(list string) "overdue after gst + bound" [ "liveness" ] (monitors vs)

let inversion_cfg = { (M.default ~n:5 ~delta:3) with M.liveness_bound = None }

let read_span ~span ~node ~invoked ~responded ~sn =
  [
    st invoked (Event.Op_start { span; node; op = Event.Read; value = None });
    st responded
      (Event.Op_end
         {
           span;
           node;
           op = Event.Read;
           outcome = Event.Completed;
           value = Some { Event.data = sn; sn };
         });
  ]

let test_inversion_detected () =
  let evs =
    founding ~n:5
    @ read_span ~span:0 ~node:1 ~invoked:1 ~responded:2 ~sn:5
    @ read_span ~span:1 ~node:2 ~invoked:3 ~responded:4 ~sn:3
  in
  let vs = M.run inversion_cfg evs in
  check Alcotest.(list string) "sequential inversion flagged" [ "inversion" ] (monitors vs);
  check_int "flagged at the second read's response" 4 (Time.to_int (List.hd vs).M.at)

let test_inversion_concurrent_reads_allowed () =
  (* The same sn pattern but overlapping intervals: regular registers
     permit this, and so does the monitor. *)
  let evs =
    founding ~n:5
    @ [
        st 1 (Event.Op_start { span = 0; node = 1; op = Event.Read; value = None });
        st 3 (Event.Op_start { span = 1; node = 2; op = Event.Read; value = None });
      ]
    @ [
        st 5
          (Event.Op_end
             {
               span = 0;
               node = 1;
               op = Event.Read;
               outcome = Event.Completed;
               value = Some { Event.data = 9; sn = 9 };
             });
        st 6
          (Event.Op_end
             {
               span = 1;
               node = 2;
               op = Event.Read;
               outcome = Event.Completed;
               value = Some { Event.data = 3; sn = 3 };
             });
      ]
  in
  check Alcotest.(list string) "concurrent reads may invert" []
    (monitors (M.run inversion_cfg evs))

(* ------------------------------------------------------------------ *)
(* Real runs: no false positives under compliant churn; the replay
   bridge reconstructs the in-process regularity verdict exactly. *)

module Es_d = Deployment.Make (Es_register)
module Sync_d = Deployment.Make (Sync_register)

let es_run ~churn_rate () =
  let cfg =
    {
      (Deployment.default_config ~seed:7 ~n:8 ~delay:(Delay.synchronous ~delta:2)
         ~churn_rate)
      with
      Deployment.events_enabled = true;
    }
  in
  let d = Es_d.create cfg (Es_register.default_params ~n:8) in
  Es_d.start_churn d ~until:(Time.of_int 200);
  for i = 1 to 40 do
    Es_d.run_until d (Time.of_int (i * 5));
    match Es_d.random_idle_active d with
    | Some pid -> if i mod 4 = 0 then Es_d.write d pid else Es_d.read d pid
    | None -> ()
  done;
  Es_d.stop_churn d;
  Es_d.run_to_quiescence d ();
  d

let es_monitor_cfg =
  {
    (M.default ~n:8 ~delta:2) with
    M.churn_bound = Some (1.0 /. (3.0 *. 2.0 *. 8.0));
    majority = true;
  }

let test_no_false_positives_compliant_run () =
  (* churn 0.004 is well under the ES bound 1/(3*2*8) ~ 0.0208. *)
  let d = es_run ~churn_rate:0.004 () in
  let evs = Event.events (Es_d.events d) in
  check_bool "trace non-empty" true (evs <> []);
  let vs = M.run es_monitor_cfg evs in
  Alcotest.(check (list string)) "compliant run fires nothing" [] (monitors vs)

let regularity_fingerprint (r : Regularity.report) =
  Format.asprintf "%a" Dds_monitor.Verdict.pp (Dds_monitor.Verdict.make r)

(* The deployment's own verdict vs the one recomputed from the
   exported trace alone ([Deployment.regularity] is [Regularity.check]
   on the in-process history). *)
let roundtrip_report ~history ~events =
  let in_process = Regularity.check history in
  let jsonl = Export.jsonl_of_events events in
  match Export.events_of_jsonl jsonl with
  | Error e -> Alcotest.failf "jsonl parse-back failed: %s" e
  | Ok (_, w :: _) -> Alcotest.failf "jsonl parse-back truncated: %s" w
  | Ok (tagged, []) ->
    let evs = List.map snd tagged in
    let replayed = Replay.history_of_events ~initial:(History.initial history) evs in
    (in_process, Regularity.check replayed)

let test_roundtrip_regularity_clean () =
  let d = es_run ~churn_rate:0.004 () in
  let in_process, replayed =
    roundtrip_report ~history:(Es_d.history d) ~events:(Event.events (Es_d.events d))
  in
  check_bool "clean run is regular" true (Regularity.is_ok in_process);
  check Alcotest.string "replayed report matches byte for byte"
    (regularity_fingerprint in_process)
    (regularity_fingerprint replayed)

let test_roundtrip_regularity_violation () =
  (* Above-bound churn with the paper-literal adopt-bottom fallback:
     joins activate valueless and reads return bottom — the exact
     failure mode the threshold guards against. The replayed verdict
     must reproduce each violation byte for byte. *)
  let cfg =
    {
      (Deployment.default_config ~seed:3 ~n:10 ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:0.25)
      with
      Deployment.events_enabled = true;
    }
  in
  let params =
    { (Sync_register.default_params ~delta:3) with
      Sync_register.on_empty_inquiry = Sync_register.Adopt_bottom
    }
  in
  let d = Sync_d.create cfg params in
  Sync_d.start_churn d ~until:(Time.of_int 300);
  for i = 1 to 60 do
    Sync_d.run_until d (Time.of_int (i * 5));
    match Sync_d.random_idle_active d with
    | Some pid -> if i mod 5 = 0 then Sync_d.write d pid else Sync_d.read d pid
    | None -> ()
  done;
  Sync_d.stop_churn d;
  Sync_d.run_to_quiescence d ();
  let in_process, replayed =
    roundtrip_report ~history:(Sync_d.history d) ~events:(Event.events (Sync_d.events d))
  in
  check_bool "over-churned adopt-bottom run violates regularity" true
    (in_process.Regularity.violations <> []);
  check Alcotest.string "violations replay byte for byte"
    (regularity_fingerprint in_process)
    (regularity_fingerprint replayed)

(* ------------------------------------------------------------------ *)
(* Lamport stamps and truncated-trace tolerance *)

let test_lamport_stamps_pair_up () =
  let d = es_run ~churn_rate:0.004 () in
  let evs = Event.events (Es_d.events d) in
  let sends = Hashtbl.create 256 in
  List.iter
    (fun { Event.ev; _ } ->
      match ev with
      | Event.Send { src; lamport; _ } ->
        check_bool "send stamps are positive" true (lamport >= 1);
        check_bool "send stamps unique per process" false (Hashtbl.mem sends (src, lamport));
        Hashtbl.replace sends (src, lamport) ()
      | _ -> ())
    evs;
  List.iter
    (fun { Event.ev; _ } ->
      match ev with
      | Event.Deliver { src; lamport; sent; _ } ->
        check_bool "receive applies max+1" true (lamport > sent);
        check_bool "deliver echoes a recorded send stamp" true (Hashtbl.mem sends (src, sent))
      | _ -> ())
    evs;
  let dot = Export.dot_of_events evs in
  let delivers =
    List.length
      (List.filter
         (fun { Event.ev; _ } -> match ev with Event.Deliver _ -> true | _ -> false)
         evs)
  in
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let dashed =
    List.length
      (List.filter
         (fun line -> contains line "style=dashed")
         (String.split_on_char '\n' dot))
  in
  check_int "one dashed DOT edge per delivery" delivers dashed

let test_truncated_jsonl_lenient () =
  let d = es_run ~churn_rate:0.004 () in
  let evs = Event.events (Es_d.events d) in
  let jsonl = Export.jsonl_of_events evs in
  let truncated = String.sub jsonl 0 (String.length jsonl - 15) in
  match Export.events_of_jsonl truncated with
  | Error e -> Alcotest.failf "reader rejected a truncated trace: %s" e
  | Ok (_, []) -> Alcotest.fail "a strict reader would accept a truncated trace"
  | Ok (evs', warnings) ->
    check_int "one warning for the partial final line" 1 (List.length warnings);
    check_int "all whole lines parsed" (List.length evs - 1) (List.length evs');
    (* Corruption in the middle is not truncation: still an error. *)
    let lines = String.split_on_char '\n' jsonl in
    let corrupted =
      String.concat "\n"
        (List.mapi (fun i l -> if i = List.length lines / 2 then "{broken" else l) lines)
    in
    (match Export.events_of_jsonl corrupted with
    | Ok _ -> Alcotest.fail "mid-file corruption must still fail"
    | Error _ -> ())

let () =
  Alcotest.run "dds_monitor"
    [
      ( "monitors",
        [
          Alcotest.test_case "churn violation with first tick" `Quick test_churn_violation;
          Alcotest.test_case "compliant churn quiet" `Quick test_churn_compliant_quiet;
          Alcotest.test_case "churn episodes re-arm" `Quick test_churn_episode_rearms;
          Alcotest.test_case "majority violation" `Quick test_majority_violation;
          Alcotest.test_case "liveness violation" `Quick test_liveness_violation;
          Alcotest.test_case "liveness finalize" `Quick
            test_liveness_finalize_catches_hung_span;
          Alcotest.test_case "liveness clock from gst" `Quick
            test_liveness_clock_starts_at_gst;
          Alcotest.test_case "inversion detected" `Quick test_inversion_detected;
          Alcotest.test_case "concurrent inversion allowed" `Quick
            test_inversion_concurrent_reads_allowed;
          Alcotest.test_case "no false positives on compliant run" `Quick
            test_no_false_positives_compliant_run;
        ] );
      ( "replay",
        [
          Alcotest.test_case "clean regularity round-trips" `Quick
            test_roundtrip_regularity_clean;
          Alcotest.test_case "violations round-trip byte for byte" `Quick
            test_roundtrip_regularity_violation;
          Alcotest.test_case "lamport stamps pair up" `Quick test_lamport_stamps_pair_up;
          Alcotest.test_case "truncated jsonl tolerated" `Quick test_truncated_jsonl_lenient;
        ] );
    ]
