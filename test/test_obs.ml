(* End-to-end observability: a deterministic run's JSONL trace is
   byte-stable, parses back losslessly, renders to valid Chrome
   trace_event JSON, and its spans/counters agree with the history and
   metrics of the run that produced it. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core

module D = Deployment.Make (Es_register)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* A small churn-and-operations run, identical on every call. *)
let run_small ~events_enabled () =
  let cfg =
    {
      (Deployment.default_config ~seed:11 ~n:5 ~delay:(Delay.synchronous ~delta:2)
         ~churn_rate:0.02)
      with
      Deployment.events_enabled;
    }
  in
  let d = D.create cfg (Es_register.default_params ~n:5) in
  D.start_churn d ~until:(Time.of_int 60);
  for i = 1 to 12 do
    D.run_until d (Time.of_int (i * 5));
    match D.random_idle_active d with
    | Some pid -> if i mod 3 = 0 then D.write d pid else D.read d pid
    | None -> ()
  done;
  D.stop_churn d;
  D.run_to_quiescence d ();
  d

let jsonl_of d = Export.jsonl_of_events (Event.events (D.events d))

let test_jsonl_byte_stable () =
  let s1 = jsonl_of (run_small ~events_enabled:true ()) in
  let s2 = jsonl_of (run_small ~events_enabled:true ()) in
  check_bool "trace is non-empty" true (String.length s1 > 0);
  check Alcotest.string "same seed, same bytes" s1 s2;
  (* Golden anchor: the record opens with the founding members'
     membership events, in pid order, at t=0. *)
  let first_line = List.hd (String.split_on_char '\n' s1) in
  check Alcotest.string "golden first line" {|{"t":0,"e":"node_join","node":0}|} first_line

let test_jsonl_roundtrip () =
  let d = run_small ~events_enabled:true () in
  let evs = Event.events (D.events d) in
  match Export.events_of_jsonl (Export.jsonl_of_events evs) with
  | Error e -> Alcotest.failf "parse-back failed: %s" e
  | Ok (tagged, warnings) ->
    check_bool "no truncation" true (warnings = []);
    check_bool "untagged" true (List.for_all (fun (s, _) -> s = None) tagged);
    check_bool "lossless" true (evs = List.map snd tagged)

let test_spans_match_history () =
  let d = run_small ~events_enabled:true () in
  let evs = Event.events (D.events d) in
  let spans, orphans = Export.spans_of_events evs in
  Alcotest.(check (list int)) "no orphan spans after quiescence" [] orphans;
  check_int "unclosed agrees" 0 (List.length (Event.unclosed_spans evs));
  let completed op =
    List.length
      (List.filter
         (fun (s : Export.span) -> s.Export.op = op && s.Export.outcome = Event.Completed)
         spans)
  in
  let h = D.history d in
  check_int "one span per completed join" (List.length (History.completed_joins h))
    (completed Event.Join);
  check_int "one span per completed read" (List.length (History.completed_reads h))
    (completed Event.Read);
  check_int "one span per completed write" (List.length (History.completed_writes h))
    (completed Event.Write);
  (* Aborted history ops map to Aborted spans, closed by the
     deployment when the process was churned out. *)
  let aborted_spans =
    List.length (List.filter (fun (s : Export.span) -> s.Export.outcome = Event.Aborted) spans)
  in
  check_int "aborted ops closed as aborted spans" (List.length (History.aborted h))
    aborted_spans

let test_send_events_match_counter () =
  let d = run_small ~events_enabled:true () in
  let sends =
    List.length
      (List.filter
         (fun { Event.ev; _ } -> match ev with Event.Send _ -> true | _ -> false)
         (Event.events (D.events d)))
  in
  check_int "Send events == net.transmit" (Metrics.get (D.metrics d) "net.transmit") sends;
  let resolved =
    List.length
      (List.filter
         (fun { Event.ev; _ } ->
           match ev with Event.Deliver _ | Event.Drop _ -> true | _ -> false)
         (Event.events (D.events d)))
  in
  check_int "every Send resolved by Deliver or Drop" sends resolved

let test_chrome_parses_back () =
  let d = run_small ~events_enabled:true () in
  let evs = Event.events (D.events d) in
  let rendered = Json.to_string (Export.chrome_of_events evs) in
  match Json.parse rendered with
  | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  | Ok json -> (
    match Json.member "traceEvents" json with
    | Some (Json.List items) ->
      let spans, _ = Export.spans_of_events evs in
      let xs =
        List.filter
          (fun item ->
            match Json.member "ph" item with
            | Some (Json.String "X") -> true
            | _ -> false)
          items
      in
      check_int "one X event per completed span" (List.length spans) (List.length xs);
      List.iter
        (fun item ->
          check_bool "every entry has a ph" true (Json.member "ph" item <> None);
          check_bool "every entry has a pid" true
            (match Json.member "pid" item with Some (Json.Int _) -> true | _ -> false))
        items
    | Some _ | None -> Alcotest.fail "missing traceEvents array")

let test_chrome_readback_spans_agree () =
  let d = run_small ~events_enabled:true () in
  let evs = Event.events (D.events d) in
  let spans, _ = Export.spans_of_events evs in
  match Json.parse (Json.to_string (Export.chrome_of_events evs)) with
  | Error e -> Alcotest.failf "chrome render invalid: %s" e
  | Ok json -> (
    match Export.events_of_chrome json with
    | Error e -> Alcotest.failf "chrome readback failed: %s" e
    | Ok evs' ->
      let spans', orphans' = Export.spans_of_events evs' in
      Alcotest.(check (list int)) "no orphans on readback" [] orphans';
      check_bool "spans survive the chrome round trip" true (spans = spans');
      (* Churn and GST instants reconstruct too. *)
      let count p l = List.length (List.filter p l) in
      let joins l =
        count (fun { Event.ev; _ } -> match ev with Event.Node_join _ -> true | _ -> false) l
      in
      let leaves l =
        count (fun { Event.ev; _ } -> match ev with Event.Node_leave _ -> true | _ -> false) l
      in
      check_int "joins survive" (joins evs) (joins evs');
      check_int "leaves survive" (leaves evs) (leaves evs'))

let test_disabled_records_nothing () =
  let d = run_small ~events_enabled:false () in
  check_int "no events recorded" 0 (Event.length (D.events d));
  check_bool "sink reports disabled" false (Event.enabled (D.events d));
  (* The run itself is unaffected: history and metrics still fill. *)
  check_bool "ops still recorded" true (List.length (History.completed_reads (D.history d)) > 0)

let test_metrics_snapshot_json () =
  let d = run_small ~events_enabled:true () in
  let snap = D.metrics_snapshot d in
  let rendered = Json.to_string (Export.metrics_to_json snap) in
  match Json.parse rendered with
  | Error e -> Alcotest.failf "metrics JSON invalid: %s" e
  | Ok json ->
    check_bool "has counters" true (Json.member "counters" json <> None);
    check_bool "has gauges" true (Json.member "gauges" json <> None);
    (match Json.member "histograms" json with
    | Some (Json.Obj fields) ->
      check_bool "latency histograms exported" true (List.mem_assoc "latency.read" fields)
    | Some _ | None -> Alcotest.fail "missing histograms")

let () =
  Alcotest.run "dds_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "jsonl byte-stable" `Quick test_jsonl_byte_stable;
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "spans match history" `Quick test_spans_match_history;
          Alcotest.test_case "send events match counter" `Quick
            test_send_events_match_counter;
          Alcotest.test_case "chrome parses back" `Quick test_chrome_parses_back;
          Alcotest.test_case "chrome readback spans agree" `Quick
            test_chrome_readback_spans_agree;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "metrics snapshot json" `Quick test_metrics_snapshot_json;
        ] );
    ]
