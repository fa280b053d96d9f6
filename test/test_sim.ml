(* Unit and property tests for the simulation substrate: Time, Rng,
   Heap, Scheduler, Stats, Trace, Metrics. *)

open Dds_sim

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_basics () =
  check_int "zero" 0 (Time.to_int Time.zero);
  check_int "of_int round trip" 42 (Time.to_int (Time.of_int 42));
  check_int "add" 7 (Time.to_int (Time.add (Time.of_int 3) 4));
  check_int "diff" 4 (Time.diff (Time.of_int 7) (Time.of_int 3));
  check_int "negative diff" (-4) (Time.diff (Time.of_int 3) (Time.of_int 7));
  check_bool "lt" true Time.(Time.of_int 1 < Time.of_int 2);
  check_bool "le eq" true Time.(Time.of_int 2 <= Time.of_int 2);
  check_bool "gt" true Time.(Time.of_int 3 > Time.of_int 2);
  check_int "min" 1 (Time.to_int (Time.min (Time.of_int 1) (Time.of_int 2)));
  check_int "max" 2 (Time.to_int (Time.max (Time.of_int 1) (Time.of_int 2)))

let test_time_invalid () =
  Alcotest.check_raises "negative of_int" (Invalid_argument "Time.of_int: negative time")
    (fun () -> ignore (Time.of_int (-1)));
  Alcotest.check_raises "add into negative"
    (Invalid_argument "Time.add: resulting time is negative") (fun () ->
      ignore (Time.add (Time.of_int 1) (-5)))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:1234 and b = Rng.create ~seed:1234 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_rng_int_bounds () =
  let g = Rng.create ~seed:99 in
  for _ = 1 to 1000 do
    let x = Rng.int g 17 in
    check_bool "in [0,17)" true (x >= 0 && x < 17)
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in_range g ~lo:5 ~hi:9 in
    check_bool "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_rng_int_coverage () =
  (* Every residue of a small bound shows up in a modest number of draws. *)
  let g = Rng.create ~seed:7 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int g 5) <- true
  done;
  Array.iteri (fun i b -> check_bool (Printf.sprintf "residue %d seen" i) true b) seen

let test_rng_invalid () =
  let g = Rng.create ~seed:0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0));
  Alcotest.check_raises "hi < lo" (Invalid_argument "Rng.int_in_range: hi < lo") (fun () ->
      ignore (Rng.int_in_range g ~lo:3 ~hi:2));
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick g [||]))

let test_rng_split_independence () =
  let parent = Rng.create ~seed:5 in
  let child = Rng.split parent in
  (* The child stream must not mirror the parent stream. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr same
  done;
  check_bool "split independent" true (!same < 4)

let test_rng_shuffle_permutes () =
  let g = Rng.create ~seed:11 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle_in_place g arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.insert h) [ 5; 1; 4; 1; 3; 9; 0 ];
  check_int "length" 7 (Heap.length h);
  check_int "top" 0 (Heap.top h);
  let drained = List.init 7 (fun _ -> Heap.pop h) in
  Alcotest.(check (list int)) "sorted drain" [ 0; 1; 1; 3; 4; 5; 9 ] drained;
  check_bool "empty after drain" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty heap") (fun () ->
      ignore (Heap.pop h))

let test_heap_to_sorted_list () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.insert h) [ 3; 1; 2 ];
  Alcotest.(check (list int)) "sorted view" [ 1; 2; 3 ] (Heap.to_sorted_list h);
  check_int "non destructive" 3 (Heap.length h)

let test_heap_clear () =
  let h = Heap.create ~cmp:Int.compare () in
  List.iter (Heap.insert h) [ 1; 2 ];
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let prop_heap_model =
  QCheck2.Test.make ~name:"heap drains like a sorted list" ~count:300
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare () in
      List.iter (Heap.insert h) xs;
      let drained =
        let rec go acc = if Heap.is_empty h then List.rev acc else go (Heap.pop h :: acc) in
        go []
      in
      drained = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* Scheduler *)

let test_scheduler_order () =
  let s = Scheduler.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Scheduler.schedule_at s (Time.of_int 10) (note "c"));
  ignore (Scheduler.schedule_at s (Time.of_int 5) (note "a"));
  ignore (Scheduler.schedule_at s (Time.of_int 7) (note "b"));
  Scheduler.run s ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  check_int "clock at last event" 10 (Time.to_int (Scheduler.now s))

let test_scheduler_fifo_ties () =
  let s = Scheduler.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Scheduler.schedule_at s (Time.of_int 3) (note "first"));
  ignore (Scheduler.schedule_at s (Time.of_int 3) (note "second"));
  ignore (Scheduler.schedule_at s (Time.of_int 3) (note "third"));
  Scheduler.run s ();
  Alcotest.(check (list string)) "fifo ties" [ "first"; "second"; "third" ] (List.rev !log)

let test_scheduler_cancel () =
  let s = Scheduler.create () in
  let fired = ref false in
  let tok = Scheduler.schedule_at s (Time.of_int 2) (fun () -> fired := true) in
  Scheduler.cancel s tok;
  Scheduler.run s ();
  check_bool "cancelled event silent" false !fired;
  (* Cancelling twice is harmless. *)
  Scheduler.cancel s tok

let test_scheduler_past_rejected () =
  let s = Scheduler.create () in
  ignore (Scheduler.schedule_at s (Time.of_int 5) (fun () -> ()));
  Scheduler.run s ();
  check_bool "raises on past" true
    (try
       ignore (Scheduler.schedule_at s (Time.of_int 1) (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_scheduler_nested_scheduling () =
  let s = Scheduler.create () in
  let log = ref [] in
  ignore
    (Scheduler.schedule_at s (Time.of_int 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Scheduler.schedule_after s 0 (fun () -> log := "same-tick" :: !log));
         ignore (Scheduler.schedule_after s 2 (fun () -> log := "later" :: !log))));
  Scheduler.run s ();
  Alcotest.(check (list string))
    "nested order" [ "outer"; "same-tick"; "later" ] (List.rev !log)

let test_scheduler_run_until () =
  let s = Scheduler.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Scheduler.schedule_at s (Time.of_int t) (fun () -> fired := t :: !fired)))
    [ 1; 5; 10; 15 ];
  Scheduler.run_until s (Time.of_int 10);
  Alcotest.(check (list int)) "within horizon" [ 1; 5; 10 ] (List.rev !fired);
  check_int "clock = horizon" 10 (Time.to_int (Scheduler.now s));
  Scheduler.run_until s (Time.of_int 20);
  Alcotest.(check (list int)) "rest fired" [ 1; 5; 10; 15 ] (List.rev !fired);
  check_int "clock pushed to horizon" 20 (Time.to_int (Scheduler.now s))

let test_scheduler_run_until_cancelled_head () =
  let s = Scheduler.create () in
  let fired = ref false in
  let tok = Scheduler.schedule_at s (Time.of_int 2) (fun () -> ()) in
  ignore (Scheduler.schedule_at s (Time.of_int 50) (fun () -> fired := true));
  Scheduler.cancel s tok;
  Scheduler.run_until s (Time.of_int 10);
  check_bool "beyond-horizon event did not fire" false !fired

let test_scheduler_max_events () =
  let s = Scheduler.create () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Scheduler.schedule_after s 1 reschedule)
  in
  ignore (Scheduler.schedule_after s 1 reschedule);
  Scheduler.run s ~max_events:25 ();
  check_int "bounded" 25 !count;
  check_int "events_fired" 25 (Scheduler.events_fired s)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basics () =
  let s = Stats.create () in
  List.iter (Stats.add_int s) [ 1; 2; 3; 4; 5 ];
  check_int "count" 5 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 3.0 (Stats.mean s);
  check (Alcotest.float 1e-9) "min" 1.0 (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 5.0 (Stats.max_value s);
  check (Alcotest.float 1e-9) "median" 3.0 (Stats.median s);
  check (Alcotest.float 1e-9) "p100" 5.0 (Stats.percentile s 100.0);
  check (Alcotest.float 1e-9) "total" 15.0 (Stats.total s)

let test_stats_empty () =
  let s = Stats.create () in
  check_bool "mean nan" true (Float.is_nan (Stats.mean s));
  check_bool "median nan" true (Float.is_nan (Stats.median s));
  check_int "count 0" 0 (Stats.count s)

let test_stats_percentile_rank () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add_int s i
  done;
  check (Alcotest.float 1e-9) "p1" 1.0 (Stats.percentile s 1.0);
  check (Alcotest.float 1e-9) "p50" 50.0 (Stats.percentile s 50.0);
  check (Alcotest.float 1e-9) "p99" 99.0 (Stats.percentile s 99.0)

let test_stats_stddev_and_samples () =
  let s = Stats.create () in
  List.iter (Stats.add_int s) [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  check (Alcotest.float 1e-9) "population stddev" 2.0 (Stats.stddev s);
  Alcotest.(check (array (float 1e-9)))
    "samples keep insertion order"
    [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |]
    (Stats.samples s);
  check_bool "invalid percentile" true
    (try
       ignore (Stats.percentile s 101.0);
       false
     with Invalid_argument _ -> true)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () in
  List.iter (Stats.add_int a) [ 1; 2 ];
  List.iter (Stats.add_int b) [ 3; 4 ];
  let m = Stats.merge a b in
  check_int "merged count" 4 (Stats.count m);
  check (Alcotest.float 1e-9) "merged mean" 2.5 (Stats.mean m)

let prop_stats_mean_bounds =
  QCheck2.Test.make ~name:"mean lies within [min,max]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-9 && m <= Stats.max_value s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Trace / Metrics *)

let test_trace_roundtrip () =
  let tr = Trace.create ~enabled:true () in
  Trace.record tr ~time:(Time.of_int 1) ~topic:"a" "one";
  Trace.recordf tr ~time:(Time.of_int 2) ~topic:"b" "two=%d" 2;
  check_int "length" 2 (Trace.length tr);
  (match Trace.entries tr with
  | [ e1; e2 ] ->
    check Alcotest.string "topic order" "a" e1.Trace.topic;
    check Alcotest.string "formatted" "two=2" e2.Trace.detail
  | _ -> Alcotest.fail "expected two entries");
  check_int "find" 1 (List.length (Trace.find tr ~topic:"a"));
  Trace.clear tr;
  check_int "cleared" 0 (Trace.length tr)

let test_trace_disabled () =
  let tr = Trace.create ~enabled:false () in
  Trace.record tr ~time:Time.zero ~topic:"x" "dropped";
  Trace.recordf tr ~time:Time.zero ~topic:"x" "dropped %d" 1;
  check_int "nothing recorded" 0 (Trace.length tr)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m "a";
  Metrics.add m "b" 5;
  check_int "a" 2 (Metrics.get m "a");
  check_int "b" 5 (Metrics.get m "b");
  check_int "absent" 0 (Metrics.get m "zzz");
  Alcotest.(check (list (pair string int))) "to_list sorted" [ ("a", 2); ("b", 5) ]
    (Metrics.to_list m);
  Metrics.reset m;
  check_int "reset" 0 (Metrics.get m "a")

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_bucket_edges () =
  let h = Histogram.create ~edges:[| 1.0; 2.0; 4.0 |] in
  (* A sample exactly on an edge lands in that edge's bucket. *)
  Histogram.add h 1.0;
  Histogram.add h 2.0;
  Histogram.add h 4.0;
  Histogram.add h 0.5;
  Histogram.add h 3.0;
  Histogram.add h 100.0;
  Alcotest.(check (array int)) "bucket layout" [| 2; 1; 2; 1 |] (Histogram.counts h);
  check_int "count" 6 (Histogram.count h);
  check (Alcotest.float 1e-9) "min exact" 0.5 (Histogram.min_value h);
  check (Alcotest.float 1e-9) "max exact" 100.0 (Histogram.max_value h)

let test_histogram_percentile () =
  let h = Histogram.create ~edges:[| 1.0; 2.0; 4.0; 8.0 |] in
  List.iter (Histogram.add_int h) [ 1; 1; 1; 1; 2; 2; 3; 4; 5; 16 ];
  (* Percentiles are quantized up to the containing bucket's edge. *)
  check (Alcotest.float 1e-9) "p50 quantized" 2.0 (Histogram.percentile h 50.0);
  check (Alcotest.float 1e-9) "p90 quantized" 8.0 (Histogram.percentile h 90.0);
  (* Overflow-bucket samples report the exact maximum instead. *)
  check (Alcotest.float 1e-9) "p100 overflow exact" 16.0 (Histogram.percentile h 100.0);
  check (Alcotest.float 1e-9) "mean exact" 3.6 (Histogram.mean h)

let test_histogram_generators_and_merge () =
  let lin = Histogram.linear ~lo:10.0 ~step:5.0 ~buckets:3 in
  Alcotest.(check (array (float 1e-9))) "linear edges" [| 10.0; 15.0; 20.0 |]
    (Histogram.edges lin);
  let exp = Histogram.exponential ~lo:1.0 ~factor:2.0 ~buckets:4 in
  Alcotest.(check (array (float 1e-9))) "exponential edges" [| 1.0; 2.0; 4.0; 8.0 |]
    (Histogram.edges exp);
  let a = Histogram.create ~edges:[| 1.0; 2.0 |] in
  let b = Histogram.create ~edges:[| 1.0; 2.0 |] in
  Histogram.add a 0.5;
  Histogram.add b 1.5;
  Histogram.add b 9.0;
  let m = Histogram.merge a b in
  check_int "merged count" 3 (Histogram.count m);
  Alcotest.(check (array int)) "merged buckets" [| 1; 1; 1 |] (Histogram.counts m);
  Alcotest.check_raises "layout mismatch"
    (Invalid_argument "Histogram.merge: bucket layouts differ") (fun () ->
      ignore (Histogram.merge a (Histogram.create ~edges:[| 3.0 |])))

let test_histogram_invalid () =
  Alcotest.check_raises "empty edges"
    (Invalid_argument "Histogram.create: no bucket edges") (fun () ->
      ignore (Histogram.create ~edges:[||]));
  Alcotest.check_raises "non-increasing edges"
    (Invalid_argument "Histogram.create: edges must be strictly increasing") (fun () ->
      ignore (Histogram.create ~edges:[| 1.0; 1.0 |]))

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.Float 2.5);
        ("c", Json.String "x\"y\n\tz");
        ("d", Json.List [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Int (-3) ]) ]);
      ]
  in
  match Json.parse (Json.to_string v) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok v' -> check_bool "roundtrip" true (v = v')

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with Ok _ -> Alcotest.failf "accepted %S" s | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "tru";
  bad "1 2"

let test_json_escapes () =
  match Json.parse {|"Aé\t"|} with
  | Ok (Json.String s) -> check Alcotest.string "unicode escapes" "A\xc3\xa9\t" s
  | Ok _ | Error _ -> Alcotest.fail "expected a string"

(* ------------------------------------------------------------------ *)
(* Event sink *)

let test_event_sink_records () =
  let s = Event.create ~enabled:true () in
  Event.emit s ~at:Time.zero (Event.Node_join { node = 1 });
  Event.emit s ~at:(Time.of_int 3) (Event.Gst_reached);
  check_int "two events" 2 (Event.length s);
  (match Event.events s with
  | [ { Event.at = t0; ev = Event.Node_join { node = 1 } }; { Event.at = t3; _ } ] ->
    check_int "first at 0" 0 (Time.to_int t0);
    check_int "second at 3" 3 (Time.to_int t3)
  | _ -> Alcotest.fail "unexpected event list");
  Event.clear s;
  check_int "cleared" 0 (Event.length s)

let test_event_sink_disabled () =
  let s = Event.create ~enabled:false () in
  for i = 0 to 99 do
    Event.emit s ~at:Time.zero (Event.Node_join { node = i })
  done;
  check_int "disabled sink records nothing" 0 (Event.length s);
  (* Span ids still advance so code paths stay identical either way. *)
  check_int "span 0" 0 (Event.fresh_span s);
  check_int "span 1" 1 (Event.fresh_span s)

let test_event_unclosed_spans () =
  let s = Event.create ~enabled:true () in
  let at = Time.zero in
  Event.emit s ~at (Event.Op_start { span = 0; node = 1; op = Event.Read; value = None });
  Event.emit s ~at (Event.Op_start { span = 1; node = 2; op = Event.Write; value = None });
  Event.emit s ~at
    (Event.Op_end
       { span = 0; node = 1; op = Event.Read; outcome = Event.Completed; value = None });
  Event.emit s ~at (Event.Op_start { span = 2; node = 3; op = Event.Join; value = None });
  Alcotest.(check (list int)) "spans 1 and 2 open" [ 1; 2 ]
    (Event.unclosed_spans (Event.events s))

(* ------------------------------------------------------------------ *)
(* Metrics gauges / histograms / snapshot *)

let test_metrics_gauges_histograms () =
  let m = Metrics.create () in
  Metrics.set_gauge m "g" 1.0;
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (option (float 1e-9))) "last write wins" (Some 2.5) (Metrics.gauge m "g");
  Alcotest.(check (option (float 1e-9))) "absent gauge" None (Metrics.gauge m "zzz");
  let edges = [| 1.0; 2.0 |] in
  Metrics.observe m "h" ~edges 0.5;
  Metrics.observe m "h" ~edges 5.0;
  let h = Metrics.histogram m "h" ~edges in
  check_int "histogram fed" 2 (Histogram.count h);
  let snap = Metrics.snapshot m in
  check_int "snapshot histograms" 1 (List.length snap.Metrics.histogram_values);
  let _, hs = List.hd snap.Metrics.histogram_values in
  check_int "snapshot count" 2 hs.Metrics.count;
  check (Alcotest.float 1e-9) "snapshot sum" 5.5 hs.Metrics.sum;
  Metrics.reset m;
  check_int "reset drops histograms" 0 (List.length (Metrics.histograms m));
  Alcotest.(check (option (float 1e-9))) "reset drops gauges" None (Metrics.gauge m "g")

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_sim"
    [
      ( "time",
        [
          Alcotest.test_case "basics" `Quick test_time_basics;
          Alcotest.test_case "invalid" `Quick test_time_invalid;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
          Alcotest.test_case "invalid args" `Quick test_rng_invalid;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "sorted view" `Quick test_heap_to_sorted_list;
          Alcotest.test_case "clear" `Quick test_heap_clear;
        ] );
      qsuite "heap-props" [ prop_heap_model ];
      ( "scheduler",
        [
          Alcotest.test_case "time order" `Quick test_scheduler_order;
          Alcotest.test_case "fifo ties" `Quick test_scheduler_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_scheduler_cancel;
          Alcotest.test_case "past rejected" `Quick test_scheduler_past_rejected;
          Alcotest.test_case "nested scheduling" `Quick test_scheduler_nested_scheduling;
          Alcotest.test_case "run_until" `Quick test_scheduler_run_until;
          Alcotest.test_case "run_until cancelled head" `Quick
            test_scheduler_run_until_cancelled_head;
          Alcotest.test_case "max events" `Quick test_scheduler_max_events;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentiles" `Quick test_stats_percentile_rank;
          Alcotest.test_case "stddev and samples" `Quick test_stats_stddev_and_samples;
          Alcotest.test_case "merge" `Quick test_stats_merge;
        ] );
      qsuite "stats-props" [ prop_stats_mean_bounds ];
      ( "trace-metrics",
        [
          Alcotest.test_case "trace roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "trace disabled" `Quick test_trace_disabled;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "gauges and histograms" `Quick test_metrics_gauges_histograms;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "percentiles" `Quick test_histogram_percentile;
          Alcotest.test_case "generators and merge" `Quick
            test_histogram_generators_and_merge;
          Alcotest.test_case "invalid" `Quick test_histogram_invalid;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
        ] );
      ( "event",
        [
          Alcotest.test_case "records" `Quick test_event_sink_records;
          Alcotest.test_case "disabled" `Quick test_event_sink_disabled;
          Alcotest.test_case "unclosed spans" `Quick test_event_unclosed_spans;
        ] );
    ]
