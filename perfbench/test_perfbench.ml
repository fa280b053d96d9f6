(* The benchmark's own tests: its statistics, its client-side
   regularity check, and the one-process live fixture's teardown. *)

open Perfbench

let floats = Alcotest.(array (float 1e-9))

let test_median () =
  Alcotest.(check (float 0.)) "odd count" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 0.)) "even count: mean of the middle pair" 2.5
    (Stats.median [| 4.; 1.; 3.; 2. |])

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  Alcotest.check floats "1..10" [| 2.75; 5.5; 8.25 |]
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (10 - i))));
  Alcotest.check floats "1..4" [| 1.25; 2.5; 3.75 |] (Stats.quartiles [| 3.; 1.; 4.; 2. |]);
  Alcotest.check floats "two samples" [| 0.75; 1.5; 2.25 |] (Stats.quartiles [| 2.; 1. |]);
  Alcotest.check floats "ties" [| 7.; 7.; 7. |] (Stats.quartiles (Array.make 5 7.))

let test_percentile () =
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.)) "p50" 500. (Stats.percentile a 50.);
  Alcotest.(check (float 0.)) "p99" 990. (Stats.percentile a 99.);
  Alcotest.(check (float 0.)) "p100" 1000. (Stats.percentile a 100.);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stats.beyond 1000 99.);
  let s = Stats.samples () in
  for i = 1 to 5000 do
    Stats.push s (float_of_int i)
  done;
  Alcotest.(check int) "growable buffer keeps every sample" 5000 (Array.length (Stats.to_array s))

let test_regcheck () =
  let c = Regcheck.create ~registers:2 ~initial:0 in
  let fresh = Regcheck.read_sent c 0 in
  Alcotest.(check bool) "initial value before any write" true (Regcheck.read_ok c fresh 0);
  Regcheck.write_sent c 0 1;
  Alcotest.(check bool) "write 1 acked in order" true (Regcheck.write_acked c 0 1);
  Regcheck.write_sent c 0 2;
  Alcotest.(check bool) "write 2 acked in order" true (Regcheck.write_acked c 0 2);
  let after = Regcheck.read_sent c 0 in
  Alcotest.(check bool) "injected stale read caught" false (Regcheck.read_ok c after 1);
  Alcotest.(check bool) "initial value is stale too" false (Regcheck.read_ok c after 0);
  Alcotest.(check bool) "last acked write allowed" true (Regcheck.read_ok c after 2);
  Regcheck.write_sent c 0 3;
  Alcotest.(check bool) "concurrent write allowed" true (Regcheck.read_ok c after 3);
  Alcotest.(check bool) "never-written value caught" false (Regcheck.read_ok c after 9);
  Alcotest.(check bool) "other register untouched" true
    (Regcheck.read_ok c (Regcheck.read_sent c 1) 0);
  Alcotest.(check bool) "register 1 never saw write 2" false
    (Regcheck.read_ok c (Regcheck.read_sent c 1) 2);
  Regcheck.write_sent c 0 4;
  Alcotest.(check bool) "out-of-order ack caught" false (Regcheck.write_acked c 0 4)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let refused (host, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
      | () -> false
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true)

let test_fixture_teardown () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fds = open_fds () in
  let s = Live.set_up ~mix:{ Live.write_ratio = 0.5; zipf_s = 1.0; keys = 64 } ~seed:3 in
  let w = Live.window s ~seconds:0.2 in
  let td = Live.tear_down s in
  Alcotest.(check bool) "ops answered" true (w.Live.ops > 0);
  Alcotest.(check int) "no failed op" 0 (s.Live.gen.Live.failed + Live.server_failures td);
  Alcotest.(check bool) "no child left" true
    (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | _ -> false);
  Alcotest.(check int) "no descriptor leaked" fds (open_fds ());
  Array.iter
    (fun addr -> Alcotest.(check bool) "listening port closed" true (refused addr))
    s.Live.srv.Live.addrs

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile ] );
      ("regcheck", [ Alcotest.test_case "stale read caught" `Quick test_regcheck ]);
      ("fixture", [ Alcotest.test_case "one-process teardown" `Quick test_fixture_teardown ]) ]
