(* Tests for the geographic-zone world: plane geometry, random-waypoint
   mobility, zone crossing = join/leave semantics, and the emergent
   churn the register experiences. *)

open Dds_sim
open Dds_geo

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_float = check (Alcotest.float 1e-9)
let time = Time.of_int

(* ------------------------------------------------------------------ *)
(* Point *)

let test_point_geometry () =
  let a = Point.make ~x:0.0 ~y:0.0 and b = Point.make ~x:3.0 ~y:4.0 in
  check_float "distance" 5.0 (Point.distance a b);
  check_bool "within" true (Point.within b ~center:a ~radius:5.0);
  check_bool "boundary inclusive" true (Point.within b ~center:a ~radius:5.0);
  check_bool "outside" false (Point.within b ~center:a ~radius:4.9)

let test_point_towards () =
  let from = Point.origin and goal = Point.make ~x:10.0 ~y:0.0 in
  let mid = Point.towards ~from ~goal ~step:4.0 in
  check_float "partial step x" 4.0 mid.Point.x;
  check_float "partial step y" 0.0 mid.Point.y;
  let landed = Point.towards ~from:mid ~goal ~step:100.0 in
  check_bool "overshoot lands on goal" true (Point.distance landed goal = 0.0);
  let stay = Point.towards ~from:goal ~goal ~step:1.0 in
  check_bool "already there" true (Point.distance stay goal = 0.0)

let test_point_random_in_box () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let p = Point.random_in_box rng ~width:30.0 ~height:7.0 in
    check_bool "in box" true
      (p.Point.x >= 0.0 && p.Point.x <= 30.0 && p.Point.y >= 0.0 && p.Point.y <= 7.0)
  done

(* ------------------------------------------------------------------ *)
(* Mobility *)

let test_walker_moves_at_speed () =
  let rng = Rng.create ~seed:7 in
  let w = Mobility.create rng ~width:100.0 ~height:100.0 ~speed:2.5 in
  let before = Mobility.position w in
  Mobility.step w rng;
  let after = Mobility.position w in
  check_bool "moved at most speed" true (Point.distance before after <= 2.5 +. 1e-9);
  check_bool "moved at all" true (Point.distance before after > 0.0)

let test_walker_zero_speed_is_static () =
  let rng = Rng.create ~seed:7 in
  let w = Mobility.create rng ~width:100.0 ~height:100.0 ~speed:0.0 in
  let before = Mobility.position w in
  for _ = 1 to 50 do
    Mobility.step w rng
  done;
  check_bool "static" true (Point.distance before (Mobility.position w) = 0.0)

let test_walker_stays_in_box () =
  let rng = Rng.create ~seed:11 in
  let w = Mobility.create rng ~width:20.0 ~height:20.0 ~speed:6.0 in
  for _ = 1 to 500 do
    Mobility.step w rng;
    let p = Mobility.position w in
    check_bool "in box" true
      (p.Point.x >= 0.0 && p.Point.x <= 20.0 && p.Point.y >= 0.0 && p.Point.y <= 20.0)
  done

let test_walker_invalid () =
  let rng = Rng.create ~seed:1 in
  check_bool "negative speed" true
    (try
       ignore (Mobility.create rng ~width:10.0 ~height:10.0 ~speed:(-1.0));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Zone world *)

let test_world_never_born_empty () =
  (* Even a seed where no walker lands in the zone starts with one
     founder (teleported to the centre). *)
  for seed = 0 to 20 do
    let w = Zone_world.create (Zone_world.default_config ~seed ~speed:1.0) in
    check_bool "population >= 1" true (Zone_world.zone_population w >= 1)
  done

let test_world_static_walkers_no_churn () =
  let w = Zone_world.create (Zone_world.default_config ~seed:5 ~speed:0.0) in
  Zone_world.start w ~until:(time 300);
  Zone_world.start_activity w ~read_rate:1.0 ~write_every:20 ~until:(time 300);
  Zone_world.run_until w (time 330);
  let entries, exits = Zone_world.crossings w in
  check_int "no entries" 0 entries;
  check_int "no exits" 0 exits;
  check_float "churn zero" 0.0 (Zone_world.emergent_churn w);
  let r = Zone_world.regularity w in
  check_bool "register regular" true (Dds_spec.Regularity.is_ok r);
  check_bool "reads flowed" true (r.Dds_spec.Regularity.checked_reads > 200)

let test_world_crossings_balance () =
  let w = Zone_world.create (Zone_world.default_config ~seed:9 ~speed:2.0) in
  Zone_world.start w ~until:(time 500);
  Zone_world.run_until w (time 520);
  let entries, exits = Zone_world.crossings w in
  check_bool "plenty of crossings" true (entries > 50);
  (* Entries and exits differ at most by the current population. *)
  check_bool "balanced" true (abs (entries - exits) <= Zone_world.zone_population w + 1)

let test_world_emergent_churn_grows_with_speed () =
  let churn speed =
    let w = Zone_world.create (Zone_world.default_config ~seed:5 ~speed) in
    Zone_world.start w ~until:(time 500);
    Zone_world.run_until w (time 520);
    Zone_world.emergent_churn w
  in
  let slow = churn 0.5 and fast = churn 4.0 in
  check_bool "monotone in speed" true (fast > (2.0 *. slow))

let test_world_register_safe_below_speed_limit () =
  (* Speed 1.0: emergent churn ~0.02, well under 1/(3*3) = 0.111. *)
  let w = Zone_world.create (Zone_world.default_config ~seed:13 ~speed:1.0) in
  Zone_world.start w ~until:(time 800);
  Zone_world.start_activity w ~read_rate:1.0 ~write_every:15 ~until:(time 800);
  Zone_world.run_until w (time 850);
  let r = Zone_world.regularity w in
  check_bool "regular" true (Dds_spec.Regularity.is_ok r);
  check_bool "joins completed" true (r.Dds_spec.Regularity.checked_joins > 50);
  check_bool "reads completed" true (r.Dds_spec.Regularity.checked_reads > 400)

let test_world_fast_transit_starves_joins () =
  (* Speed 16: transit time through the zone is shorter than the
     3*delta join, so (with retrying joins) nobody new ever activates
     and the register goes quiet — liveness collapse, not corruption. *)
  let w = Zone_world.create (Zone_world.default_config ~seed:5 ~speed:16.0) in
  Zone_world.start w ~until:(time 800);
  Zone_world.start_activity w ~read_rate:1.0 ~write_every:15 ~until:(time 800);
  Zone_world.run_until w (time 850);
  let r = Zone_world.regularity w in
  check_int "no join ever completes" 0 r.Dds_spec.Regularity.checked_joins;
  check_bool "almost no reads" true (r.Dds_spec.Regularity.checked_reads < 20);
  check_int "yet zero violations" 0 (List.length r.Dds_spec.Regularity.violations)

let test_world_reentry_gets_fresh_identity () =
  let w = Zone_world.create (Zone_world.default_config ~seed:9 ~speed:2.0) in
  Zone_world.start w ~until:(time 500);
  Zone_world.run_until w (time 520);
  let entries, _ = Zone_world.crossings w in
  (* Far more identities were issued than walkers exist: re-entries are
     new processes. *)
  let identities =
    List.length (Dds_churn.Membership.records (Zone_world.membership w))
  in
  check_bool "identities = founders + entries" true (identities > 40 && entries > 40);
  check_bool "more identities than walkers" true (identities > 40)

(* Exact oracle for the zone world's op bookkeeping: E19 prints only
   aggregates, so this pins the whole history of one churned run (joins
   completed and aborted, writes completed and aborted, reads) byte for
   byte. *)
let churned_world () =
  let w = Zone_world.create (Zone_world.default_config ~seed:9 ~speed:3.0) in
  Zone_world.start w ~until:(time 400);
  Zone_world.start_activity w ~read_rate:1.5 ~write_every:4 ~until:(time 400);
  Zone_world.run_until w (time 420);
  w

let test_world_history_pinned () =
  let open Dds_spec in
  let h = Zone_world.history (churned_world ()) in
  let aborted kind =
    List.exists
      (fun (o : History.op) ->
        match (o.History.kind, kind) with
        | History.Join _, `Join | History.Write _, `Write -> true
        | _ -> false)
      (History.aborted h)
  in
  check_bool "completed joins" true (History.completed_joins h <> []);
  check_bool "aborted joins" true (aborted `Join);
  check_bool "completed writes" true (History.completed_writes h <> []);
  check_bool "aborted writes" true (aborted `Write);
  check Alcotest.string "history digest" "442e525e696de3ee97b68c7dca2906be"
    (Digest.to_hex (Digest.string (History.to_csv h)))

(* A writer that wanders out before its delta wait ends leaves an
   aborted write; a write is left open only by a writer still inside. *)
let test_world_exit_mid_write_aborts () =
  let open Dds_spec in
  let w = churned_world () in
  let left (o : History.op) =
    match Dds_churn.Membership.find_record (Zone_world.membership w) o.History.pid with
    | Some r -> r.Dds_churn.Membership.leave_time
    | None -> None
  in
  let writes =
    List.filter
      (fun (o : History.op) -> match o.History.kind with History.Write _ -> true | _ -> false)
      (History.ops (Zone_world.history w))
  in
  let aborted = List.filter (fun (o : History.op) -> o.History.aborted) writes in
  check_bool "some writer left mid-write" true (aborted <> []);
  List.iter
    (fun (o : History.op) ->
      check_bool "never responded" true (o.History.responded = None);
      check_bool "writer left after invoking" true
        (match left o with Some at -> Time.(at >= o.History.invoked) | None -> false))
    aborted;
  List.iter
    (fun (o : History.op) ->
      if (not o.History.aborted) && o.History.responded = None then
        check_bool "open write's writer still inside" true (left o = None))
    writes

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prop_towards_never_overshoots =
  QCheck2.Test.make ~name:"towards never overshoots the goal" ~count:300
    QCheck2.Gen.(
      tup5 (float_range 0.0 50.0) (float_range 0.0 50.0) (float_range 0.0 50.0)
        (float_range 0.0 50.0) (float_range 0.01 20.0))
    (fun (x1, y1, x2, y2, step) ->
      let from = Point.make ~x:x1 ~y:y1 and goal = Point.make ~x:x2 ~y:y2 in
      let next = Point.towards ~from ~goal ~step in
      Point.distance next goal <= Point.distance from goal +. 1e-9)

let () =
  Alcotest.run "dds_geo"
    [
      ( "point",
        [
          Alcotest.test_case "geometry" `Quick test_point_geometry;
          Alcotest.test_case "towards" `Quick test_point_towards;
          Alcotest.test_case "random in box" `Quick test_point_random_in_box;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "moves at speed" `Quick test_walker_moves_at_speed;
          Alcotest.test_case "zero speed static" `Quick test_walker_zero_speed_is_static;
          Alcotest.test_case "stays in box" `Quick test_walker_stays_in_box;
          Alcotest.test_case "invalid" `Quick test_walker_invalid;
        ] );
      ( "zone-world",
        [
          Alcotest.test_case "never born empty" `Quick test_world_never_born_empty;
          Alcotest.test_case "static walkers no churn" `Quick
            test_world_static_walkers_no_churn;
          Alcotest.test_case "crossings balance" `Quick test_world_crossings_balance;
          Alcotest.test_case "churn grows with speed" `Quick
            test_world_emergent_churn_grows_with_speed;
          Alcotest.test_case "safe below speed limit" `Slow
            test_world_register_safe_below_speed_limit;
          Alcotest.test_case "fast transit starves joins" `Slow
            test_world_fast_transit_starves_joins;
          Alcotest.test_case "re-entry fresh identity" `Quick
            test_world_reentry_gets_fresh_identity;
          Alcotest.test_case "history pinned" `Quick test_world_history_pinned;
          Alcotest.test_case "exit mid-write aborts" `Quick test_world_exit_mid_write_aborts;
        ] );
      qsuite "geo-props" [ prop_towards_never_overshoots ];
    ]
