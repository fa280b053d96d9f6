(* Tests for the schedule explorer: choice-point plumbing in the
   scheduler, frontier expansion, the schedule codec, clean bounded
   checks of all three protocols, the ES quorum mutation finding a
   replayable counterexample, and worker-count invariance of explored
   counts. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_check
module Pool = Dds_engine.Pool

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Scheduler choice points *)

let test_chooser_orders_ready_set () =
  let s = Scheduler.create () in
  let fired = ref [] in
  let tag actor = { Scheduler.actor; kind = Printf.sprintf "ev%d" actor } in
  List.iter
    (fun a ->
      ignore
        (Scheduler.schedule_at s ~tag:(tag a) (Time.of_int 5) (fun () ->
             fired := a :: !fired)))
    [ 0; 1; 2 ];
  (* Pick the highest-index candidate each time: reverse of FIFO. *)
  Scheduler.set_chooser s (Some (fun cands -> Array.length cands - 1));
  Scheduler.run s ();
  check_bool "chooser controls firing order" true (List.rev !fired = [ 2; 1; 0 ]);
  check_int "time advanced once" 5 (Time.to_int (Scheduler.now s))

let test_chooser_skipped_for_singletons () =
  let s = Scheduler.create () in
  let asked = ref 0 in
  let fired = ref 0 in
  ignore (Scheduler.schedule_at s (Time.of_int 1) (fun () -> incr fired));
  ignore (Scheduler.schedule_at s (Time.of_int 2) (fun () -> incr fired));
  Scheduler.set_chooser s
    (Some
       (fun _ ->
         incr asked;
         0));
  Scheduler.run s ();
  check_int "both fired" 2 !fired;
  check_int "no decision point for a lone ready event" 0 !asked

let test_chooser_candidates_expose_tags () =
  let s = Scheduler.create () in
  let seen = ref [] in
  let tag actor kind = { Scheduler.actor; kind } in
  ignore (Scheduler.schedule_at s ~tag:(tag 3 "a") (Time.of_int 1) ignore);
  ignore (Scheduler.schedule_at s ~tag:(tag 7 "b") (Time.of_int 1) ignore);
  Scheduler.set_chooser s
    (Some
       (fun cands ->
         seen :=
           Array.to_list (Array.map (fun c -> (Scheduler.candidate_tag c).Scheduler.actor) cands);
         0));
  Scheduler.run s ();
  check_bool "tags visible in seq order" true (!seen = [ 3; 7 ])

(* ------------------------------------------------------------------ *)
(* Frontier expansion *)

(* A synthetic binary tree of depth [d]: node = path as int list,
   leaves at depth d carry the path. *)
let tree_children d path =
  if List.length path >= d then [ Either.Right path ]
  else [ Either.Left (0 :: path); Either.Left (1 :: path) ]

let test_expand_frontier_deterministic () =
  let run jobs target =
    Pool.with_pool ~jobs (fun p ->
        Pool.expand_frontier p
          ~key:(fun path -> String.concat "." (List.map string_of_int path))
          ~children:(tree_children 4) ~target [ [] ])
  in
  let render fr =
    String.concat ";"
      (List.map
         (function
           | Either.Left path -> "L" ^ String.concat "" (List.map string_of_int path)
           | Either.Right path -> "R" ^ String.concat "" (List.map string_of_int path))
         fr)
  in
  let reference = render (run 1 6) in
  List.iter
    (fun jobs -> check_string "frontier independent of workers" reference (render (run jobs 6)))
    [ 2; 4 ];
  (* Target beyond the whole tree: everything dissolves into leaves. *)
  let full = run 4 1000 in
  check_int "full dissolution" 16 (List.length full);
  check_bool "all leaves" true
    (List.for_all (function Either.Right _ -> true | Either.Left _ -> false) full)

(* ------------------------------------------------------------------ *)
(* Schedule codec *)

let config ?(proto = "sync") ?(nodes = 3) ?(delta = 1) ?(writes = 1) ?(reads = 1) ?(joins = 0)
    ?quorum ?(drop_budget = 0) ?(crash_budget = 0) ?(depth_bound = 12) ?(preempt_bound = 2) ()
    =
  {
    Schedule.proto;
    nodes;
    delta;
    writes;
    reads;
    joins;
    quorum;
    drop_budget;
    crash_budget;
    depth_bound;
    preempt_bound;
  }

let test_codec_roundtrip () =
  let t =
    {
      Schedule.config = config ~proto:"es" ~quorum:1 ~drop_budget:1 ();
      decisions =
        [
          { Schedule.chosen = 2; arity = 3; label = "deliver:WRITE:p0->p2:1#1" };
          { Schedule.chosen = 1; arity = 2; label = "drop?WRITE:p0->p1=1" };
          { Schedule.chosen = 0; arity = 2; label = "timer:p1" };
        ];
    }
  in
  match Schedule.of_string (Schedule.to_string t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
    check_bool "round-trip is identity" true (t = t');
    check_string "and stable as text" (Schedule.to_string t) (Schedule.to_string t')

let test_codec_rejects_garbage () =
  let bad text =
    match Schedule.of_string text with Ok _ -> Alcotest.fail "expected parse error" | Error _ -> ()
  in
  bad "nodes=3\n";
  bad "proto=sync\nnodes=three\n";
  bad "proto=sync\nnodes=3\ndelta=1\nwrites=1\nreads=1\njoins=0\ndrop-budget=0\ncrash-budget=0\ndepth-bound=8\npreempt-bound=2\nchoice 5/3 oops\n";
  bad "what is this line\n"

let prop_codec_roundtrip =
  let gen =
    QCheck.Gen.(
      let label = oneofl [ "deliver:W:p0->p1:1#1"; "timer:p2"; "drop?READ:p1->p0=1"; "ev@t=4" ] in
      let decision =
        int_range 1 5 >>= fun arity ->
        int_range 0 (arity - 1) >>= fun chosen ->
        label >|= fun label -> { Schedule.chosen; arity; label }
      in
      list_size (int_range 0 12) decision >|= fun decisions ->
      { Schedule.config = config (); decisions })
  in
  QCheck.Test.make ~count:50 ~name:"schedule codec round-trips"
    (QCheck.make ~print:Schedule.to_string gen)
    (fun t ->
      match Schedule.of_string (Schedule.to_string t) with
      | Ok t' -> t = t'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Clean bounded checks: all three protocols, 3 nodes, no adversary. *)

let clean_check name =
  let p = Protocol.find_exn name in
  match Check.run p (config ~proto:name ()) with
  | Error e -> Alcotest.fail e
  | Ok { stats; violation } ->
    check_bool (name ^ " explored some schedules") true (stats.Check.schedules > 0);
    (match violation with
    | None -> ()
    | Some v ->
      Alcotest.failf "%s violated: %s\n%s" name
        (String.concat "; " v.Check.lines)
        (Schedule.to_string v.Check.schedule))

let test_clean_sync () = clean_check "sync"
let test_clean_es () = clean_check "es"
let test_clean_abd () = clean_check "abd"

(* ------------------------------------------------------------------ *)
(* The ES quorum mutation: with the write/read quorum forced to 1 (the
   paper requires a majority, 2 of 3) a single dropped WRITE lets a
   read return the old value after the write completed — a regularity
   violation the checker must find, emit as a replayable schedule, and
   the replay must reproduce. *)

let es_mutation_outcome =
  lazy
    (let p = Protocol.find_exn "es" in
     Check.run p (config ~proto:"es" ~quorum:1 ~drop_budget:1 ~depth_bound:20 ()))

let test_es_mutation_caught () =
  match Lazy.force es_mutation_outcome with
  | Error e -> Alcotest.fail e
  | Ok { violation = None; _ } -> Alcotest.fail "quorum-1 mutation not caught"
  | Ok { violation = Some v; _ } ->
    check_bool "violation rendered" true (v.Check.lines <> []);
    check_bool "counterexample is positive" true (v.Check.at_schedule >= 1);
    (* Minimal: the trimmed schedule ends on a real (non-default) choice. *)
    (match List.rev v.Check.schedule.Schedule.decisions with
    | [] -> Alcotest.fail "empty counterexample"
    | last :: _ -> check_bool "no default tail" true (last.Schedule.chosen > 0))

let test_es_mutation_replays () =
  match Lazy.force es_mutation_outcome with
  | Error e -> Alcotest.fail e
  | Ok { violation = None; _ } -> Alcotest.fail "quorum-1 mutation not caught"
  | Ok { violation = Some v; _ } -> (
    (* Round-trip through the textual format, as the CLI does. *)
    match Schedule.of_string (Schedule.to_string v.Check.schedule) with
    | Error e -> Alcotest.fail e
    | Ok sched -> (
      match Check.replay_schedule sched with
      | Error e -> Alcotest.fail e
      | Ok r ->
        check_bool "replay reproduces the violation" true (r.Check.violations <> []);
        check_int "same findings" (List.length v.Check.lines) (List.length r.Check.violations)))

(* ------------------------------------------------------------------ *)
(* Oracles recorded before the exploration path stopped rendering
   strings: the explored counts of a deeper configuration (the
   benchmark's check_explore workload) and the seeded counterexample,
   byte for byte. Any change to tag equality or to the fingerprint's
   equivalence shows up here as a different count or schedule. *)

let test_explore_counts_pinned () =
  let cfg =
    config ~proto:"es" ~writes:2 ~reads:2 ~drop_budget:1 ~depth_bound:32 ~preempt_bound:2 ()
  in
  match Check.run (Protocol.find_exn "es") cfg with
  | Error e -> Alcotest.fail e
  | Ok { violation = Some _; _ } -> Alcotest.fail "majority ES violated"
  | Ok { stats = s; violation = None } ->
    List.iter
      (fun (name, expected, got) -> check_int name expected got)
      [
        ("schedules", 730, s.Check.schedules);
        ("truncated", 730, s.Check.truncated);
        ("state_prunes", 1695, s.Check.state_prunes);
        ("sleep_skips", 3076, s.Check.sleep_skips);
        ("preempt_skips", 11302, s.Check.preempt_skips);
        ("max_depth", 86, s.Check.max_depth);
        ("cache_entries", 7167, s.Check.cache_entries);
        ("cache_peak", 5561, s.Check.cache_peak);
      ]

let seeded_counterexample =
  String.concat "\n"
    [
      "# dds check schedule";
      "proto=es";
      "nodes=3";
      "delta=1";
      "writes=1";
      "reads=1";
      "joins=0";
      "quorum=1";
      "drop-budget=1";
      "crash-budget=0";
      "depth-bound=20";
      "preempt-bound=2";
      "choice 0/2 drop?READ:p0->p0=0";
      "choice 0/2 drop?READ:p0->p1=0";
      "choice 0/2 drop?READ:p0->p2=0";
      "choice 0/3 deliver:READ:p0->p0:READ(r_sn=1)";
      "choice 0/2 drop?REPLY:p0->p0=0";
      "choice 0/2 deliver:READ:p0->p1:READ(r_sn=1)";
      "choice 0/2 drop?REPLY:p1->p0=0";
      "choice 0/2 drop?REPLY:p2->p0=0";
      "choice 0/3 deliver:REPLY:p0->p0:REPLY(0#0,r_sn=1)";
      "choice 0/2 drop?ACK:p0->p0=0";
      "choice 0/2 drop?WRITE:p0->p0=0";
      "choice 1/2 drop?WRITE:p0->p1=1";
      "choice 0/2 deliver:REPLY:p1->p0:REPLY(0#0,r_sn=1)";
      "choice 0/5 deliver:ACK:p0->p0:ACK(sn=0)";
      "choice 0/4 deliver:WRITE:p0->p0:WRITE(1#1)";
      "choice 0/3 deliver:WRITE:p0->p2:WRITE(1#1)";
      "choice 0/2 deliver:ACK:p0->p1:ACK(sn=0)";
      "choice 0/2 deliver:ACK:p0->p0:ACK(sn=1)";
      "choice 1/3 deliver:READ:p1->p1:READ(r_sn=1)";
      "choice 1/2 deliver:READ:p1->p2:READ(r_sn=1)";
      "";
    ]

let test_es_mutation_pinned () =
  match Lazy.force es_mutation_outcome with
  | Error e -> Alcotest.fail e
  | Ok { violation = None; _ } -> Alcotest.fail "quorum-1 mutation not caught"
  | Ok { violation = Some v; stats } ->
    check_int "found at schedule" 72 v.Check.at_schedule;
    check_int "of" 99 stats.Check.schedules;
    check_string "counterexample, byte for byte" seeded_counterexample
      (Schedule.to_string v.Check.schedule)

(* Replay checks every forced decision's label against the run, so a
   schedule whose labels no longer describe the run is an error naming
   the decision, not a silent replay of something else. *)
let replay_edited ~from ~into =
  let edited =
    String.concat "\n"
      (List.map
         (fun line -> if String.equal line from then into else line)
         (String.split_on_char '\n' seeded_counterexample))
  in
  check_bool "the edit applies" false (String.equal edited seeded_counterexample);
  match Schedule.of_string edited with
  | Error e -> Alcotest.fail e
  | Ok sched -> Check.replay_schedule sched

let test_replay_checks_labels () =
  (match Schedule.of_string seeded_counterexample with
  | Error e -> Alcotest.fail e
  | Ok sched -> (
    match Check.replay_schedule sched with
    | Error e -> Alcotest.fail e
    | Ok r -> check_bool "unedited schedule still violates" true (r.Check.violations <> [])));
  (match
     replay_edited ~from:"choice 1/2 drop?WRITE:p0->p1=1" ~into:"choice 1/2 drop?WRITE:p0->p2=1"
   with
  | Ok _ -> Alcotest.fail "edited adversary label replayed silently"
  | Error e ->
    check_string "adversary label mismatch"
      "check: schedule divergence at decision 11: branch 1 is \"drop?WRITE:p0->p1=1\", \
       schedule recorded \"drop?WRITE:p0->p2=1\""
      e);
  match
    replay_edited ~from:"choice 1/2 deliver:READ:p1->p2:READ(r_sn=1)"
      ~into:"choice 1/2 deliver:READ:p1->p2:READ(r_sn=2)"
  with
  | Ok _ -> Alcotest.fail "edited delivery label replayed silently"
  | Error e ->
    check_string "delivery label mismatch"
      "check: schedule divergence at decision 19: branch 1 is \
       \"deliver:READ:p1->p2:READ(r_sn=1)\", schedule recorded \
       \"deliver:READ:p1->p2:READ(r_sn=2)\""
      e

let test_es_majority_tolerates_drop () =
  (* Same deployment, paper-faithful majority quorum: one drop is
     absorbed and no schedule violates regularity. *)
  let p = Protocol.find_exn "es" in
  match Check.run p (config ~proto:"es" ~drop_budget:1 ~depth_bound:20 ()) with
  | Error e -> Alcotest.fail e
  | Ok { violation = Some v; _ } ->
    Alcotest.failf "majority ES violated under one drop: %s" (String.concat "; " v.Check.lines)
  | Ok { violation = None; stats } ->
    check_bool "explored some schedules" true (stats.Check.schedules > 0)

(* ------------------------------------------------------------------ *)
(* Delivery keys against the labels they replace. Under a chooser a
   delivery's tag carries a binary key instead of the rendered label
   "deliver:KIND:src->dst:PAYLOAD". Sleep sets and state fingerprints
   compare tags, so they prune exactly as before only if two keys are
   equal precisely when the two labels are; and printed schedules stay
   byte-identical only if rendering a key gives the label back. The
   domains are small so that equal messages are drawn often. *)

module Keyed (P : Register_intf.PROTOCOL) = struct
  let old_label ~src ~dst m =
    Format.asprintf "deliver:%s:%a->%a:%a" (P.msg_kind m) Pid.pp src Pid.pp dst P.pp_msg m

  let prop gen =
    let net =
      Network.create ~sched:(Scheduler.create ()) ~rng:(Rng.create ~seed:0)
        ~delay:(Delay.synchronous ~delta:1) ~put_msg:P.put_msg ()
    in
    let delivery = QCheck.Gen.(triple (int_range 0 3) (int_range 0 3) gen) in
    let print (src, dst, m) = old_label ~src:(Pid.of_int src) ~dst:(Pid.of_int dst) m in
    QCheck.Test.make ~count:500
      ~name:(P.name ^ ": delivery keys equal iff labels equal, and render back")
      (QCheck.make ~print:QCheck.Print.(pair print print)
         QCheck.Gen.(
           (* A third of the pairs repeat the first delivery, so the
              "equal labels" side is exercised for every message shape. *)
           delivery >>= fun first ->
           map (fun second -> (first, second)) (frequency [ (1, return first); (2, delivery) ])))
      (fun ((s1, d1, m1), (s2, d2, m2)) ->
        let s1 = Pid.of_int s1 and d1 = Pid.of_int d1 in
        let s2 = Pid.of_int s2 and d2 = Pid.of_int d2 in
        let k1 = Network.delivery_key net ~src:s1 ~dst:d1 m1 in
        let k2 = Network.delivery_key net ~src:s2 ~dst:d2 m2 in
        let l1 = old_label ~src:s1 ~dst:d1 m1 and l2 = old_label ~src:s2 ~dst:d2 m2 in
        let render = Network.tag_label ~get_msg:P.get_msg ~msg_kind:P.msg_kind ~pp_msg:P.pp_msg in
        Bool.equal (String.equal k1 k2) (String.equal l1 l2)
        && String.equal (render k1) l1
        && String.equal (render k2) l2)
end

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.bottom;
        map2 (fun data sn -> Value.make ~data ~sn) (int_range (-2) 2) (int_range 0 2);
      ])

let gen_int = QCheck.Gen.int_range (-1) 2

let key_props =
  let module Sync = Keyed (Sync_register) in
  let module Es = Keyed (Es_register) in
  let module Abd = Keyed (Abd_register) in
  let open QCheck.Gen in
  [
    ( "sync",
      Sync.prop
        (oneof
           [
             return Sync_register.Inquiry;
             map (fun v -> Sync_register.Reply v) gen_value;
             map (fun v -> Sync_register.Write_msg v) gen_value;
           ]) );
    ( "es",
      Es.prop
        (oneof
           [
             map (fun r_sn -> Es_register.Inquiry { r_sn }) gen_int;
             map (fun r_sn -> Es_register.Read_req { r_sn }) gen_int;
             map2 (fun value r_sn -> Es_register.Reply { value; r_sn }) gen_value gen_int;
             map (fun value -> Es_register.Write_msg { value }) gen_value;
             map (fun sn -> Es_register.Ack { sn }) gen_int;
             map (fun r_sn -> Es_register.Dl_prev { r_sn }) gen_int;
           ]) );
    ( "abd",
      Abd.prop
        (oneof
           [
             map (fun r_sn -> Abd_register.Read_req { r_sn }) gen_int;
             map2 (fun value r_sn -> Abd_register.Read_reply { value; r_sn }) gen_value gen_int;
             map2 (fun value wid -> Abd_register.Write_req { value; wid }) gen_value gen_int;
             map (fun wid -> Abd_register.Write_ack { wid }) gen_int;
           ]) );
  ]

let test_keys_cover_registry () =
  check
    Alcotest.(list string)
    "a key property per registered protocol" Protocol.names (List.map fst key_props)

(* ------------------------------------------------------------------ *)
(* Worker-count invariance: explored counts and the counterexample are
   byte-identical for jobs in {1, 2, 4}. *)

let render_outcome (o : Check.outcome) =
  let s = o.Check.stats in
  Printf.sprintf "%d/%d/%d/%d/%d/%d|%s" s.Check.schedules s.Check.truncated s.Check.state_prunes
    s.Check.sleep_skips s.Check.preempt_skips s.Check.max_depth
    (match o.Check.violation with
    | None -> "clean"
    | Some v ->
      Printf.sprintf "#%d:%s:%s" v.Check.at_schedule
        (String.concat ";" v.Check.lines)
        (Schedule.to_string v.Check.schedule))

let prop_jobs_invariant =
  QCheck.Test.make ~count:4 ~name:"check outcome byte-identical for jobs in {1,2,4}"
    QCheck.(
      triple (oneofl [ "sync"; "es" ]) (int_range 0 1) (oneofl [ (0, 0); (1, 0); (0, 1) ]))
    (fun (name, joins, (drop_budget, crash_budget)) ->
      let cfg =
        config ~proto:name ~joins ~drop_budget ~crash_budget ~depth_bound:10 ~preempt_bound:1 ()
      in
      let p = Protocol.find_exn name in
      let run pool =
        match Check.run ?pool p cfg with Error e -> Alcotest.fail e | Ok o -> render_outcome o
      in
      let reference = run None in
      List.for_all
        (fun jobs -> Pool.with_pool ~jobs (fun pl -> String.equal reference (run (Some pl))))
        [ 1; 2; 4 ])

let () =
  Alcotest.run "dds-check"
    [
      ( "scheduler",
        [
          Alcotest.test_case "chooser orders ready set" `Quick test_chooser_orders_ready_set;
          Alcotest.test_case "singleton bypass" `Quick test_chooser_skipped_for_singletons;
          Alcotest.test_case "candidate tags" `Quick test_chooser_candidates_expose_tags;
        ] );
      ( "frontier",
        [ Alcotest.test_case "deterministic expansion" `Quick test_expand_frontier_deterministic ]
      );
      ( "codec",
        [
          Alcotest.test_case "round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          QCheck_alcotest.to_alcotest ~long:false prop_codec_roundtrip;
        ] );
      ( "clean",
        [
          Alcotest.test_case "sync 3 nodes" `Quick test_clean_sync;
          Alcotest.test_case "es 3 nodes" `Quick test_clean_es;
          Alcotest.test_case "abd 3 nodes" `Quick test_clean_abd;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "es quorum-1 caught" `Quick test_es_mutation_caught;
          Alcotest.test_case "counterexample replays" `Quick test_es_mutation_replays;
          Alcotest.test_case "majority absorbs one drop" `Quick test_es_majority_tolerates_drop;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "check_explore counts pinned" `Quick test_explore_counts_pinned;
          Alcotest.test_case "seeded counterexample pinned" `Quick test_es_mutation_pinned;
          Alcotest.test_case "replay checks labels" `Quick test_replay_checks_labels;
        ] );
      ( "keys",
        Alcotest.test_case "every registered protocol covered" `Quick test_keys_cover_registry
        :: List.map (fun (_, p) -> QCheck_alcotest.to_alcotest ~long:false p) key_props );
      ("determinism", [ QCheck_alcotest.to_alcotest ~long:false prop_jobs_invariant ]);
    ]
