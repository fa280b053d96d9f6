(* Tests for the consensus stack built on the register array: codec,
   omega, register array composition, the alpha abstraction, and
   leader-driven consensus — the application the paper's introduction
   motivates regular registers with. *)

open Dds_sim
open Dds_net
open Dds_churn
open Dds_alpha

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int

(* ------------------------------------------------------------------ *)
(* Codec *)

let test_codec_roundtrip () =
  let cases =
    [
      Codec.bottom;
      { Codec.lre = 1; lrww = 0; v = 0 };
      { Codec.lre = 12345; lrww = 12345; v = 999 };
      { Codec.lre = Codec.field_max - 1; lrww = Codec.field_max - 1; v = Codec.field_max - 1 };
    ]
  in
  List.iter
    (fun r ->
      let r' = Codec.unpack (Codec.pack r) in
      check_bool "roundtrip" true (r = r'))
    cases;
  check_int "bottom packs to zero" 0 (Codec.pack Codec.bottom)

let test_codec_bounds () =
  check_bool "negative field" true
    (try
       ignore (Codec.pack { Codec.lre = -1; lrww = 0; v = 0 });
       false
     with Invalid_argument _ -> true);
  check_bool "overflow field" true
    (try
       ignore (Codec.pack { Codec.lre = Codec.field_max; lrww = 0; v = 0 });
       false
     with Invalid_argument _ -> true)

let prop_codec_roundtrip =
  QCheck2.Test.make ~name:"codec pack/unpack roundtrip" ~count:500
    QCheck2.Gen.(
      triple (int_range 0 (Codec.field_max - 1)) (int_range 0 (Codec.field_max - 1))
        (int_range 0 (Codec.field_max - 1)))
    (fun (lre, lrww, v) ->
      let r = { Codec.lre; lrww; v } in
      Codec.unpack (Codec.pack r) = r)

(* ------------------------------------------------------------------ *)
(* Omega *)

let test_omega () =
  let m = Membership.create () in
  let p i = Pid.of_int i in
  List.iter
    (fun i ->
      Membership.add m (p i) ~now:Time.zero;
      Membership.set_active m (p i) ~now:Time.zero)
    [ 0; 1; 2 ];
  let participants = [ p 0; p 1; p 2 ] in
  check_bool "lowest present" true (Omega.leader m ~participants = Some (p 0));
  Membership.remove m (p 0) ~now:(time 1);
  check_bool "next after departure" true (Omega.leader m ~participants = Some (p 1));
  check_bool "is_leader" true (Omega.is_leader m ~participants (p 1));
  check_bool "not leader" false (Omega.is_leader m ~participants (p 2));
  Membership.remove m (p 1) ~now:(time 2);
  Membership.remove m (p 2) ~now:(time 2);
  check_bool "none left" true (Omega.leader m ~participants = None)

(* ------------------------------------------------------------------ *)
(* Register array *)

let make_array ?(seed = 5) ?(n = 6) ?(k = 3) ?(churn = 0.0) ?protect () =
  Register_array.create ~seed ~n ~k ~delay:(Delay.synchronous ~delta:3) ~churn_rate:churn
    ?protect ()

let test_array_founding_active () =
  let arr = make_array () in
  check_int "k registers" 3 (Register_array.k arr);
  check_int "founding" 6 (List.length (Register_array.founding arr));
  List.iter
    (fun pid -> check_bool "founder active" true (Register_array.is_active arr pid))
    (Register_array.founding arr);
  check_bool "owner 0 is founder 0" true
    (Pid.equal (Register_array.owner arr ~reg:0) (List.hd (Register_array.founding arr)))

let test_array_write_then_read () =
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let o0 = Register_array.owner arr ~reg:0 in
  let reader = List.nth (Register_array.founding arr) 4 in
  let record = { Codec.lre = 7; lrww = 7; v = 42 } in
  let observed = ref None in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Register_array.write arr ~self:o0 ~reg:0 ~record ~k:(fun () -> ())));
  ignore
    (Scheduler.schedule_at sched (time 50) (fun () ->
         Register_array.read arr ~self:reader ~reg:0 ~k:(fun r -> observed := Some r)));
  Scheduler.run_until sched (time 100);
  check_bool "read returns the write" true (!observed = Some record);
  (* Register 1 is untouched. *)
  let other = ref None in
  ignore
    (Scheduler.schedule_at sched (time 110) (fun () ->
         Register_array.read arr ~self:reader ~reg:1 ~k:(fun r -> other := Some r)));
  Scheduler.run_until sched (time 160);
  check_bool "independent registers" true (!other = Some Codec.bottom)

let test_array_owner_only_writes () =
  let arr = make_array () in
  let intruder = List.nth (Register_array.founding arr) 5 in
  check_bool "non-owner write rejected" true
    (try
       Register_array.write arr ~self:intruder ~reg:0 ~record:Codec.bottom ~k:(fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_array_joiner_joins_all_registers () =
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let joiner = ref None in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> joiner := Some (Register_array.spawn arr)));
  Scheduler.run_until sched (time 200);
  match !joiner with
  | Some pid ->
    check_bool "joiner became active" true (Register_array.is_active arr pid);
    (* It can read every register. *)
    let reads = ref 0 in
    ignore
      (Scheduler.schedule_at sched (time 210) (fun () ->
           for reg = 0 to 2 do
             Register_array.read arr ~self:pid ~reg ~k:(fun _ -> incr reads)
           done));
    Scheduler.run_until sched (time 300);
    check_int "parallel reads of all registers" 3 !reads
  | None -> Alcotest.fail "joiner missing"

let test_array_retire_aborts () =
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let victim = List.nth (Register_array.founding arr) 3 in
  let fired = ref false in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Register_array.read arr ~self:victim ~reg:0 ~k:(fun _ -> fired := true)));
  ignore (Scheduler.schedule_at sched (time 6) (fun () -> Register_array.retire arr victim));
  Scheduler.run_until sched (time 100);
  check_bool "continuation never fires after leave" false !fired;
  let h = (Register_array.histories arr).(0) in
  check_int "read aborted in history" 1 (List.length (Dds_spec.History.aborted h))

(* Exact oracle for the array's op bookkeeping: E18 prints only
   aggregates, so this pins each register's whole history of one
   churned run (joins, reads and writes, completed and aborted) byte for
   byte. Owners are not protected, so some leave mid-write. *)
let test_array_histories_pinned () =
  let arr = make_array ~seed:3 ~n:10 ~k:3 ~churn:0.04 () in
  let sched = Register_array.scheduler arr in
  let rng = Rng.create ~seed:11 in
  let drive tick () =
    for reg = 0 to 2 do
      let owner = Register_array.owner arr ~reg in
      if Register_array.is_active arr owner && not (Register_array.busy arr ~self:owner ~reg)
      then
        Register_array.write arr ~self:owner ~reg
          ~record:{ Codec.lre = tick; lrww = tick; v = reg }
          ~k:(fun () -> ())
    done;
    match Membership.active (Register_array.membership arr) with
    | [] -> ()
    | active ->
      let self = Rng.pick_list rng active and reg = Rng.int rng 3 in
      if not (Register_array.busy arr ~self ~reg) then
        Register_array.read arr ~self ~reg ~k:(fun _ -> ())
  in
  for tick = 1 to 400 do
    ignore (Scheduler.schedule_at sched (time tick) (drive tick))
  done;
  Register_array.start_churn arr ~until:(time 400);
  Scheduler.run_until sched (time 500);
  let hs = Array.to_list (Register_array.histories arr) in
  let some f = List.exists (fun h -> List.exists f (Dds_spec.History.ops h)) hs in
  let is_join = function Dds_spec.History.Join _ -> true | _ -> false in
  let is_write = function Dds_spec.History.Write _ -> true | _ -> false in
  let is_read = function Dds_spec.History.Read _ -> true | _ -> false in
  let finished kind (o : Dds_spec.History.op) =
    kind o.kind && o.responded <> None && not o.aborted
  in
  let cut kind (o : Dds_spec.History.op) = kind o.kind && o.aborted in
  check_bool "completed joins" true (some (finished is_join));
  check_bool "completed writes" true (some (finished is_write));
  check_bool "completed reads" true (some (finished is_read));
  check_bool "aborted joins" true (some (cut is_join));
  check_bool "aborted writes" true (some (cut is_write));
  check_bool "aborted reads" true (some (cut is_read));
  check (Alcotest.list Alcotest.string) "history digests" 
    [
      "dab87d693e3ae81f73f2d8d857a39ff0";
      "655bc7e3a0323cb2f16f56d71c1364e0";
      "413d7ba05855e6e463a508efc6b5fd45";
    ]
    (List.map (fun h -> Digest.to_hex (Digest.string (Dds_spec.History.to_csv h))) hs)

(* ------------------------------------------------------------------ *)
(* Alpha *)

let test_alpha_solo_commit () =
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let o0 = Register_array.owner arr ~reg:0 in
  let outcome = ref None in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Alpha.propose arr ~self:o0 ~self_reg:0
           ~round:(Alpha.round_for ~participant_index:0 ~attempt:1 ~k:3)
           ~value:77
           ~k:(fun o -> outcome := Some o)));
  Scheduler.run_until sched (time 300);
  check_bool "solo proposer commits own value" true (!outcome = Some (Alpha.Commit 77))

let test_alpha_adopts_previous_commit () =
  (* After o0 commits 77, a later attempt by o1 with a higher round
     must adopt 77, not its own 88 — the agreement mechanism. *)
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let o0 = Register_array.owner arr ~reg:0 in
  let o1 = Register_array.owner arr ~reg:1 in
  let second = ref None in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Alpha.propose arr ~self:o0 ~self_reg:0
           ~round:(Alpha.round_for ~participant_index:0 ~attempt:1 ~k:3)
           ~value:77
           ~k:(fun _ -> ())));
  ignore
    (Scheduler.schedule_at sched (time 300) (fun () ->
         Alpha.propose arr ~self:o1 ~self_reg:1
           ~round:(Alpha.round_for ~participant_index:1 ~attempt:1 ~k:3)
           ~value:88
           ~k:(fun o -> second := Some o)));
  Scheduler.run_until sched (time 700);
  check_bool "later round adopts the committed value" true
    (!second = Some (Alpha.Commit 77))

let test_alpha_low_round_aborts () =
  (* o1 runs round 2 to completion first; then o0 tries round 1 and
     must abort (it sees lre/lrww = 2 > 1). *)
  let arr = make_array () in
  let sched = Register_array.scheduler arr in
  let o0 = Register_array.owner arr ~reg:0 in
  let o1 = Register_array.owner arr ~reg:1 in
  let late = ref None in
  ignore
    (Scheduler.schedule_at sched (time 5) (fun () ->
         Alpha.propose arr ~self:o1 ~self_reg:1 ~round:2 ~value:88 ~k:(fun _ -> ())));
  ignore
    (Scheduler.schedule_at sched (time 300) (fun () ->
         Alpha.propose arr ~self:o0 ~self_reg:0 ~round:1 ~value:77
           ~k:(fun o -> late := Some o)));
  Scheduler.run_until sched (time 700);
  check_bool "stale round aborts" true
    (match !late with Some (Alpha.Abort _) -> true | _ -> false)

(* Property: alpha never commits two different values, under random
   interleavings of two contending proposers. *)
let prop_alpha_agreement =
  QCheck2.Test.make ~name:"alpha agreement under contention" ~count:40
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 60))
    (fun (seed, offset) ->
      let arr = make_array ~seed () in
      let sched = Register_array.scheduler arr in
      let commits = ref [] in
      let launch ~index ~value ~at =
        let self = Register_array.owner arr ~reg:index in
        let attempts = ref 0 in
        let rec go () =
          if !attempts < 6 then begin
            incr attempts;
            Alpha.propose arr ~self ~self_reg:index
              ~round:(Alpha.round_for ~participant_index:index ~attempt:!attempts ~k:3)
              ~value
              ~k:(function
                | Alpha.Commit v -> commits := v :: !commits
                | Alpha.Abort _ ->
                  ignore (Scheduler.schedule_after sched 10 go))
          end
        in
        ignore (Scheduler.schedule_at sched (time at) go)
      in
      launch ~index:0 ~value:111 ~at:5;
      launch ~index:1 ~value:222 ~at:(5 + offset);
      Scheduler.run_until sched (time 3000);
      match List.sort_uniq Int.compare !commits with
      | [] | [ _ ] -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Consensus *)

let test_consensus_stable_run () =
  let arr = make_array ~n:6 ~k:3 () in
  let c = Consensus.create arr ~retry_every:20 () in
  List.iteri
    (fun i pid -> if i < 3 then Consensus.propose c pid (100 + i))
    (Register_array.founding arr);
  Consensus.start c ~until:(time 1000);
  Scheduler.run_until (Register_array.scheduler arr) (time 1200);
  check_bool "agreement" true (Consensus.agreement_ok c);
  check_bool "validity" true (Consensus.validity_ok c);
  (* The stable leader is participant 0: its proposal wins. *)
  check_bool "leader's value decided" true
    (match Consensus.decisions c with (_, v) :: _ -> v = 100 | [] -> false);
  check_int "every founder learned it" 6 (Consensus.decided_count c)

let test_consensus_leader_crash () =
  (* The first leader leaves before it can finish; the next
     participant takes over and everyone still decides one value. *)
  let arr = make_array ~n:6 ~k:3 () in
  let sched = Register_array.scheduler arr in
  let c = Consensus.create arr ~retry_every:20 () in
  List.iteri
    (fun i pid -> if i < 3 then Consensus.propose c pid (100 + i))
    (Register_array.founding arr);
  let first = List.hd (Register_array.founding arr) in
  ignore (Scheduler.schedule_at sched (time 25) (fun () -> Register_array.retire arr first));
  Consensus.start c ~until:(time 2000);
  Scheduler.run_until sched (time 2400);
  check_bool "agreement after crash" true (Consensus.agreement_ok c);
  check_bool "validity after crash" true (Consensus.validity_ok c);
  check_bool "someone decided" true (Consensus.decided_count c >= 5);
  check_bool "the crashed leader is not among deciders" true
    (Consensus.decision_of c first = None)

let test_consensus_joiners_learn () =
  let protect_participants arr_ref pid =
    match !arr_ref with
    | Some arr ->
      List.exists (Pid.equal pid)
        (List.filteri (fun i _ -> i < 3) (Register_array.founding arr))
    | None -> false
  in
  let arr_ref = ref None in
  let arr =
    Register_array.create ~seed:9 ~n:8 ~k:3 ~delay:(Delay.synchronous ~delta:3)
      ~churn_rate:0.01
      ~protect:(protect_participants arr_ref)
      ()
  in
  arr_ref := Some arr;
  let c = Consensus.create arr ~retry_every:20 () in
  List.iteri
    (fun i pid -> if i < 3 then Consensus.propose c pid (100 + i))
    (Register_array.founding arr);
  Register_array.start_churn arr ~until:(time 1500);
  Consensus.start c ~until:(time 1500);
  Scheduler.run_until (Register_array.scheduler arr) (time 1800);
  check_bool "agreement under churn" true (Consensus.agreement_ok c);
  check_bool "validity under churn" true (Consensus.validity_ok c);
  (* Processes that joined long after the decision still learned it
     through re-announcements. *)
  let late_learners =
    List.filter
      (fun (pid, _) -> not (List.mem pid (Register_array.founding arr)))
      (Consensus.decisions c)
  in
  check_bool "late joiners learned the decision" true (late_learners <> [])

let test_consensus_propose_validation () =
  let arr = make_array () in
  let c = Consensus.create arr () in
  let p0 = List.hd (Register_array.founding arr) in
  let outsider = List.nth (Register_array.founding arr) 5 in
  check_bool "non participant" true
    (try
       Consensus.propose c outsider 5;
       false
     with Invalid_argument _ -> true);
  Consensus.propose c p0 5;
  check_bool "double proposal" true
    (try
       Consensus.propose c p0 6;
       false
     with Invalid_argument _ -> true);
  check_bool "zero reserved" true
    (try
       Consensus.propose c (List.nth (Register_array.founding arr) 1) 0;
       false
     with Invalid_argument _ -> true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_alpha"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "bounds" `Quick test_codec_bounds;
        ] );
      ("omega", [ Alcotest.test_case "leader selection" `Quick test_omega ]);
      ( "register-array",
        [
          Alcotest.test_case "founding active" `Quick test_array_founding_active;
          Alcotest.test_case "write then read" `Quick test_array_write_then_read;
          Alcotest.test_case "owner only writes" `Quick test_array_owner_only_writes;
          Alcotest.test_case "joiner joins all registers" `Quick
            test_array_joiner_joins_all_registers;
          Alcotest.test_case "retire aborts" `Quick test_array_retire_aborts;
          Alcotest.test_case "histories pinned" `Quick test_array_histories_pinned;
        ] );
      ( "alpha",
        [
          Alcotest.test_case "solo commit" `Quick test_alpha_solo_commit;
          Alcotest.test_case "adopts previous commit" `Quick test_alpha_adopts_previous_commit;
          Alcotest.test_case "low round aborts" `Quick test_alpha_low_round_aborts;
        ] );
      ( "consensus",
        [
          Alcotest.test_case "stable run" `Quick test_consensus_stable_run;
          Alcotest.test_case "leader crash" `Quick test_consensus_leader_crash;
          Alcotest.test_case "joiners learn" `Slow test_consensus_joiners_learn;
          Alcotest.test_case "propose validation" `Quick test_consensus_propose_validation;
        ] );
      qsuite "alpha-props" [ prop_codec_roundtrip; prop_alpha_agreement ];
    ]
