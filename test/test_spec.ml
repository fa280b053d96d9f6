(* Tests for the specification substrate: Value, History, Regularity,
   Atomicity (new/old inversions) and Staleness — exercised on
   hand-built histories whose verdicts are known. *)

open Dds_sim
open Dds_net
open Dds_spec

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let time = Time.of_int
let pid = Pid.of_int
let v ~data ~sn = Value.make ~data ~sn

(* ------------------------------------------------------------------ *)
(* Value *)

let test_value_bottom () =
  check_bool "is_bottom" true (Value.is_bottom Value.bottom);
  check_bool "real value is not bottom" false (Value.is_bottom (Value.initial 0));
  check_bool "bottom loses to initial" true
    (Value.equal (Value.newer Value.bottom (Value.initial 0)) (Value.initial 0));
  check_bool "bottom loses in newest" true
    (match Value.newest [ Value.bottom; v ~data:5 ~sn:2 ] with
    | Some w -> w.Value.sn = 2
    | None -> false);
  check Alcotest.string "bottom prints as _|_" "_|_"
    (Format.asprintf "%a" Value.pp Value.bottom)

let test_value_basics () =
  check_int "initial sn" 0 (Value.initial 7).Value.sn;
  check_int "initial data" 7 (Value.initial 7).Value.data;
  let a = v ~data:1 ~sn:1 and b = v ~data:2 ~sn:2 in
  check_bool "newer picks higher sn" true (Value.equal (Value.newer a b) b);
  check_bool "newer keeps first on tie" true
    (Value.equal (Value.newer a (v ~data:9 ~sn:1)) a);
  check_bool "newest of list" true
    (Value.equal (Option.get (Value.newest [ a; b; v ~data:0 ~sn:0 ])) b);
  check_bool "newest empty" true (Value.newest [] = None);
  check_bool "same_data ignores sn" true (Value.same_data a (v ~data:1 ~sn:99));
  check_bool "negative sn rejected" true
    (try
       ignore (v ~data:0 ~sn:(-1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* History mechanics *)

let test_history_read_roundtrip () =
  let h = History.create ~initial:(Value.initial 0) in
  let id = History.begin_read h (pid 1) ~now:(time 3) in
  check_int "pending" 1 (List.length (History.pending h));
  History.end_read h id ~now:(time 5) (v ~data:0 ~sn:0);
  check_int "no longer pending" 0 (List.length (History.pending h));
  match History.completed_reads h with
  | [ op ] ->
    check_int "invoked" 3 (Time.to_int op.History.invoked);
    check Alcotest.(option int) "responded" (Some 5)
      (Option.map Time.to_int op.History.responded)
  | _ -> Alcotest.fail "expected one read"

let test_history_write_patches_value () =
  let h = History.create ~initial:(Value.initial 0) in
  let id = History.begin_write h (pid 0) ~now:(time 1) (v ~data:5 ~sn:1) in
  (* The protocol discovered a higher sn mid-operation. *)
  History.end_write h id ~now:(time 4) (v ~data:5 ~sn:3);
  match History.completed_writes h with
  | [ { History.kind = History.Write value; _ } ] ->
    check_int "patched sn" 3 value.Value.sn
  | _ -> Alcotest.fail "expected one write"

let test_history_abort () =
  let h = History.create ~initial:(Value.initial 0) in
  let id = History.begin_read h (pid 2) ~now:(time 1) in
  History.abort h id;
  check_int "aborted listed" 1 (List.length (History.aborted h));
  check_int "not completed" 0 (List.length (History.completed_reads h));
  check_int "not pending" 0 (List.length (History.pending h));
  check_bool "end after abort rejected" true
    (try
       History.end_read h id ~now:(time 2) (v ~data:0 ~sn:0);
       false
     with Invalid_argument _ -> true)

let test_history_misuse () =
  let h = History.create ~initial:(Value.initial 0) in
  let r = History.begin_read h (pid 0) ~now:(time 0) in
  check_bool "end_write on a read" true
    (try
       History.end_write h r ~now:(time 1) (v ~data:0 ~sn:0);
       false
     with Invalid_argument _ -> true);
  History.end_read h r ~now:(time 1) (v ~data:0 ~sn:0);
  check_bool "double end" true
    (try
       History.end_read h r ~now:(time 2) (v ~data:0 ~sn:0);
       false
     with Invalid_argument _ -> true)

let test_history_ordering_and_counts () =
  let h = History.create ~initial:(Value.initial 0) in
  let w1 = History.begin_write h (pid 0) ~now:(time 1) (v ~data:1 ~sn:1) in
  History.end_write h w1 ~now:(time 2) (v ~data:1 ~sn:1);
  let r1 = History.begin_read h (pid 1) ~now:(time 3) in
  History.end_read h r1 ~now:(time 4) (v ~data:1 ~sn:1);
  let j1 = History.begin_join h (pid 2) ~now:(time 3) in
  History.end_join h j1 ~now:(time 6) (v ~data:1 ~sn:1);
  check_int "count" 3 (History.count h);
  check_int "writes" 1 (List.length (History.completed_writes h));
  check_int "reads" 1 (List.length (History.completed_reads h));
  check_int "joins" 1 (List.length (History.completed_joins h));
  match History.ops h with
  | [ a; b; c ] ->
    check_bool "invocation order" true
      Time.(a.History.invoked <= b.History.invoked && b.History.invoked <= c.History.invoked)
  | _ -> Alcotest.fail "expected three ops"

(* ------------------------------------------------------------------ *)
(* Regularity: hand-built histories *)

(* Builders: a complete write / read in one call. *)
let add_write h ~p ~at ~until ~data ~sn =
  let id = History.begin_write h (pid p) ~now:(time at) (v ~data ~sn) in
  History.end_write h id ~now:(time until) (v ~data ~sn)

let add_read h ~p ~at ~until ~data ~sn =
  let id = History.begin_read h (pid p) ~now:(time at) in
  History.end_read h id ~now:(time until) (v ~data ~sn)

let add_join h ~p ~at ~until ~data ~sn =
  let id = History.begin_join h (pid p) ~now:(time at) in
  History.end_join h id ~now:(time until) (v ~data ~sn)

let test_history_csv_aborted_and_pending () =
  let h = History.create ~initial:(Value.initial 0) in
  let r = History.begin_read h (pid 1) ~now:(time 2) in
  History.abort h r;
  ignore (History.begin_write h (pid 0) ~now:(time 3) (v ~data:9 ~sn:1));
  let lines = String.split_on_char '\n' (String.trim (History.to_csv h)) in
  check_int "header + 2 rows" 3 (List.length lines);
  check_bool "aborted read row flagged" true
    (List.exists (fun l -> l = "0,1,read,,,2,,true") lines);
  check_bool "pending write row has empty response" true
    (List.exists (fun l -> l = "1,0,write,9,1,3,,false") lines)

let test_disseminated_vs_all_writes () =
  let h = History.create ~initial:(Value.initial 0) in
  let w1 = History.begin_write h (pid 0) ~now:(time 1) (v ~data:1 ~sn:1) in
  History.end_write h w1 ~now:(time 2) (v ~data:1 ~sn:1);
  let w2 = History.begin_write h (pid 0) ~now:(time 3) (v ~data:2 ~sn:2) in
  History.abort h w2;
  check_int "all_writes excludes aborted" 1 (List.length (History.all_writes h));
  check_int "disseminated includes aborted" 2 (List.length (History.disseminated_writes h));
  (* A read returning the aborted write's value is tolerated: the
     broadcast may have gone out before the writer left. *)
  add_read h ~p:1 ~at:5 ~until:6 ~data:2 ~sn:2;
  check_bool "aborted write's value allowed" true (Regularity.is_ok (Regularity.check h))

let test_regular_sequential_history () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:3 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:5 ~until:6 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:8 ~until:9 ~data:20 ~sn:2;
  add_read h ~p:1 ~at:10 ~until:11 ~data:20 ~sn:2;
  let r = Regularity.check h in
  check_bool "ok" true (Regularity.is_ok r);
  check_int "reads checked" 2 r.Regularity.checked_reads

let test_read_of_initial_value () =
  let h = History.create ~initial:(Value.initial 0) in
  add_read h ~p:1 ~at:1 ~until:2 ~data:0 ~sn:0;
  check_bool "initial allowed" true (Regularity.is_ok (Regularity.check h))

let test_stale_read_flagged () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:3 ~data:10 ~sn:1;
  (* Read starts after the write completed but returns the initial value. *)
  add_read h ~p:1 ~at:5 ~until:6 ~data:0 ~sn:0;
  let r = Regularity.check h in
  check_int "one violation" 1 (List.length r.Regularity.violations);
  check_bool "not ok" false (Regularity.is_ok r)

let test_concurrent_read_may_return_either () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:5 ~until:10 ~data:10 ~sn:1;
  (* Concurrent with the write: old value fine... *)
  add_read h ~p:1 ~at:6 ~until:7 ~data:0 ~sn:0;
  (* ...new value fine too. *)
  add_read h ~p:2 ~at:6 ~until:8 ~data:10 ~sn:1;
  check_bool "both allowed" true (Regularity.is_ok (Regularity.check h))

let test_skipping_intermediate_write_flagged () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:4 ~until:5 ~data:20 ~sn:2;
  (* Returns the first write's value after the second completed: stale. *)
  add_read h ~p:1 ~at:7 ~until:8 ~data:10 ~sn:1;
  let r = Regularity.check h in
  check_int "flagged" 1 (List.length r.Regularity.violations)

let test_read_of_pending_write_allowed () =
  let h = History.create ~initial:(Value.initial 0) in
  ignore (History.begin_write h (pid 0) ~now:(time 2) (v ~data:10 ~sn:1));
  (* The write never completes inside the horizon, but its value may
     surface in any read invoked after the write began. *)
  add_read h ~p:1 ~at:5 ~until:6 ~data:10 ~sn:1;
  check_bool "pending write's value allowed" true (Regularity.is_ok (Regularity.check h))

let test_never_written_value_flagged () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:3 ~until:4 ~data:999 ~sn:7;
  let r = Regularity.check h in
  check_int "phantom value flagged" 1 (List.length r.Regularity.violations)

let test_join_checked_like_read () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:3 ~data:10 ~sn:1;
  add_join h ~p:5 ~at:6 ~until:9 ~data:0 ~sn:0 (* stale adoption *);
  let r = Regularity.check h in
  check_int "join flagged" 1 (List.length r.Regularity.violations);
  check_int "joins checked" 1 r.Regularity.checked_joins;
  let r' = Regularity.check ~include_joins:false h in
  check_int "joins excluded on demand" 0 (List.length r'.Regularity.violations)

let test_overlapping_writes_detected () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:10 ~data:10 ~sn:1;
  add_write h ~p:1 ~at:5 ~until:12 ~data:20 ~sn:2;
  let r = Regularity.check h in
  check_bool "writes not sequential" false r.Regularity.writes_sequential;
  check_bool "not ok" false (Regularity.is_ok r)

let test_duplicate_data_detected () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:0 ~sn:1 (* same datum as initial *);
  let r = Regularity.check h in
  check_bool "distinct_data false" false r.Regularity.distinct_data;
  check_bool "not ok" false (Regularity.is_ok r)

let test_boundary_tie_is_permissive () =
  let h = History.create ~initial:(Value.initial 0) in
  (* Write responds exactly when the read is invoked: under tick
     granularity either order is plausible, so both values pass. *)
  add_write h ~p:0 ~at:1 ~until:5 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:5 ~until:6 ~data:0 ~sn:0;
  add_read h ~p:2 ~at:5 ~until:6 ~data:10 ~sn:1;
  check_bool "both tolerated at the boundary" true (Regularity.is_ok (Regularity.check h))

(* ------------------------------------------------------------------ *)
(* Atomicity: new/old inversions *)

let test_inversion_detected () =
  let h = History.create ~initial:(Value.initial 0) in
  (* The introduction's scenario: r1 gets w2's value, later r2 gets w1's. *)
  add_write h ~p:0 ~at:1 ~until:20 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:2 ~until:3 ~data:10 ~sn:1 (* sees the new value early *);
  add_read h ~p:2 ~at:5 ~until:6 ~data:0 ~sn:0 (* then the old one: inversion *);
  let inv = Atomicity.inversions h in
  check_int "one inversion" 1 (List.length inv);
  (match inv with
  | [ i ] ->
    check_int "first sn" 1 i.Atomicity.first_sn;
    check_int "second sn" 0 i.Atomicity.second_sn
  | _ -> ());
  check_bool "regular yet not atomic" true (Regularity.is_ok (Regularity.check h));
  check_bool "is_atomic false" false (Atomicity.is_atomic h)

let test_no_inversion_on_monotone_reads () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:3 ~until:4 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:5 ~until:6 ~data:20 ~sn:2;
  add_read h ~p:2 ~at:7 ~until:8 ~data:20 ~sn:2;
  check_int "no inversion" 0 (List.length (Atomicity.inversions h));
  check_bool "atomic" true (Atomicity.is_atomic h)

let test_concurrent_reads_not_inverted () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:10 ~data:10 ~sn:1;
  (* Overlapping reads disagree — allowed, they are concurrent. *)
  add_read h ~p:1 ~at:2 ~until:8 ~data:10 ~sn:1;
  add_read h ~p:2 ~at:3 ~until:9 ~data:0 ~sn:0;
  check_int "concurrent reads never invert" 0 (List.length (Atomicity.inversions h))

(* ------------------------------------------------------------------ *)
(* Staleness *)

let test_staleness_measurement () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:3 ~until:4 ~data:20 ~sn:2;
  add_write h ~p:0 ~at:5 ~until:6 ~data:30 ~sn:3;
  add_read h ~p:1 ~at:7 ~until:8 ~data:30 ~sn:3 (* fresh *);
  add_read h ~p:2 ~at:9 ~until:10 ~data:10 ~sn:1 (* 2 writes behind *);
  let r = Staleness.measure h in
  check_int "max staleness" 2 r.Staleness.max_staleness;
  check_int "samples" 2 (Stats.count r.Staleness.stats);
  match r.Staleness.per_read with
  | [ (_, s1); (_, s2) ] ->
    check_int "fresh read" 0 s1;
    check_int "stale read" 2 s2
  | _ -> Alcotest.fail "expected two samples"

let test_staleness_empty_history () =
  let h = History.create ~initial:(Value.initial 0) in
  let r = Staleness.measure h in
  check_int "no reads" 0 r.Staleness.max_staleness;
  check_int "no samples" 0 (Stats.count r.Staleness.stats)

(* ------------------------------------------------------------------ *)
(* Brute-force linearizability *)

let test_linearizability_accepts_atomic () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:3 ~until:4 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:5 ~until:6 ~data:20 ~sn:2;
  add_read h ~p:2 ~at:7 ~until:8 ~data:20 ~sn:2;
  check Alcotest.(option bool) "linearizable" (Some true) (Linearizability.check h)

let test_linearizability_rejects_inversion () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:20 ~data:10 ~sn:1;
  add_read h ~p:1 ~at:2 ~until:3 ~data:10 ~sn:1;
  add_read h ~p:2 ~at:5 ~until:6 ~data:0 ~sn:0;
  check Alcotest.(option bool) "inversion not linearizable" (Some false)
    (Linearizability.check h)

let test_linearizability_rejects_phantom () =
  let h = History.create ~initial:(Value.initial 0) in
  add_read h ~p:1 ~at:1 ~until:2 ~data:999 ~sn:9;
  check Alcotest.(option bool) "phantom value" (Some false) (Linearizability.check h)

let test_linearizability_bails_out () =
  let h = History.create ~initial:(Value.initial 0) in
  for i = 1 to 12 do
    add_write h ~p:0 ~at:(2 * i) ~until:((2 * i) + 1) ~data:(100 + i) ~sn:i
  done;
  check Alcotest.(option bool) "too many ops" None (Linearizability.check h);
  let h2 = History.create ~initial:(Value.initial 0) in
  ignore (History.begin_read h2 (pid 0) ~now:(time 1));
  check Alcotest.(option bool) "pending op" None (Linearizability.check h2)

(* The load-bearing cross-check: on random single-writer histories the
   fast verdict (regular and inversion-free) must coincide with the
   brute-force linearizability search. *)
let prop_atomicity_equivalence =
  QCheck2.Test.make
    ~name:"regular + inversion-free <=> linearizable (single writer, small histories)"
    ~count:400
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let h = History.create ~initial:(Value.initial 0) in
      let clock = ref 1 in
      let writes = ref [ Value.initial 0 ] (* newest first *) in
      let n_ops = 2 + Rng.int rng 5 in
      let next_sn = ref 0 in
      for _ = 1 to n_ops do
        let start = !clock + Rng.int rng 3 in
        let len = 1 + Rng.int rng 4 in
        if Rng.int rng 100 < 40 then begin
          (* A write with fresh data; writes never overlap. *)
          incr next_sn;
          let sn = !next_sn in
          add_write h ~p:0 ~at:start ~until:(start + len) ~data:(100 + sn) ~sn;
          writes := v ~data:(100 + sn) ~sn :: !writes;
          clock := start + len + Rng.int rng 2
        end
        else begin
          (* A read returning some previously written (or future-ish)
             value — sometimes legal, sometimes not. *)
          let candidates = Array.of_list !writes in
          let value = Rng.pick rng candidates in
          let reader = 1 + Rng.int rng 3 in
          add_read h ~p:reader ~at:start ~until:(start + len) ~data:value.Value.data
            ~sn:value.Value.sn;
          (* Reads may overlap whatever comes next. *)
          clock := start + Rng.int rng (len + 2)
        end
      done;
      let fast =
        Regularity.is_ok (Regularity.check ~include_joins:false h)
        && Atomicity.inversions h = []
      in
      match Linearizability.check h with
      | Some brute -> brute = fast
      | None -> true (* ungeneratable here, but be safe *))

(* ------------------------------------------------------------------ *)
(* Properties *)

(* Random sequential (non-overlapping, correctly-read) histories are
   always regular and atomic: generate a sequence of writes each
   followed by reads of that write's value. *)
let prop_sequential_histories_regular =
  QCheck2.Test.make ~name:"sequential well-behaved histories pass both checkers" ~count:200
    QCheck2.Gen.(list_size (int_range 0 20) (int_range 0 3))
    (fun reads_per_write ->
      let h = History.create ~initial:(Value.initial 0) in
      let clock = ref 1 in
      let current = ref (Value.initial 0) in
      List.iteri
        (fun i reads ->
          let sn = i + 1 in
          let data = (1000 * sn) + 1 in
          add_write h ~p:0 ~at:!clock ~until:(!clock + 2) ~data ~sn;
          clock := !clock + 3;
          current := v ~data ~sn;
          for _ = 1 to reads do
            add_read h ~p:1 ~at:!clock ~until:(!clock + 1) ~data:(!current).Value.data
              ~sn:(!current).Value.sn;
            clock := !clock + 2
          done)
        reads_per_write;
      Regularity.is_ok (Regularity.check h) && Atomicity.inversions h = [])

(* Reads that return an arbitrary *older-than-allowed* completed write
   are always flagged. *)
let prop_stale_reads_flagged =
  QCheck2.Test.make ~name:"reads of superseded values are always flagged" ~count:200
    QCheck2.Gen.(pair (int_range 2 15) (int_range 0 10_000))
    (fun (n_writes, seed) ->
      let rng = Rng.create ~seed in
      let h = History.create ~initial:(Value.initial 0) in
      let clock = ref 1 in
      for sn = 1 to n_writes do
        add_write h ~p:0 ~at:!clock ~until:(!clock + 1) ~data:(100 + sn) ~sn;
        clock := !clock + 2
      done;
      (* Read an old value strictly after every write completed. *)
      let stale_sn = 1 + Rng.int rng (n_writes - 1) in
      add_read h ~p:1 ~at:(!clock + 1) ~until:(!clock + 2) ~data:(100 + stale_sn)
        ~sn:stale_sn;
      let r = Regularity.check h in
      List.length r.Regularity.violations = 1)

(* ------------------------------------------------------------------ *)
(* The indexed checkers against their folds *)

type fate = Done | Pending | Aborted

let random_fate rng = match Rng.int rng 10 with 0 -> Aborted | 1 -> Pending | _ -> Done

(* A random history on a short timeline, so responses and invocations
   often share a tick. Writes run one after another with fresh data,
   and some sequence numbers repeat; with [~messy] some writes also
   start before the previous one ended or reuse a datum (the initial
   one included), which the index must judge exactly as the fold. Some
   writes end aborted or pending. Reads and joins overlap freely, may
   end pending or aborted, and return a written value (of an aborted
   or pending write too), the initial value, bottom, or a datum nobody
   wrote. Operations are recorded in invocation order. *)
let random_history rng ~messy =
  let initial = Value.initial 0 in
  let ops = ref [] in
  let written = ref [ initial ] in
  let clock = ref 1 in
  for i = 1 to Rng.int rng 8 do
    let at =
      if messy && Rng.int rng 4 = 0 then Stdlib.max 0 (!clock - Rng.int rng 4)
      else !clock + Rng.int rng 3
    in
    let until = at + Rng.int rng 4 in
    let data =
      if messy && Rng.int rng 4 = 0 then (Rng.pick_list rng !written).Value.data else 100 + i
    in
    let value = v ~data ~sn:(if Rng.int rng 6 = 0 then i - 1 else i) in
    let fate = random_fate rng in
    written := value :: !written;
    let record h =
      let id = History.begin_write h (pid 0) ~now:(time at) value in
      match fate with
      | Done -> History.end_write h id ~now:(time until) value
      | Pending -> ()
      | Aborted -> History.abort h id
    in
    ops := (at, record) :: !ops;
    clock := until
  done;
  for _ = 1 to Rng.int rng 12 do
    let at = Rng.int rng (!clock + 4) in
    let until = at + Rng.int rng 4 in
    let returned =
      match Rng.int rng 8 with
      | 0 -> Value.bottom
      | 1 -> initial
      | 2 -> v ~data:999 ~sn:1
      | _ -> Rng.pick_list rng !written
    in
    let fate = random_fate rng in
    let p = pid (1 + Rng.int rng 3) in
    let begin_, end_ =
      if Rng.int rng 4 = 0 then (History.begin_join, History.end_join)
      else (History.begin_read, History.end_read)
    in
    let record h =
      let id = begin_ h p ~now:(time at) in
      match fate with
      | Done -> end_ h id ~now:(time until) returned
      | Pending -> ()
      | Aborted -> History.abort h id
    in
    ops := (at, record) :: !ops
  done;
  let h = History.create ~initial in
  List.iter
    (fun (_, record) -> record h)
    (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !ops));
  h

let prop_check_equals_fold =
  QCheck2.Test.make ~name:"indexed regularity check equals the fold, field for field"
    ~count:2000
    ~print:QCheck2.Print.(triple int bool bool)
    QCheck2.Gen.(triple (int_range 0 1_000_000) bool bool)
    (fun (seed, messy, include_joins) ->
      let h = random_history (Rng.create ~seed) ~messy in
      Regularity.check ~include_joins h = Regularity.check_by_fold ~include_joins h)

(* The property above is only as strong as its histories: make sure
   they reach violations, repeated data and overlapping writes. *)
let test_generator_coverage () =
  let reports =
    List.init 500 (fun seed ->
        Regularity.check_by_fold (random_history (Rng.create ~seed) ~messy:(seed mod 2 = 0)))
  in
  let count pred = List.length (List.filter pred reports) in
  check_bool "some violations" true (count (fun r -> r.Regularity.violations <> []) > 50);
  check_bool "some clean" true (count Regularity.is_ok > 50);
  check_bool "some repeated data" true (count (fun r -> not r.Regularity.distinct_data) > 20);
  check_bool "some overlapping writes" true
    (count (fun r -> not r.Regularity.writes_sequential) > 20)

(* Responses decrease in sn order: w3 responded before w2, so the
   spans completed before t=6 ({w1, w3}) are not a prefix of the
   responses in sn order (3, 10, 4). A binary search over those would
   pick w1 as the last completed write; the fold, and the index's
   responses sorted by time with their running sn maximum, pick w3. *)
let test_fallback_responses_decrease () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:3 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:2 ~until:10 ~data:20 ~sn:2;
  add_write h ~p:0 ~at:2 ~until:4 ~data:30 ~sn:3;
  add_read h ~p:1 ~at:6 ~until:7 ~data:30 ~sn:3;
  add_read h ~p:2 ~at:6 ~until:7 ~data:10 ~sn:1;
  let r = Regularity.check h in
  check_bool "equals the fold" true (r = Regularity.check_by_fold h);
  check_bool "writes overlap" false r.Regularity.writes_sequential;
  match r.Regularity.violations with
  | [ viol ] ->
    check_int "the read of w1 is flagged" 10 viol.Regularity.returned.Value.data;
    check
      Alcotest.(list int)
      "allowed: last completed, then concurrent" [ 30; 20 ]
      (List.map (fun (x : Value.t) -> x.Value.data) viol.Regularity.allowed)
  | _ -> Alcotest.fail "expected exactly the read of w1 flagged"

(* A repeated datum: 10 is written twice, so a datum no longer names
   one write. The read at t=3 returns w1's 10, the last completed
   write; an index holding only w3 for datum 10 would flag it. *)
let test_fallback_repeated_datum () =
  let h = History.create ~initial:(Value.initial 0) in
  add_write h ~p:0 ~at:1 ~until:2 ~data:10 ~sn:1;
  add_write h ~p:0 ~at:3 ~until:4 ~data:20 ~sn:2;
  add_write h ~p:0 ~at:5 ~until:6 ~data:10 ~sn:3;
  add_read h ~p:1 ~at:3 ~until:3 ~data:10 ~sn:1;
  let r = Regularity.check h in
  check_bool "equals the fold" true (r = Regularity.check_by_fold h);
  check_bool "repeated datum reported" false r.Regularity.distinct_data;
  check_int "the read is allowed" 0 (List.length r.Regularity.violations)

(* Staleness as it was measured before the binary search: a fold over
   every completed write for each read. *)
let staleness_by_fold ~include_joins h =
  let writes =
    List.filter_map
      (fun (o : History.op) ->
        match (o.kind, o.responded) with
        | History.Write w, Some r -> Some (r, w.Value.sn)
        | _, _ -> None)
      (History.completed_writes h)
  in
  let last_sn_before invoked =
    List.fold_left
      (fun acc (resp, sn) -> if Time.(resp < invoked) then Stdlib.max acc sn else acc)
      0 writes
  in
  let joins = if include_joins then History.completed_joins h else [] in
  List.filter_map
    (fun (o : History.op) ->
      match o.kind with
      | History.Read (Some x) | History.Join (Some x) ->
        let sn = if Value.is_bottom x then -1 else x.Value.sn in
        Some (o, Stdlib.max 0 (last_sn_before o.invoked - sn))
      | History.Read None | History.Join None | History.Write _ -> None)
    (History.completed_reads h @ joins)
  |> List.stable_sort (fun ((a : History.op), _) (b, _) -> Time.compare a.invoked b.invoked)

let test_staleness_equals_fold () =
  for seed = 0 to 499 do
    let h = random_history (Rng.create ~seed) ~messy:(seed mod 3 = 0) in
    let include_joins = seed mod 2 = 0 in
    let r = Staleness.measure ~include_joins h in
    let expected = staleness_by_fold ~include_joins h in
    check_bool (Printf.sprintf "seed %d: per read" seed) true (r.Staleness.per_read = expected);
    check_int (Printf.sprintf "seed %d: max" seed)
      (List.fold_left (fun m (_, s) -> Stdlib.max m s) 0 expected)
      r.Staleness.max_staleness
  done

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "dds_spec"
    [
      ( "value",
        [
          Alcotest.test_case "basics" `Quick test_value_basics;
          Alcotest.test_case "bottom" `Quick test_value_bottom;
        ] );
      ( "history",
        [
          Alcotest.test_case "read roundtrip" `Quick test_history_read_roundtrip;
          Alcotest.test_case "write patches value" `Quick test_history_write_patches_value;
          Alcotest.test_case "abort" `Quick test_history_abort;
          Alcotest.test_case "misuse" `Quick test_history_misuse;
          Alcotest.test_case "ordering and counts" `Quick test_history_ordering_and_counts;
          Alcotest.test_case "csv aborted and pending" `Quick
            test_history_csv_aborted_and_pending;
          Alcotest.test_case "disseminated vs all writes" `Quick
            test_disseminated_vs_all_writes;
        ] );
      ( "regularity",
        [
          Alcotest.test_case "sequential history" `Quick test_regular_sequential_history;
          Alcotest.test_case "initial value" `Quick test_read_of_initial_value;
          Alcotest.test_case "stale read flagged" `Quick test_stale_read_flagged;
          Alcotest.test_case "concurrent read free" `Quick
            test_concurrent_read_may_return_either;
          Alcotest.test_case "skipped write flagged" `Quick
            test_skipping_intermediate_write_flagged;
          Alcotest.test_case "pending write allowed" `Quick test_read_of_pending_write_allowed;
          Alcotest.test_case "phantom value flagged" `Quick test_never_written_value_flagged;
          Alcotest.test_case "join checked like read" `Quick test_join_checked_like_read;
          Alcotest.test_case "overlapping writes" `Quick test_overlapping_writes_detected;
          Alcotest.test_case "duplicate data" `Quick test_duplicate_data_detected;
          Alcotest.test_case "boundary tie permissive" `Quick test_boundary_tie_is_permissive;
          Alcotest.test_case "fallback: responses decrease in sn order" `Quick
            test_fallback_responses_decrease;
          Alcotest.test_case "fallback: repeated datum" `Quick test_fallback_repeated_datum;
          Alcotest.test_case "oracle generator coverage" `Quick test_generator_coverage;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "inversion detected" `Quick test_inversion_detected;
          Alcotest.test_case "monotone reads" `Quick test_no_inversion_on_monotone_reads;
          Alcotest.test_case "concurrent reads" `Quick test_concurrent_reads_not_inverted;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "measurement" `Quick test_staleness_measurement;
          Alcotest.test_case "empty" `Quick test_staleness_empty_history;
          Alcotest.test_case "equals the fold" `Quick test_staleness_equals_fold;
        ] );
      ( "linearizability",
        [
          Alcotest.test_case "accepts atomic" `Quick test_linearizability_accepts_atomic;
          Alcotest.test_case "rejects inversion" `Quick test_linearizability_rejects_inversion;
          Alcotest.test_case "rejects phantom" `Quick test_linearizability_rejects_phantom;
          Alcotest.test_case "bails out" `Quick test_linearizability_bails_out;
        ] );
      qsuite "spec-props"
        [
          prop_sequential_histories_regular;
          prop_stale_reads_flagged;
          prop_atomicity_equivalence;
          prop_check_equals_fold;
        ];
    ]
