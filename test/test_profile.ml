(* Tests for the engine profiler: observation-only (identical results
   and rendered tables with a recorder attached), per-domain span
   well-nestedness, GC telemetry plausibility, Chrome export
   round-trip, the drop cap, the Probe hook, and worker-count
   independence of what gets recorded (as a qcheck property). *)

open Dds_engine
open Dds_workload
module Profile = Dds_profile.Profile

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* E4's table, rendered through its registry entry at a small scale. *)
let render_lemma2 ~pool ~n ~seed =
  let e = Result.get_ok (Experiment.find "lemma2") in
  e.Experiment.run ?pool { e.Experiment.defaults with Experiment.n; delta = 2; horizon = 120; seed }
  |> List.map (Format.asprintf "%a" Report.pp)
  |> String.concat ""

(* ------------------------------------------------------------------ *)
(* Observation only: attaching a recorder changes nothing. *)

let test_off_identical () =
  let n = 12 and seed = 3 in
  let plain = Pool.with_pool ~jobs:2 (fun p -> render_lemma2 ~pool:(Some p) ~n ~seed) in
  let profile = Profile.create ~workers:2 () in
  let profiled =
    Pool.with_pool ~jobs:2 ~profile (fun p -> render_lemma2 ~pool:(Some p) ~n ~seed)
  in
  check_bool "table byte-identical with recorder attached" true (String.equal plain profiled);
  check_bool "and the recorder actually saw the jobs" true
    ((Profile.summary profile).Profile.s_jobs > 0)

(* ------------------------------------------------------------------ *)
(* A profiled batch: span structure, GC telemetry, summary sanity. *)

let profiled_batch ~jobs ~njobs =
  let profile = Profile.create ~workers:jobs () in
  let results =
    Pool.with_pool ~jobs ~profile (fun p ->
        Pool.map p
          ~key:(fun i -> Printf.sprintf "job-%02d" i)
          ~f:(fun i ->
            (* Allocate visibly so the minor-words telemetry has
               something to see. *)
            let l = List.init 2000 (fun k -> k * i) in
            List.fold_left ( + ) 0 l)
          (List.init njobs Fun.id))
  in
  (profile, results)

let test_job_spans_and_gc () =
  let njobs = 12 in
  let profile, results = profiled_batch ~jobs:3 ~njobs in
  check_int "results in canonical order" njobs (List.length results);
  let spans = Profile.spans profile in
  let jobs_spans = List.filter (fun s -> s.Profile.sp_kind = Profile.Job) spans in
  check_int "one Job span per job" njobs (List.length jobs_spans);
  List.iter
    (fun s ->
      check_bool "span has duration >= 0" true (s.Profile.sp_t1 >= s.Profile.sp_t0);
      check_bool "minor words non-negative" true (s.Profile.sp_minor >= 0.0))
    jobs_spans;
  check_bool "batch allocated minor words" true
    (List.exists (fun s -> s.Profile.sp_minor > 0.0) jobs_spans);
  let labels =
    List.sort compare (List.map (fun s -> s.Profile.sp_label) jobs_spans)
  in
  let expected = List.sort compare (List.init njobs (Printf.sprintf "job-%02d")) in
  check (Alcotest.list Alcotest.string) "every submitted key ran exactly once" expected labels;
  let s = Profile.summary profile in
  check_int "summary job count" njobs s.Profile.s_jobs;
  check_int "summary worker count" 3 (List.length s.Profile.s_workers);
  check_bool "busy fraction in [0,1]" true
    (s.Profile.s_busy_fraction >= 0.0 && s.Profile.s_busy_fraction <= 1.0);
  check_bool "dominant cost named" true (String.length s.Profile.s_dominant > 0)

(* Per domain, spans must be well-nested: any two are disjoint or one
   contains the other (phases sit inside their job; job, steal, idle
   and merge spans never overlap on one worker). *)
let test_spans_well_nested () =
  let profile, _ = profiled_batch ~jobs:4 ~njobs:24 in
  let spans = Profile.spans profile in
  check_bool "recorded something" true (spans <> []);
  let by_worker = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_worker s.Profile.sp_worker) in
      Hashtbl.replace by_worker s.Profile.sp_worker (s :: l))
    spans;
  Hashtbl.iter
    (fun worker ss ->
      List.iteri
        (fun i a ->
          List.iteri
            (fun k b ->
              if i < k then begin
                let disjoint =
                  a.Profile.sp_t1 <= b.Profile.sp_t0 || b.Profile.sp_t1 <= a.Profile.sp_t0
                in
                let nested =
                  (a.Profile.sp_t0 <= b.Profile.sp_t0 && b.Profile.sp_t1 <= a.Profile.sp_t1)
                  || (b.Profile.sp_t0 <= a.Profile.sp_t0 && a.Profile.sp_t1 <= b.Profile.sp_t1)
                in
                if not (disjoint || nested) then
                  Alcotest.failf
                    "worker %d: %s [%f,%f] overlaps %s [%f,%f] without nesting" worker
                    (Profile.kind_to_string a.Profile.sp_kind)
                    a.Profile.sp_t0 a.Profile.sp_t1
                    (Profile.kind_to_string b.Profile.sp_kind)
                    b.Profile.sp_t0 b.Profile.sp_t1
              end)
            ss)
        ss)
    by_worker

(* ------------------------------------------------------------------ *)
(* Probe hook: phases land in the bound worker's lane; no handler (or
   no binding) means straight pass-through. *)

let test_probe_phases () =
  check_int "span is transparent" 41 (Dds_sim.Probe.span "x" (fun () -> 41));
  let profile = Profile.create ~workers:1 () in
  let saved = Profile.get_current () in
  Profile.set_current profile ~worker:0;
  let r = Dds_sim.Probe.span "outer" (fun () -> Dds_sim.Probe.span "inner" (fun () -> 7)) in
  Profile.restore saved;
  check_int "phases are transparent too" 7 r;
  let phases =
    List.filter (fun s -> s.Profile.sp_kind = Profile.Phase) (Profile.spans profile)
  in
  check_int "both phases recorded" 2 (List.length phases);
  (* Closed innermost-first. *)
  check (Alcotest.list Alcotest.string) "labels" [ "inner"; "outer" ]
    (List.map (fun s -> s.Profile.sp_label) phases);
  let sum = Profile.summary profile in
  check_int "phase table sees both" 2 (List.length sum.Profile.s_phases)

(* Deployment construction emits deploy/rng phases when a recorder is
   bound — the "known suspects" phase timers end to end. *)
let test_deploy_phases_via_engine () =
  let profile = Profile.create ~workers:2 () in
  ignore
    (Pool.with_pool ~jobs:2 ~profile (fun p ->
         render_lemma2 ~pool:(Some p) ~n:12 ~seed:5));
  let names = List.map (fun (name, _, _) -> name) (Profile.summary profile).Profile.s_phases in
  check_bool "deploy phase timed" true (List.mem "deploy" names);
  check_bool "rng phase timed" true (List.mem "rng" names)

(* ------------------------------------------------------------------ *)
(* Chrome export parses back; one lane per domain; summary attached. *)

let test_chrome_round_trip () =
  let workers = 3 in
  let profile, _ = profiled_batch ~jobs:workers ~njobs:9 in
  let text = Dds_sim.Json.to_string (Profile.to_json profile) in
  match Dds_sim.Json.parse text with
  | Error e -> Alcotest.failf "export did not parse back: %s" e
  | Ok j ->
    let events =
      match Dds_sim.Json.member "traceEvents" j with
      | Some (Dds_sim.Json.List evs) -> evs
      | _ -> Alcotest.fail "no traceEvents array"
    in
    check_bool "has events" true (events <> []);
    let lanes =
      List.filter_map
        (fun ev ->
          match
            ( Option.bind (Dds_sim.Json.member "name" ev) Dds_sim.Json.to_string_opt,
              Option.bind (Dds_sim.Json.member "tid" ev) Dds_sim.Json.to_int_opt )
          with
          | Some "thread_name", Some tid -> Some tid
          | _ -> None)
        events
      |> List.sort_uniq compare
    in
    check (Alcotest.list Alcotest.int) "one named lane per domain"
      (List.init workers Fun.id) lanes;
    List.iter
      (fun ev ->
        match Option.bind (Dds_sim.Json.member "ph" ev) Dds_sim.Json.to_string_opt with
        | Some "X" ->
          let dur =
            Option.bind (Dds_sim.Json.member "dur" ev) Dds_sim.Json.to_int_opt
          in
          check_bool "X events carry a duration" true (Option.is_some dur)
        | _ -> ())
      events;
    check_bool "summary attached" true (Dds_sim.Json.member "summary" j <> None)

(* ------------------------------------------------------------------ *)
(* The drop cap: over-full buffers count drops instead of growing. *)

let test_drop_cap () =
  let profile = Profile.create ~max_spans:8 ~workers:1 () in
  for i = 0 to 99 do
    let t = float_of_int i in
    Profile.record profile ~worker:0 ~kind:Profile.Job ~label:"x" ~t0:t ~t1:(t +. 0.5)
  done;
  check_int "buffer capped" 8 (List.length (Profile.spans profile));
  check_int "overflow counted as dropped" 92 (Profile.summary profile).Profile.s_dropped

(* ------------------------------------------------------------------ *)
(* Worker-count independence: the recorded work (job labels) is a
   function of the batch, not of how many domains ran it. *)

let prop_jobs_invariant =
  QCheck.Test.make ~count:8 ~name:"recorded job labels identical for jobs in {1,2,4}"
    QCheck.(pair (int_range 4 20) small_nat)
    (fun (njobs, salt) ->
      let labels jobs =
        let profile = Profile.create ~workers:jobs () in
        ignore
          (Pool.with_pool ~jobs ~profile (fun p ->
               Pool.map p
                 ~key:(fun i -> Printf.sprintf "cell-%d-%d" salt i)
                 ~f:(fun i -> i * i)
                 (List.init njobs Fun.id)));
        List.filter_map
          (fun s ->
            if s.Profile.sp_kind = Profile.Job then Some s.Profile.sp_label else None)
          (Profile.spans profile)
        |> List.sort compare
      in
      let reference = labels 1 in
      List.for_all (fun j -> labels j = reference) [ 2; 4 ])

let () =
  Alcotest.run "dds-profile"
    [
      ( "observation-only",
        [
          Alcotest.test_case "tables identical with recorder" `Quick test_off_identical;
        ] );
      ( "spans",
        [
          Alcotest.test_case "job spans + GC telemetry" `Quick test_job_spans_and_gc;
          Alcotest.test_case "well-nested per domain" `Quick test_spans_well_nested;
          Alcotest.test_case "drop cap" `Quick test_drop_cap;
        ] );
      ( "probe",
        [
          Alcotest.test_case "phase hook" `Quick test_probe_phases;
          Alcotest.test_case "deploy/rng phases end to end" `Quick
            test_deploy_phases_via_engine;
        ] );
      ( "export",
        [ Alcotest.test_case "chrome round trip" `Quick test_chrome_round_trip ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest ~long:false prop_jobs_invariant ] );
    ]
