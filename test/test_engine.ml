(* Tests for the experiment engine: the domain pool's determinism
   contract (canonical-order results, lowest-index find_first and
   failures, byte-identical tables at any worker count), the job
   cursor and drain barrier under back-to-back batches, failure
   propagation, recorder sizing, and shutdown hygiene. *)

open Dds_engine
open Dds_workload

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      let ys =
        Pool.map p ~key:(Printf.sprintf "sq:%d") ~f:(fun x -> x * x) xs
      in
      check_bool "canonical order" true (ys = List.map (fun x -> x * x) xs))

let test_pool_matches_sequential () =
  (* Satellite 1: a concurrent batch of full simulation runs must give
     the same per-seed results as running them one at a time — i.e. no
     hidden shared state between cells. *)
  let cell seed =
    Sweep.lemma2 ~n:12 ~delta:2 ~ratios:[ 0.5; 0.9 ] ~horizon:150 ~seed ()
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let sequential = List.map cell seeds in
  let concurrent =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map p ~key:(Printf.sprintf "cell:%d") ~f:cell seeds)
  in
  check_bool "concurrent == sequential" true (concurrent = sequential)

let test_pool_failure_carries_key () =
  Pool.with_pool ~jobs:2 (fun p ->
      match
        Pool.map p
          ~key:(Printf.sprintf "job:%d")
          ~f:(fun x -> if x = 7 then failwith "boom" else x)
          (List.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed { key; exn } ->
        check Alcotest.string "failing job named" "job:7" key;
        check_bool "original exception kept" true (exn = Failure "boom"))

(* Jobs 5 and 11 fail; job 5 sleeps first, so at jobs > 1 job 11's
   failure is usually recorded before it. The lowest index must still
   be the one reported, and a sequential run must stop at it. *)
let test_pool_lowest_failure_wins () =
  List.iter
    (fun jobs ->
      let ran = Array.init 16 (fun _ -> Atomic.make false) in
      Pool.with_pool ~jobs (fun p ->
          match
            Pool.map p
              ~key:(Printf.sprintf "job:%d")
              ~f:(fun x ->
                Atomic.set ran.(x) true;
                if x = 5 then begin
                  Unix.sleepf 0.005;
                  failwith "five"
                end;
                if x = 11 then failwith "eleven";
                x)
              (List.init 16 Fun.id)
          with
          | _ -> Alcotest.fail "expected Job_failed"
          | exception Pool.Job_failed { key; exn } ->
            check Alcotest.string (Printf.sprintf "jobs %d: lowest failure named" jobs) "job:5"
              key;
            check_bool "its exception kept" true (exn = Failure "five"));
      if jobs = 1 then
        for i = 6 to 15 do
          check_bool (Printf.sprintf "job %d skipped after the failure" i) false
            (Atomic.get ran.(i))
        done)
    [ 1; 2; 4 ]

(* Back-to-back batches of 0 to 9 jobs, some sleeping: every batch
   returns List.map's result, every job runs exactly once, and the
   per-worker job counts add up. A lost wakeup on the cursor's end or
   the drain barrier shows as a hang. *)
let test_pool_back_to_back_batches () =
  List.iter
    (fun jobs ->
      let rng = Random.State.make [| jobs |] in
      Pool.with_pool ~jobs (fun p ->
          let submitted = ref 0 in
          for _ = 1 to 300 do
            let n = Random.State.int rng 10 in
            let sleepy = Random.State.int rng (n + 1) in
            let runs = Array.init n (fun _ -> Atomic.make 0) in
            let xs = List.init n Fun.id in
            let ys =
              Pool.map p ~key:(Printf.sprintf "b:%d")
                ~f:(fun x ->
                  Atomic.incr runs.(x);
                  if x < sleepy && x mod 3 = 0 then Unix.sleepf 0.001;
                  x * 7)
                xs
            in
            check_bool "results equal List.map" true (ys = List.map (fun x -> x * 7) xs);
            Array.iteri
              (fun i r -> check_int (Printf.sprintf "job %d ran once" i) 1 (Atomic.get r))
              runs;
            submitted := !submitted + n
          done;
          let ran = List.fold_left (fun a s -> a + s.Pool.ws_jobs) 0 (Pool.stats p) in
          check_int (Printf.sprintf "jobs %d: ws_jobs sum" jobs) !submitted ran))
    [ 2; 4; 8 ]

let test_pool_profile_too_small () =
  let profile = Dds_profile.Profile.create ~workers:2 () in
  match Pool.create ~jobs:4 ~profile () with
  | p ->
    Pool.shutdown p;
    Alcotest.fail "a recorder with fewer workers than the pool must be refused"
  | exception Invalid_argument _ -> ()

let test_pool_shutdown () =
  let p = Pool.create ~jobs:3 () in
  check_int "worker count" 3 (Pool.jobs p);
  ignore (Pool.map p ~key:(Printf.sprintf "warm:%d") ~f:Fun.id [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.map p ~key:(Printf.sprintf "late:%d") ~f:Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_find_first_lowest () =
  Pool.with_pool ~jobs:8 (fun p ->
      (* Several matches; the lowest index must win regardless of which
         worker finishes first, and the examined count must equal the
         sequential prefix length. *)
      let xs = List.init 64 Fun.id in
      for _ = 1 to 20 do
        match
          Pool.find_first p
            ~key:(Printf.sprintf "probe:%d")
            ~f:(fun x -> if x >= 13 && x mod 2 = 1 then Some (x * 10) else None)
            xs
        with
        | None -> Alcotest.fail "expected a hit"
        | Some (i, v) ->
          check_int "lowest matching index" 13 i;
          check_int "its payload" 130 v
      done)

let test_find_first_none () =
  Pool.with_pool ~jobs:4 (fun p ->
      check_bool "no match -> None" true
        (Pool.find_first p ~key:(Printf.sprintf "miss:%d") ~f:(fun _ -> None)
           (List.init 32 Fun.id)
        = None))

(* ------------------------------------------------------------------ *)
(* Determinism property: a rendered sweep table is byte-identical for
   any worker count (satellite 3). *)

(* E4's table, rendered through its registry entry at a small scale. *)
let render_lemma2 ~pool ~n ~seed =
  let e = Result.get_ok (Experiment.find "lemma2") in
  e.Experiment.run ?pool { e.Experiment.defaults with Experiment.n; delta = 2; horizon = 120; seed }
  |> List.map (Format.asprintf "%a" Report.pp)
  |> String.concat ""

let prop_tables_jobs_invariant =
  QCheck.Test.make ~count:8 ~name:"sweep tables byte-identical for jobs in {1,2,4,8}"
    QCheck.(pair (int_range 6 14) (int_range 1 1000))
    (fun (n, seed) ->
      let reference = render_lemma2 ~pool:None ~n ~seed in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              String.equal reference (render_lemma2 ~pool:(Some p) ~n ~seed)))
        [ 1; 2; 4; 8 ])

let () =
  Alcotest.run "dds-engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map canonical order" `Quick test_pool_map_order;
          Alcotest.test_case "concurrent == sequential" `Slow test_pool_matches_sequential;
          Alcotest.test_case "failure carries key" `Quick test_pool_failure_carries_key;
          Alcotest.test_case "lowest failure wins" `Quick test_pool_lowest_failure_wins;
          Alcotest.test_case "back-to-back batches" `Quick test_pool_back_to_back_batches;
          Alcotest.test_case "profile smaller than pool" `Quick test_pool_profile_too_small;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "find_first lowest" `Quick test_find_first_lowest;
          Alcotest.test_case "find_first none" `Quick test_find_first_none;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest ~long:false prop_tables_jobs_invariant ] );
    ]
