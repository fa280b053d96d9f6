(* Tests for the experiment engine: the work-stealing deque under
   contention, the domain pool's determinism contract (canonical-order
   results, lowest-index find_first, byte-identical tables at any
   worker count), failure propagation, and shutdown hygiene. *)

open Dds_engine
open Dds_workload

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Deque *)

let test_deque_lifo_owner () =
  let d = Deque.create () in
  for i = 1 to 10 do
    Deque.push d i
  done;
  check_int "size" 10 (Deque.size d);
  (* Owner pops newest-first. *)
  for i = 10 downto 1 do
    match Deque.pop d with
    | Some v -> check_int "pop order" i v
    | None -> Alcotest.fail "premature empty"
  done;
  check_bool "empty" true (Deque.pop d = None)

let test_deque_fifo_thief () =
  let d = Deque.create () in
  for i = 1 to 10 do
    Deque.push d i
  done;
  (* A thief steals oldest-first, from the opposite end. *)
  for i = 1 to 10 do
    match Deque.steal d with
    | Some v -> check_int "steal order" i v
    | None -> Alcotest.fail "premature empty"
  done;
  check_bool "empty" true (Deque.steal d = None)

let test_deque_growth () =
  let d = Deque.create ~capacity:2 () in
  for i = 1 to 1000 do
    Deque.push d i
  done;
  check_int "all retained across growth" 1000 (Deque.size d);
  let sum = ref 0 in
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      sum := !sum + v;
      drain ()
    | None -> ()
  in
  drain ();
  check_int "no element lost or duplicated" (1000 * 1001 / 2) !sum

(* One owner pushing and popping, several thieves stealing: every value
   must surface exactly once across all parties. *)
let test_deque_contention () =
  let d = Deque.create () in
  let total = 20_000 in
  let stolen = Array.make 4 0 in
  let stop = Atomic.make false in
  let thieves =
    List.init 4 (fun t ->
        Domain.spawn (fun () ->
            let acc = ref 0 in
            while not (Atomic.get stop) do
              match Deque.steal d with
              | Some v -> acc := !acc + v
              | None -> Domain.cpu_relax ()
            done;
            (* Drain what is left after the owner signalled stop. *)
            let rec drain () =
              match Deque.steal d with
              | Some v ->
                acc := !acc + v;
                drain ()
              | None -> ()
            in
            drain ();
            stolen.(t) <- !acc))
  in
  let owner_sum = ref 0 in
  for i = 1 to total do
    Deque.push d i;
    (* Interleave pops so the owner races the thieves at the bottom. *)
    if i mod 3 = 0 then
      match Deque.pop d with
      | Some v -> owner_sum := !owner_sum + v
      | None -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join thieves;
  let grand = Array.fold_left ( + ) !owner_sum stolen in
  check_int "every value surfaced exactly once" (total * (total + 1) / 2) grand

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
      ( "deque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_deque_lifo_owner;
          Alcotest.test_case "thief FIFO" `Quick test_deque_fifo_thief;
          Alcotest.test_case "growth" `Quick test_deque_growth;
          Alcotest.test_case "contention" `Slow test_deque_contention;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map canonical order" `Quick test_pool_map_order;
          Alcotest.test_case "concurrent == sequential" `Slow test_pool_matches_sequential;
          Alcotest.test_case "failure carries key" `Quick test_pool_failure_carries_key;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "find_first lowest" `Quick test_find_first_lowest;
          Alcotest.test_case "find_first none" `Quick test_find_first_none;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest ~long:false prop_tables_jobs_invariant ] );
    ]
