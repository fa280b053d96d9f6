module Profile = Dds_profile.Profile

type 'r job = { key : string; run : unit -> 'r }

exception Job_failed of { key : string; exn : exn }

(* A submitted job, erased to unit: the wrapper writes its result into
   the batch's slot array, so aggregation is by submission index and
   the merged output is independent of which worker ran what. *)
type packed = { pkey : string; prun : unit -> unit }

type batch = {
  jobs : packed array;
  next : int Atomic.t;  (** cursor: the next job index to claim *)
  remaining : int Atomic.t;  (** jobs not yet finished (run or skipped) *)
  failed : (int * string * exn) option Atomic.t;
      (** lowest-index failure recorded so far; jobs after it are skipped *)
  mutable drained : int;
      (** spawned workers that have left [work], under the pool lock;
          the submitter waits for all of them before releasing the
          batch, so per-worker stats and profile buffers are quiescent
          when [run] returns *)
}

type state = Idle | Running of batch | Stopped

type t = {
  workers : int;  (* total workers; workers - 1 spawned domains *)
  mutable domains : unit Domain.t list;
  lock : Mutex.t;
  cond : Condition.t;
      (* one condition for every wait on the pool: a new batch, its
         last job finishing, a worker draining, shutdown *)
  mutable state : state;
  mutable generation : int;  (* bumped per batch so workers re-arm *)
  (* Per-worker stats: slot [w] is written only by worker [w]. *)
  stat_jobs : int array;
  stat_busy : float array;
  mutable batch_count : int;
  mutable wall_total : float;
  profile : Profile.t option;
      (* When present, every instrumented site below records into the
         worker's own span buffer; when absent each site is one
         [option] branch — profiling off stays free. *)
}

let default_jobs () = Domain.recommended_domain_count ()

let record_failure batch index key exn =
  (* Keep the lowest-index failure so the reported key is stable. *)
  let rec go () =
    match Atomic.get batch.failed with
    | Some (i, _, _) when i <= index -> ()
    | cur ->
      if not (Atomic.compare_and_set batch.failed cur (Some (index, key, exn))) then go ()
  in
  go ()

let broadcast t =
  Mutex.lock t.lock;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock

let run_job t w batch index =
  let j = batch.jobs.(index) in
  (* Skip only jobs after a known failure: every job before the lowest
     failing one always runs, so which failure is reported does not
     depend on the worker count. *)
  (match Atomic.get batch.failed with
  | Some (i, _, _) when i < index -> ()
  | _ ->
    let t0 = Unix.gettimeofday () in
    (match t.profile with
    | None ->
      (try j.prun () with exn -> record_failure batch index j.pkey exn);
      t.stat_busy.(w) <- t.stat_busy.(w) +. (Unix.gettimeofday () -. t0)
    | Some p ->
      let g0 = Gc.quick_stat () in
      (* quick_stat's minor_words only advances at minor-collection
         boundaries; Gc.minor_words reads the live young pointer, so
         jobs shorter than one minor heap still report their words.
         Both are domain-local, which is exactly what a per-job delta
         on the running domain needs. *)
      let m0 = Gc.minor_words () in
      (try j.prun () with exn -> record_failure batch index j.pkey exn);
      let t1 = Unix.gettimeofday () in
      let g1 = Gc.quick_stat () in
      Profile.record_job p ~worker:w ~label:j.pkey ~t0 ~t1
        ~minor:(Gc.minor_words () -. m0)
        ~promoted:(g1.Gc.promoted_words -. g0.Gc.promoted_words)
        ~major:(g1.Gc.major_words -. g0.Gc.major_words)
        ~minor_cols:(g1.Gc.minor_collections - g0.Gc.minor_collections)
        ~major_cols:(g1.Gc.major_collections - g0.Gc.major_collections);
      t.stat_busy.(w) <- t.stat_busy.(w) +. (t1 -. t0));
    t.stat_jobs.(w) <- t.stat_jobs.(w) + 1);
  (* The worker that finishes the batch's last job wakes the others. *)
  if Atomic.fetch_and_add batch.remaining (-1) = 1 then broadcast t

(* Worker [w] claims jobs off the shared cursor, in submission order,
   until it passes the end; then it sleeps until the batch's last job
   finishes. That sleep is the worker's Idle span. Alone, worker 0
   runs the whole batch in order: that is the sequential run. *)
let work t w batch =
  let n = Array.length batch.jobs in
  let rec claim () =
    let i = Atomic.fetch_and_add batch.next 1 in
    if i < n then begin
      run_job t w batch i;
      claim ()
    end
  in
  claim ();
  let t0 = match t.profile with None -> 0.0 | Some _ -> Unix.gettimeofday () in
  Mutex.lock t.lock;
  while Atomic.get batch.remaining > 0 do
    Condition.wait t.cond t.lock
  done;
  Mutex.unlock t.lock;
  match t.profile with
  | Some p ->
    let t1 = Unix.gettimeofday () in
    if t1 > t0 then Profile.record p ~worker:w ~kind:Profile.Idle ~label:"" ~t0 ~t1
  | None -> ()

let worker_loop t w =
  (* Bind this domain to its span buffer once: Probe phases raised by
     job bodies land in the right lane. Worker domains live and die
     with the pool, so there is nothing to restore. *)
  (match t.profile with Some p -> Profile.set_current p ~worker:w | None -> ());
  let rec wait last_gen =
    Mutex.lock t.lock;
    let rec block () =
      match t.state with
      | Stopped -> None
      | Running b when t.generation <> last_gen -> Some (t.generation, b)
      | Running _ | Idle ->
        Condition.wait t.cond t.lock;
        block ()
    in
    let next = block () in
    Mutex.unlock t.lock;
    match next with
    | None -> ()
    | Some (gen, batch) ->
      work t w batch;
      Mutex.lock t.lock;
      batch.drained <- batch.drained + 1;
      if batch.drained = t.workers - 1 then Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      wait gen
  in
  wait 0

let create ?jobs ?minor_heap_words ?profile () =
  let workers = Stdlib.max 1 (match jobs with Some j -> j | None -> default_jobs ()) in
  (match profile with
  | Some p when Profile.workers p < workers ->
    invalid_arg
      (Printf.sprintf "Pool.create: profile records %d worker(s), pool has %d"
         (Profile.workers p) workers)
  | _ -> ());
  (* Apply the requested minor-heap size on the submitting domain now
     and inside each spawned domain below: [Gc.set] is domain-local in
     OCaml 5, so setting it here alone would leave workers 1.. on the
     runtime default. *)
  let apply_gc () =
    match minor_heap_words with
    | Some words -> Gc.set { (Gc.get ()) with Gc.minor_heap_size = Stdlib.max 4096 words }
    | None -> ()
  in
  apply_gc ();
  (match profile with
  | Some p ->
    let g = Gc.get () in
    Profile.set_gc_params p
      [ ("minor_heap_words", g.Gc.minor_heap_size); ("space_overhead", g.Gc.space_overhead) ]
  | None -> ());
  let t =
    {
      workers;
      domains = [];
      lock = Mutex.create ();
      cond = Condition.create ();
      state = Idle;
      generation = 0;
      stat_jobs = Array.make workers 0;
      stat_busy = Array.make workers 0.0;
      batch_count = 0;
      wall_total = 0.0;
      profile;
    }
  in
  t.domains <-
    List.init (workers - 1) (fun i ->
        Domain.spawn (fun () ->
            apply_gc ();
            worker_loop t (i + 1)));
  t

let jobs t = t.workers

let shutdown t =
  let stop =
    Mutex.lock t.lock;
    let was = t.state in
    if was <> Stopped then t.state <- Stopped;
    Condition.broadcast t.cond;
    Mutex.unlock t.lock;
    was <> Stopped
  in
  if stop then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let profile t = t.profile

let with_pool ?jobs ?minor_heap_words ?profile f =
  let t = create ?jobs ?minor_heap_words ?profile () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let run_batch t packed =
  (match t.state with
  | Idle -> ()
  | Running _ -> invalid_arg "Pool.run: pool is already running a batch"
  | Stopped -> invalid_arg "Pool.run: pool is shut down");
  (* The submitting domain doubles as worker 0: bind it for the
     duration of the batch (and restore after — unlike the spawned
     domains it outlives the pool). *)
  let saved =
    match t.profile with
    | None -> None
    | Some p ->
      let prev = Profile.get_current () in
      Profile.set_current p ~worker:0;
      Some prev
  in
  Fun.protect
    ~finally:(fun () -> match saved with Some prev -> Profile.restore prev | None -> ())
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let batch =
    {
      jobs = Array.of_list packed;
      next = Atomic.make 0;
      remaining = Atomic.make (List.length packed);
      failed = Atomic.make None;
      drained = 0;
    }
  in
  Mutex.lock t.lock;
  t.state <- Running batch;
  t.generation <- t.generation + 1;
  Condition.broadcast t.cond;
  Mutex.unlock t.lock;
  work t 0 batch;
  (* Drain barrier: the batch stays [Running] until here, so every
     spawned worker is guaranteed to enter [work] for this generation
     and acknowledge leaving it. Once all have, their idle spans are
     recorded and no per-worker slot is being written — [stats] /
     profile reads after [run] see a settled batch. *)
  Mutex.lock t.lock;
  while batch.drained < t.workers - 1 do
    Condition.wait t.cond t.lock
  done;
  t.state <- Idle;
  Mutex.unlock t.lock;
  t.batch_count <- t.batch_count + 1;
  t.wall_total <- t.wall_total +. (Unix.gettimeofday () -. t0);
  match Atomic.get batch.failed with
  | Some (_, key, exn) -> raise (Job_failed { key; exn })
  | None -> ()

let run t (jobs : 'r job list) : 'r list =
  let n = List.length jobs in
  let out = Array.make (Stdlib.max n 1) None in
  let packed =
    List.mapi
      (fun i (j : 'r job) ->
        { pkey = j.key; prun = (fun () -> out.(i) <- Some (j.run ())) })
      jobs
  in
  run_batch t packed;
  let collect () =
    List.init n (fun i ->
        match out.(i) with
        | Some r -> r
        | None -> raise (Job_failed { key = (List.nth jobs i).key; exn = Exit }))
  in
  match t.profile with
  | None -> collect ()
  | Some p ->
    let t0 = Unix.gettimeofday () in
    let r = collect () in
    Profile.record p ~worker:0 ~kind:Profile.Merge ~label:"" ~t0 ~t1:(Unix.gettimeofday ());
    r

let map t ~key ~f xs = run t (List.map (fun x -> { key = key x; run = (fun () -> f x) }) xs)

let find_first t ~key ~f xs =
  let n = List.length xs in
  let best = Atomic.make max_int in
  let out = Array.make (Stdlib.max n 1) None in
  let jobs =
    List.mapi
      (fun i x ->
        {
          key = key x;
          run =
            (fun () ->
              (* Skip only elements strictly after a known hit: every
                 element before any hit is always evaluated, so the
                 lowest-index answer is worker-count-independent. *)
              if i < Atomic.get best then
                match f x with
                | None -> ()
                | Some r ->
                  out.(i) <- Some r;
                  let rec lower () =
                    let cur = Atomic.get best in
                    if i < cur && not (Atomic.compare_and_set best cur i) then lower ()
                  in
                  lower ());
        })
      xs
  in
  ignore (run t jobs : unit list);
  match Atomic.get best with
  | i when i = max_int -> None
  | i -> Some (i, Option.get out.(i))

let expand_frontier t ~key ~children ?(max_levels = 64) ~target roots =
  let rec loop level frontier =
    let branches =
      List.filter_map (function Either.Left x -> Some x | Either.Right _ -> None) frontier
    in
    if branches = [] || List.length frontier >= target || level >= max_levels then frontier
    else begin
      let expanded = map t ~key ~f:children branches in
      (* Positional stitch: each Left is replaced by its children (in
         their returned order), Rights pass through — so the frontier
         order is a pure function of the tree, not of scheduling. *)
      let rec stitch fr ex acc =
        match (fr, ex) with
        | [], [] -> List.rev acc
        | (Either.Right _ as leaf) :: fr, ex -> stitch fr ex (leaf :: acc)
        | Either.Left _ :: fr, kids :: ex -> stitch fr ex (List.rev_append kids acc)
        | Either.Left _ :: _, [] | [], _ :: _ -> assert false
      in
      loop (level + 1) (stitch frontier expanded [])
    end
  in
  loop 0 (List.map Either.left roots)

type worker_stat = { ws_jobs : int; ws_busy_s : float }

let stats t =
  List.init t.workers (fun w -> { ws_jobs = t.stat_jobs.(w); ws_busy_s = t.stat_busy.(w) })

let batches t = t.batch_count
let wall_s t = t.wall_total

let metrics t =
  let m = Dds_sim.Metrics.create () in
  let total_jobs = Array.fold_left ( + ) 0 t.stat_jobs in
  let total_busy = Array.fold_left ( +. ) 0.0 t.stat_busy in
  Dds_sim.Metrics.add m "engine.jobs" total_jobs;
  Dds_sim.Metrics.add m "engine.batches" t.batch_count;
  Dds_sim.Metrics.add m "engine.workers" t.workers;
  Dds_sim.Metrics.set_gauge m "engine.wall_s" t.wall_total;
  Dds_sim.Metrics.set_gauge m "engine.busy_s" total_busy;
  for w = 0 to t.workers - 1 do
    Dds_sim.Metrics.set_gauge m (Printf.sprintf "engine.w%d.jobs" w) (float_of_int t.stat_jobs.(w));
    Dds_sim.Metrics.set_gauge m (Printf.sprintf "engine.w%d.busy_s" w) t.stat_busy.(w)
  done;
  m
