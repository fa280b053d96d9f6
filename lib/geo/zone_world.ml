open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec
open Dds_core

type config = {
  seed : int;
  walkers : int;
  width : float;
  height : float;
  zone_center : Point.t;
  zone_radius : float;
  speed : float;
  delta : int;
  initial_value : int;
}

let default_config ~seed ~speed =
  {
    seed;
    walkers = 40;
    width = 100.0;
    height = 100.0;
    zone_center = Point.make ~x:50.0 ~y:50.0;
    zone_radius = 25.0;
    speed;
    delta = 3;
    initial_value = 0;
  }

type slot = {
  walker : Mobility.walker;
  mutable pid : Pid.t option;  (** identity while inside the zone *)
  mutable node : Sync_register.node option;
  mutable pending : History.op_id list;
}

type t = {
  cfg : config;
  sched : Scheduler.t;
  move_rng : Rng.t;
  workload_rng : Rng.t;
  net : Sync_register.msg Network.t;
  membership : Membership.t;
  history : History.t;
  metrics : Metrics.t;
  pid_gen : Pid.gen;
  slots : slot array;
  population : Stats.t;
  mutable writer : Pid.t option;
  mutable write_counter : int;
  mutable entries : int;
  mutable exits : int;
  mutable ticks : int;
  mutable population_sum : int;
}

let scheduler t = t.sched
let membership t = t.membership
let history t = t.history
let metrics t = t.metrics
let now t = Scheduler.now t.sched
let zone_population t = Membership.n_present t.membership
let inside t p = Point.within p ~center:t.cfg.zone_center ~radius:t.cfg.zone_radius
let params t = Sync_register.default_params ~delta:t.cfg.delta

(* A walker crosses into the zone: a brand-new process joins. *)
let enter t slot ~founding =
  let pid = Pid.fresh t.pid_gen in
  slot.pid <- Some pid;
  Membership.add t.membership pid ~now:(now t);
  t.entries <- t.entries + 1;
  if founding then begin
    let node =
      Sync_register.create ~rt:(Dds_runtime.Runtime.of_sim ~sched:t.sched ~net:t.net)
        ~params:(params t) ~pid
        ~initial:(Some (Value.initial t.cfg.initial_value))
        ~on_active:(fun _ -> Membership.set_active t.membership pid ~now:(now t))
    in
    slot.node <- Some node
  end
  else begin
    let op = History.begin_join t.history pid ~now:(now t) in
    slot.pending <- op :: slot.pending;
    let node =
      Sync_register.create ~rt:(Dds_runtime.Runtime.of_sim ~sched:t.sched ~net:t.net)
        ~params:(params t) ~pid ~initial:None
        ~on_active:(fun value ->
          if Membership.is_present t.membership pid then begin
            Membership.set_active t.membership pid ~now:(now t);
            History.end_join t.history op ~now:(now t) value;
            slot.pending <- List.filter (fun o -> o <> op) slot.pending
          end)
    in
    slot.node <- Some node
  end

(* The walker leaves coverage: the process is gone forever. *)
let exit_zone t slot =
  (match slot.node with Some node -> Sync_register.leave node | None -> ());
  (match slot.pid with
  | Some pid ->
    List.iter (History.abort t.history) slot.pending;
    slot.pending <- [];
    Membership.remove t.membership pid ~now:(now t);
    if t.writer = Some pid then t.writer <- None;
    t.exits <- t.exits + 1
  | None -> ());
  slot.pid <- None;
  slot.node <- None

let create cfg =
  let root = Rng.create ~seed:cfg.seed in
  let move_rng = Rng.split root in
  let net_rng = Rng.split root in
  let workload_rng = Rng.split root in
  let sched = Scheduler.create () in
  let metrics = Metrics.create () in
  let net =
    Network.create ~sched ~rng:net_rng
      ~delay:(Delay.synchronous ~delta:cfg.delta)
      ~metrics ()
  in
  let t =
    {
      cfg;
      sched;
      move_rng;
      workload_rng;
      net;
      membership = Membership.create ~metrics ();
      history = History.create ~initial:(Value.initial cfg.initial_value);
      metrics;
      pid_gen = Pid.generator ();
      slots =
        Array.init cfg.walkers (fun _ ->
            {
              walker =
                Mobility.create move_rng ~width:cfg.width ~height:cfg.height
                  ~speed:cfg.speed;
              pid = None;
              node = None;
              pending = [];
            });
      population = Stats.create ();
      writer = None;
      write_counter = 0;
      entries = 0;
      exits = 0;
      ticks = 0;
      population_sum = 0;
    }
  in
  (* The system must be born non-empty: if no walker landed inside the
     zone, place the first one at its centre. *)
  let any_inside =
    Array.exists (fun s -> inside t (Mobility.position s.walker)) t.slots
  in
  if not any_inside then Mobility.teleport t.slots.(0).walker t.cfg.zone_center;
  Array.iter
    (fun slot ->
      if inside t (Mobility.position slot.walker) then enter t slot ~founding:true)
    t.slots;
  t.entries <- 0;
  (* founders are not zone crossings *)
  (match Membership.present t.membership with
  | first :: _ -> t.writer <- Some first
  | [] -> assert false);
  t

(* One world tick: move everyone, process crossings, sample stats. *)
let world_tick t () =
  Array.iter
    (fun slot ->
      Mobility.step slot.walker t.move_rng;
      let is_in = inside t (Mobility.position slot.walker) in
      match slot.pid with
      | None when is_in -> enter t slot ~founding:false
      | Some _ when not is_in -> exit_zone t slot
      | Some _ | None -> ())
    t.slots;
  t.ticks <- t.ticks + 1;
  let pop = zone_population t in
  t.population_sum <- t.population_sum + pop;
  Stats.add_int t.population pop

let start t ~until =
  let rec schedule time =
    if Time.(time <= until) then begin
      ignore (Scheduler.schedule_at t.sched time (world_tick t));
      schedule (Time.add time 1)
    end
  in
  schedule (Time.add (now t) 1)

let node_ready t pid =
  Array.fold_left
    (fun acc slot ->
      match (acc, slot.pid, slot.node) with
      | None, Some p, Some node when Pid.equal p pid ->
        if Sync_register.is_active node && not (Sync_register.busy node) then Some node
        else None
      | acc, _, _ -> acc)
    None t.slots

let active_ready t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         match (slot.pid, slot.node) with
         | Some pid, Some node
           when Sync_register.is_active node && not (Sync_register.busy node) ->
           Some pid
         | _ -> None)

let do_read t pid node =
  let op = History.begin_read t.history pid ~now:(now t) in
  Sync_register.read node ~k:(fun value -> History.end_read t.history op ~now:(now t) value)

let do_write t pid node =
  t.write_counter <- t.write_counter + 1;
  let data = t.write_counter in
  let sn =
    match Sync_register.snapshot node with
    | Some v when not (Value.is_bottom v) -> v.Value.sn + 1
    | Some _ | None -> 0
  in
  let op = History.begin_write t.history pid ~now:(now t) (Value.make ~data ~sn) in
  (* The walker may wander out before the write's delta wait ends; the
     slot's pending list lets the exit path abort it. *)
  let slot =
    Array.to_list t.slots
    |> List.find (fun s -> match s.pid with Some p -> Pid.equal p pid | None -> false)
  in
  slot.pending <- op :: slot.pending;
  Sync_register.write node data ~k:(fun value ->
      History.end_write t.history op ~now:(now t) value;
      slot.pending <- List.filter (fun o -> o <> op) slot.pending)

let activity_tick t ~read_rate ~write_every () =
  let tick = Time.to_int (now t) in
  (if write_every > 0 && tick mod write_every = 0 then begin
     (* Re-elect if the writer wandered off. *)
     (match t.writer with
     | Some w when Membership.is_present t.membership w -> ()
     | Some _ | None -> (
       match active_ready t with
       | pid :: _ -> t.writer <- Some pid
       | [] -> t.writer <- None));
     match t.writer with
     | Some w -> (
       match node_ready t w with Some node -> do_write t w node | None -> ())
     | None -> ()
   end);
  let reads = int_of_float read_rate + (if Rng.float t.workload_rng 1.0 < (read_rate -. Float.of_int (int_of_float read_rate)) then 1 else 0) in
  for _ = 1 to reads do
    match active_ready t with
    | [] -> ()
    | candidates -> (
      let pid = Rng.pick_list t.workload_rng candidates in
      match node_ready t pid with Some node -> do_read t pid node | None -> ())
  done

let start_activity t ~read_rate ~write_every ~until =
  let rec schedule time =
    if Time.(time <= until) then begin
      ignore (Scheduler.schedule_at t.sched time (activity_tick t ~read_rate ~write_every));
      schedule (Time.add time 1)
    end
  in
  schedule (Time.add (now t) 1)

let run_until t horizon = Scheduler.run_until t.sched horizon
let regularity t = Regularity.check t.history
let staleness t = Staleness.measure t.history

let emergent_churn t =
  if t.ticks = 0 || t.population_sum = 0 then 0.0
  else
    let crossings_per_tick =
      float_of_int (t.entries + t.exits) /. 2.0 /. float_of_int t.ticks
    in
    let avg_population = float_of_int t.population_sum /. float_of_int t.ticks in
    crossings_per_tick /. avg_population

let population_stats t = t.population
let crossings t = (t.entries, t.exits)
