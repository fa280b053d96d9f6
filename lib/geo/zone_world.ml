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
  }

module Host = Node_host.Make (Sync_register)

type slot = {
  walker : Mobility.walker;
  mutable pid : Pid.t option;  (** identity while inside the zone *)
}

type t = {
  cfg : config;
  sched : Scheduler.t;
  move_rng : Rng.t;
  workload_rng : Rng.t;
  host : Host.t;
  membership : Membership.t;
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
let history t = Host.history t.host
let metrics t = t.metrics
let now t = Scheduler.now t.sched
let zone_population t = Membership.n_present t.membership
let inside t p = Point.within p ~center:t.cfg.zone_center ~radius:t.cfg.zone_radius

(* A walker crosses into the zone: a brand-new process joins. *)
let enter t slot ~founding =
  let pid = Pid.fresh t.pid_gen in
  slot.pid <- Some pid;
  Membership.add t.membership pid ~now:(now t);
  t.entries <- t.entries + 1;
  let on_active _ = Membership.set_active t.membership pid ~now:(now t) in
  if founding then Host.found t.host pid ~on_active else Host.join t.host pid ~on_active

(* The walker leaves coverage: the process is gone forever. *)
let exit_zone t slot =
  (match slot.pid with
  | Some pid ->
    Host.depart t.host pid;
    Membership.remove t.membership pid ~now:(now t);
    if t.writer = Some pid then t.writer <- None;
    t.exits <- t.exits + 1
  | None -> ());
  slot.pid <- None

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
      host =
        Host.create ~sched ~net ~params:(Sync_register.default_params ~delta:cfg.delta);
      membership = Membership.create ~metrics ();
      metrics;
      pid_gen = Pid.generator ();
      slots =
        Array.init cfg.walkers (fun _ ->
            {
              walker =
                Mobility.create move_rng ~width:cfg.width ~height:cfg.height
                  ~speed:cfg.speed;
              pid = None;
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

let active_ready t =
  Array.to_list t.slots
  |> List.filter_map (fun slot ->
         match slot.pid with Some pid when Host.idle t.host pid -> Some pid | _ -> None)

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
     | Some w when Host.idle t.host w ->
       t.write_counter <- t.write_counter + 1;
       Host.write t.host w t.write_counter ~k:ignore
     | Some _ | None -> ()
   end);
  for _ = 1 to Rng.stochastic_round t.workload_rng read_rate do
    match active_ready t with
    | [] -> ()
    | candidates -> Host.read t.host (Rng.pick_list t.workload_rng candidates) ~k:ignore
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
let regularity t = Regularity.check (history t)
let staleness t = Staleness.measure (history t)

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
