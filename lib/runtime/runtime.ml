open Dds_sim
open Dds_net

type timer = unit -> unit

type 'msg t = {
  now : unit -> Time.t;
  after : who:Pid.t -> int -> (unit -> unit) -> timer;
  send : src:Pid.t -> dst:Pid.t -> 'msg -> unit;
  broadcast : src:Pid.t -> 'msg -> unit;
  attach : Pid.t -> (src:Pid.t -> 'msg -> unit) -> unit;
  detach : Pid.t -> unit;
  events : Event.sink option;
  incr : string -> unit;
}

let of_sim ~sched ~net =
  {
    now = (fun () -> Scheduler.now sched);
    after =
      (fun ~who d f ->
        (* Tags are only worth building under a chooser: the checker
           needs them for POR, plain simulations never look at them. *)
        let tag =
          if Scheduler.choosing sched then
            Some { Scheduler.actor = Pid.to_int who; kind = "timer:" ^ Pid.to_string who }
          else None
        in
        let tok = Scheduler.schedule_after sched ?tag d f in
        fun () -> Scheduler.cancel sched tok);
    send = (fun ~src ~dst m -> Network.send net ~src ~dst m);
    broadcast = (fun ~src m -> Network.broadcast net ~src m);
    attach = (fun pid h -> Network.attach net pid h);
    detach = (fun pid -> Network.detach net pid);
    events = Network.events net;
    incr =
      (fun name ->
        match Network.metrics net with Some m -> Metrics.incr m name | None -> ());
  }

let now t = t.now ()
let after t ~who d f = t.after ~who d f
let send t ~src ~dst m = t.send ~src ~dst m
let broadcast t ~src m = t.broadcast ~src m
let attach t pid h = t.attach pid h
let detach t pid = t.detach pid
let events t = t.events
let incr t name = t.incr name
