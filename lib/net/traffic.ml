open Dds_sim

(* The handles are resolved once at [create], so the per-copy path
   hashes no counter name; [net.faulted], bumped only under an
   injected fault, goes by name. *)
type 'a t = {
  metrics : Metrics.t;
  transmit : Metrics.counter;
  sent : Metrics.counter;
  broadcast : Metrics.counter;
  delivered : Metrics.counter;
  dropped : Metrics.counter;
  live : Event.sink option;  (** the sink, when it is enabled *)
  now : unit -> Time.t;
  msg_kind : 'a -> string;
  clocks : int Pid.Table.t;  (** per-process Lamport clocks, ticked only while [live] *)
}

let create ~metrics ~events ~now ~msg_kind =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  let c = Metrics.counter m in
  {
    metrics = m;
    transmit = c "net.transmit";
    sent = c "net.sent";
    broadcast = c "net.broadcast";
    delivered = c "net.delivered";
    dropped = c "net.dropped";
    live = (match events with Some s as live when Event.enabled s -> live | Some _ | None -> None);
    now;
    msg_kind;
    clocks = Pid.Table.create 8;
  }

let sent t = Metrics.bump t.sent
let broadcast t = Metrics.bump t.broadcast
let absent t = Metrics.bump t.dropped

let tick t pid c =
  Pid.Table.replace t.clocks pid c;
  c

let clock t pid = match Pid.Table.find t.clocks pid with c -> c | exception Not_found -> 0

(* Each event is built only inside the [live] match, so disabled
   telemetry allocates nothing: no closure, no event. *)
let transmit t ~src ~dst ~broadcast msg =
  Metrics.bump t.transmit;
  match t.live with
  | None -> 0
  | Some s ->
    let lamport = tick t src (clock t src + 1) in
    Event.emit s ~at:(t.now ())
      (Event.Send
         { src = Pid.to_int src; dst = Pid.to_int dst; kind = t.msg_kind msg; broadcast; lamport });
    lamport

let deliver t ~src ~dst ~sent msg =
  Metrics.bump t.delivered;
  match t.live with
  | None -> ()
  | Some s ->
    let lamport = tick t dst (Stdlib.max (clock t dst) sent + 1) in
    Event.emit s ~at:(t.now ())
      (Event.Deliver
         { src = Pid.to_int src; dst = Pid.to_int dst; kind = t.msg_kind msg; lamport; sent })

let drop t ~src ~dst ~reason msg =
  (match reason with
  | Event.Departed -> Metrics.bump t.dropped
  | Event.Faulted -> Metrics.incr t.metrics "net.faulted");
  match t.live with
  | None -> ()
  | Some s ->
    Event.emit s ~at:(t.now ())
      (Event.Drop { src = Pid.to_int src; dst = Pid.to_int dst; kind = t.msg_kind msg; reason })
