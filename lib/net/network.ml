open Dds_sim

type 'a handler = src:Pid.t -> 'a -> unit

type broadcast_mode = Primitive | Flooding of { relay_depth : int }

type fault_action =
  | Pass
  | Drop_msg
  | Duplicate of { copies : int }
  | Delay_by of { extra : int }
  | Corrupt_tag

type fault_plan = Delay.decision -> msg_kind:string -> fault_action

let fault_action_name = function
  | Pass -> "pass"
  | Drop_msg -> "drop"
  | Duplicate _ -> "dup"
  | Delay_by _ -> "delay"
  | Corrupt_tag -> "corrupt"

type 'a t = {
  sched : Scheduler.t;
  rng : Rng.t;
  delay : Delay.t;
  metrics : Metrics.t option;
  events : Event.sink option;
  traffic : 'a Traffic.t;
  msg_kind : 'a -> string;
  put_msg : (Buffer.t -> 'a -> unit) option;
  key_buf : Buffer.t;  (** reused for every delivery key; one per network *)
  mode : broadcast_mode;
  handlers : 'a handler Pid.Table.t;
  mutable present : Pid.t list;  (** the handlers' pids, sorted; kept by attach/detach *)
  mutable fault : fault_plan option;
  mutable injected : int;
  mutable flying : int;
  mutable broadcast_counter : int;
  flood_seen : (int * int * int, unit) Hashtbl.t;
      (** (destination, origin, broadcast id) already delivered *)
}

let create ~sched ~rng ~delay ?metrics ?events ?msg_kind ?put_msg
    ?(broadcast_mode = Primitive) ?fault ?(nodes = 64) () =
  (match broadcast_mode with
  | Flooding { relay_depth } when relay_depth < 1 ->
    invalid_arg "Network.create: flooding relay depth must be >= 1"
  | Flooding _ | Primitive -> ());
  let msg_kind = match msg_kind with Some f -> f | None -> fun _ -> "msg" in
  {
    sched;
    rng;
    delay;
    metrics;
    events;
    traffic = Traffic.create ~metrics ~events ~now:(fun () -> Scheduler.now sched) ~msg_kind;
    msg_kind;
    put_msg;
    key_buf = Buffer.create 64;
    mode = broadcast_mode;
    handlers = Pid.Table.create nodes;
    present = [];
    fault;
    injected = 0;
    flying = 0;
    broadcast_counter = 0;
    flood_seen =
      Hashtbl.create (match broadcast_mode with Primitive -> 1 | Flooding _ -> 4 * nodes);
  }

let bump t name = match t.metrics with Some m -> Metrics.incr m name | None -> ()
let now t = Scheduler.now t.sched

let attach t pid handler =
  if Pid.Table.mem t.handlers pid then
    invalid_arg (Format.asprintf "Network.attach: %a already attached" Pid.pp pid);
  Pid.Table.replace t.handlers pid handler;
  t.present <- List.merge Pid.compare [ pid ] t.present

let detach t pid =
  Pid.Table.remove t.handlers pid;
  t.present <- List.filter (fun y -> not (Pid.equal y pid)) t.present

let attached t = t.present
let set_fault_plan t plan = t.fault <- Some plan
let faults_injected t = t.injected
let in_flight t = t.flying
let metrics t = t.metrics
let events t = t.events

(* Delivery keys (see the interface). The NUL lead keeps them disjoint
   from every other tag kind (timer, drop, crash), which is printable.
   The message kind is not written: it is a function of the payload,
   so the payload bytes already decide it. *)
let key_lead = '\000'

let delivery_key t ~src ~dst msg =
  match t.put_msg with
  | None -> invalid_arg "Network: delivery under a chooser needs the payload codec (put_msg)"
  | Some put ->
    let b = t.key_buf in
    Buffer.clear b;
    Buffer.add_char b key_lead;
    Wire.put_int b (Pid.to_int src);
    Wire.put_int b (Pid.to_int dst);
    put b msg;
    Buffer.contents b

let tag_label ~get_msg ~msg_kind ~pp_msg kind =
  if String.length kind = 0 || kind.[0] <> key_lead then kind
  else begin
    let r = Wire.reader kind in
    ignore (Wire.get_u8 r);
    let src = Pid.of_int (Wire.get_int r) in
    let dst = Pid.of_int (Wire.get_int r) in
    let msg = get_msg r in
    Wire.expect_end r;
    String.concat ""
      [ "deliver:"; msg_kind msg; ":"; Pid.to_string src; "->"; Pid.to_string dst; ":";
        Format.asprintf "%a" pp_msg msg ]
  end

(* One copy reaching its delivery instant: attachment is checked now,
   not at send time. [on_arrival] runs instead of the plain handler
   call when provided (flooding uses it to dedup and relay). *)
let arrive t ~src ~dst ~as_src ~sent ~on_arrival msg =
  t.flying <- t.flying - 1;
  match Pid.Table.find t.handlers dst with
  | handler -> (
    Traffic.deliver t.traffic ~src ~dst ~sent msg;
    match on_arrival with Some f -> f handler | None -> handler ~src:as_src msg)
  | exception Not_found ->
    (* Destination left the system before delivery. *)
    Traffic.drop t.traffic ~src ~dst ~reason:Departed msg

(* One copy leaves: a [Send] per point-to-point copy, so an injected
   duplicate is one more copy with its own [Send]. Returns the
   sender's stamp, which the copy's [Deliver] carries. *)
let announce t ~kind ~src ~dst msg =
  let broadcast = match kind with Delay.Broadcast -> true | Delay.Point_to_point -> false in
  Traffic.transmit t.traffic ~src ~dst ~broadcast msg

(* Schedules one copy. [as_src] is the sender identity the protocol
   handler observes — forged by an injected Corrupt_tag; the
   Send/Deliver telemetry keeps the true wire endpoints so causal
   pairing stays intact. [extra] stretches the sampled delay (injected
   Delay_by). *)
let copy t ~kind ~src ~dst ~as_src ~extra ~on_arrival decision msg =
  let sent = announce t ~kind ~src ~dst msg in
  let d = Delay.sample t.delay ~rng:t.rng decision + extra in
  t.flying <- t.flying + 1;
  let tag =
    if Scheduler.choosing t.sched then
      Some { Scheduler.actor = Pid.to_int dst; kind = delivery_key t ~src ~dst msg }
    else None
  in
  ignore
    (Scheduler.schedule_after t.sched ?tag d (fun () ->
         arrive t ~src ~dst ~as_src ~sent ~on_arrival msg))

(* Schedules one point-to-point transmission; consults the fault plan
   at send time. *)
let transmit t ~kind ~src ~dst ?on_arrival msg =
  let decision = { Delay.now = now t; src; dst; kind } in
  let action =
    match t.fault with
    | Some plan -> plan decision ~msg_kind:(t.msg_kind msg)
    | None -> Pass
  in
  (match action with
  | Pass -> ()
  | faulted ->
    t.injected <- t.injected + 1;
    bump t "net.injected";
    match t.events with
    | Some s when Event.enabled s ->
      Event.emit s ~at:(now t)
        (Event.Fault_injected
           {
             fault = fault_action_name faulted;
             src = Pid.to_int src;
             dst = Pid.to_int dst;
             kind = t.msg_kind msg;
           })
    | Some _ | None -> ());
  match action with
  | Pass -> copy t ~kind ~src ~dst ~as_src:src ~extra:0 ~on_arrival decision msg
  | Drop_msg ->
    let _sent = announce t ~kind ~src ~dst msg in
    Traffic.drop t.traffic ~src ~dst ~reason:Faulted msg
  | Delay_by { extra } ->
    copy t ~kind ~src ~dst ~as_src:src ~extra:(Stdlib.max 0 extra) ~on_arrival decision msg
  | Corrupt_tag ->
    (* The sender tag is scrambled: the receiver observes itself as the
       source, so replies routed by sender identity are misdirected. *)
    copy t ~kind ~src ~dst ~as_src:dst ~extra:0 ~on_arrival decision msg
  | Duplicate { copies } ->
    for _ = 0 to Stdlib.max 0 copies do
      copy t ~kind ~src ~dst ~as_src:src ~extra:0 ~on_arrival decision msg
    done

let send t ~src ~dst msg =
  if Pid.Table.mem t.handlers dst then begin
    Traffic.sent t.traffic;
    transmit t ~kind:Delay.Point_to_point ~src ~dst msg
  end
  else Traffic.absent t.traffic

(* One flooding hop: deliver-once at [dst], then relay to everyone the
   relayer currently sees while hops remain. The per-destination seen
   set makes delivery idempotent; relays travel as point-to-point
   messages, so link faults only cost redundancy, not delivery. *)
let rec flood_hop t ~origin ~id ~ttl ~src ~dst msg =
  let on_arrival handler =
    let key = (Pid.to_int dst, Pid.to_int origin, id) in
    if Hashtbl.mem t.flood_seen key then bump t "net.duplicate"
    else begin
      Hashtbl.replace t.flood_seen key ();
      handler ~src:origin msg;
      if ttl > 0 then begin
        List.iter
          (fun y ->
            if not (Pid.equal y dst) then begin
              bump t "net.relayed";
              flood_hop t ~origin ~id ~ttl:(ttl - 1) ~src:dst ~dst:y msg
            end)
          t.present
      end
    end
  in
  transmit t ~kind:Delay.Broadcast ~src ~dst ~on_arrival msg

let broadcast t ~src msg =
  Traffic.broadcast t.traffic;
  match t.mode with
  | Primitive ->
    (* Snapshot the present set: only processes in the system at
       broadcast time may deliver (timely-delivery property). Sorted so
       that delay draws happen in a reproducible order. *)
    List.iter
      (fun dst -> transmit t ~kind:Delay.Broadcast ~src ~dst msg)
      t.present
  | Flooding { relay_depth } ->
    let id = t.broadcast_counter in
    t.broadcast_counter <- t.broadcast_counter + 1;
    List.iter
      (fun dst -> flood_hop t ~origin:src ~id ~ttl:(relay_depth - 1) ~src ~dst msg)
      t.present
