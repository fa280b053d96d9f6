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
  trace : Trace.t option;
  events : Event.sink option;
  pp_msg : (Format.formatter -> 'a -> unit) option;
  msg_kind : ('a -> string) option;
  put_msg : (Buffer.t -> 'a -> unit) option;
  key_buf : Buffer.t;  (** reused for every delivery key; one per network *)
  mode : broadcast_mode;
  handlers : 'a handler Pid.Table.t;
  mutable fault : fault_plan option;
  mutable injected : int;
  mutable flying : int;
  mutable broadcast_counter : int;
  flood_seen : (int * int * int, unit) Hashtbl.t;
      (** (destination, origin, broadcast id) already delivered *)
  clocks : int Pid.Table.t;
      (** per-process Lamport clocks, maintained only while an enabled
          event sink is wired (the stamps are observable nowhere else) *)
}

let create ~sched ~rng ~delay ?metrics ?trace ?events ?pp_msg ?msg_kind ?put_msg
    ?(broadcast_mode = Primitive) ?fault ?(nodes = 64) () =
  (match broadcast_mode with
  | Flooding { relay_depth } when relay_depth < 1 ->
    invalid_arg "Network.create: flooding relay depth must be >= 1"
  | Flooding _ | Primitive -> ());
  {
    sched;
    rng;
    delay;
    metrics;
    trace;
    events;
    pp_msg;
    msg_kind;
    put_msg;
    key_buf = Buffer.create 64;
    mode = broadcast_mode;
    handlers = Pid.Table.create nodes;
    fault;
    injected = 0;
    flying = 0;
    broadcast_counter = 0;
    flood_seen =
      Hashtbl.create (match broadcast_mode with Primitive -> 1 | Flooding _ -> 4 * nodes);
    clocks = Pid.Table.create nodes;
  }

let bump t name = match t.metrics with Some m -> Metrics.incr m name | None -> ()
let now t = Scheduler.now t.sched

(* Telemetry. Call sites test [events_live]/[trace_live] first and
   build their event or trace arguments only inside the test, so
   disabled telemetry allocates nothing: no closure, no event, no
   rendered payload. *)
let events_live t = match t.events with Some s -> Event.enabled s | None -> false
let trace_live t = match t.trace with Some tr -> Trace.enabled tr | None -> false
let emit t ev = match t.events with Some s -> Event.emit s ~at:(now t) ev | None -> ()

let tracef t ~topic fmt =
  match t.trace with
  | Some tr -> Trace.recordf tr ~time:(now t) ~topic fmt
  | None -> Format.ikfprintf ignore Format.str_formatter fmt

let pp_payload t ppf msg =
  match t.pp_msg with Some pp -> pp ppf msg | None -> Format.pp_print_string ppf "<msg>"

let kind_of t msg = match t.msg_kind with Some f -> f msg | None -> "msg"

(* Lamport stamping. [tick_send] advances the sender's clock by one;
   [tick_recv] applies the max(local, sent) + 1 receive rule. Both are
   called only under [events_live], so uninstrumented runs never touch
   the table. *)
let clock t pid = match Pid.Table.find t.clocks pid with c -> c | exception Not_found -> 0

let tick_send t pid =
  let c = clock t pid + 1 in
  Pid.Table.replace t.clocks pid c;
  c

let tick_recv t pid ~sent =
  let c = Stdlib.max (clock t pid) sent + 1 in
  Pid.Table.replace t.clocks pid c;
  c

let attach t pid handler =
  if Pid.Table.mem t.handlers pid then
    invalid_arg (Format.asprintf "Network.attach: %a already attached" Pid.pp pid);
  Pid.Table.replace t.handlers pid handler

let detach t pid = Pid.Table.remove t.handlers pid
let is_attached t pid = Pid.Table.mem t.handlers pid
let attached t = Pid.Table.fold (fun pid _ acc -> pid :: acc) t.handlers []
let attached_sorted t = List.sort Pid.compare (attached t)
let set_fault_plan t plan = t.fault <- Some plan

let set_fault t pred =
  t.fault <- Some (fun decision ~msg_kind:_ -> if pred decision then Drop_msg else Pass)

let clear_fault t = t.fault <- None
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

(* One Send event (and one net.transmit tick) per point-to-point copy,
   so [count Send events = net.transmit] holds for any trace; each Send
   is later resolved by exactly one Deliver or Drop. An injected
   duplicate is one more copy, with its own Send. Returns the sender's
   Lamport stamp (0 without an enabled event sink). *)
let announce t ~kind ~src ~dst msg =
  bump t "net.transmit";
  if not (events_live t) then 0
  else begin
    let lamport = tick_send t src in
    emit t
      (Event.Send
         {
           src = Pid.to_int src;
           dst = Pid.to_int dst;
           kind = kind_of t msg;
           broadcast = (match kind with Delay.Broadcast -> true | Delay.Point_to_point -> false);
           lamport;
         });
    lamport
  end

(* One copy reaching its delivery instant: attachment is checked now,
   not at send time. [on_arrival] runs instead of the plain handler
   call when provided (flooding uses it to dedup and relay). *)
let arrive t ~src ~dst ~as_src ~sent_lc ~on_arrival msg =
  t.flying <- t.flying - 1;
  match Pid.Table.find t.handlers dst with
  | handler -> (
    bump t "net.delivered";
    if events_live t then begin
      let lamport = tick_recv t dst ~sent:sent_lc in
      emit t
        (Event.Deliver
           {
             src = Pid.to_int src;
             dst = Pid.to_int dst;
             kind = kind_of t msg;
             lamport;
             sent = sent_lc;
           })
    end;
    if trace_live t then
      tracef t ~topic:"net" "deliver %a->%a: %a" Pid.pp src Pid.pp dst (pp_payload t) msg;
    match on_arrival with Some f -> f handler | None -> handler ~src:as_src msg)
  | exception Not_found ->
    (* Destination left the system before delivery. *)
    bump t "net.dropped";
    if events_live t then
      emit t
        (Event.Drop
           { src = Pid.to_int src; dst = Pid.to_int dst; kind = kind_of t msg; reason = Departed });
    if trace_live t then
      tracef t ~topic:"net" "drop(left) %a->%a: %a" Pid.pp src Pid.pp dst (pp_payload t) msg

(* Schedules one copy. [as_src] is the sender identity the protocol
   handler observes — forged by an injected Corrupt_tag; the
   Send/Deliver telemetry keeps the true wire endpoints so causal
   pairing stays intact. [extra] stretches the sampled delay (injected
   Delay_by). *)
let copy t ~kind ~src ~dst ~as_src ~extra ~on_arrival decision msg =
  let sent_lc = announce t ~kind ~src ~dst msg in
  let d = Delay.sample t.delay ~rng:t.rng decision + extra in
  t.flying <- t.flying + 1;
  let tag =
    if Scheduler.choosing t.sched then
      Some { Scheduler.actor = Pid.to_int dst; kind = delivery_key t ~src ~dst msg }
    else None
  in
  ignore
    (Scheduler.schedule_after t.sched ?tag d (fun () ->
         arrive t ~src ~dst ~as_src ~sent_lc ~on_arrival msg))

(* Schedules one point-to-point transmission; consults the fault plan
   at send time. *)
let transmit t ~kind ~src ~dst ?on_arrival msg =
  let decision = { Delay.now = now t; src; dst; kind } in
  let action =
    match t.fault with
    | Some plan -> plan decision ~msg_kind:(kind_of t msg)
    | None -> Pass
  in
  (match action with
  | Pass -> ()
  | faulted ->
    t.injected <- t.injected + 1;
    bump t "net.injected";
    if events_live t then
      emit t
        (Event.Fault_injected
           {
             fault = fault_action_name faulted;
             src = Pid.to_int src;
             dst = Pid.to_int dst;
             kind = kind_of t msg;
           });
    if trace_live t then
      tracef t ~topic:"fault" "inject %s %a->%a: %a" (fault_action_name faulted) Pid.pp src
        Pid.pp dst (pp_payload t) msg);
  match action with
  | Pass -> copy t ~kind ~src ~dst ~as_src:src ~extra:0 ~on_arrival decision msg
  | Drop_msg ->
    let _lc = announce t ~kind ~src ~dst msg in
    bump t "net.faulted";
    if events_live t then
      emit t
        (Event.Drop
           { src = Pid.to_int src; dst = Pid.to_int dst; kind = kind_of t msg; reason = Faulted });
    if trace_live t then
      tracef t ~topic:"net" "fault-drop %a->%a: %a" Pid.pp src Pid.pp dst (pp_payload t) msg
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
    bump t "net.sent";
    transmit t ~kind:Delay.Point_to_point ~src ~dst msg
  end
  else bump t "net.dropped"

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
        let next = List.filter (fun y -> not (Pid.equal y dst)) (attached_sorted t) in
        List.iter
          (fun y ->
            bump t "net.relayed";
            flood_hop t ~origin ~id ~ttl:(ttl - 1) ~src:dst ~dst:y msg)
          next
      end
    end
  in
  transmit t ~kind:Delay.Broadcast ~src ~dst ~on_arrival msg

let broadcast t ~src msg =
  bump t "net.broadcast";
  match t.mode with
  | Primitive ->
    (* Snapshot the present set: only processes in the system at
       broadcast time may deliver (timely-delivery property). Sorted so
       that delay draws happen in a reproducible order. *)
    List.iter
      (fun dst -> transmit t ~kind:Delay.Broadcast ~src ~dst msg)
      (attached_sorted t)
  | Flooding { relay_depth } ->
    let id = t.broadcast_counter in
    t.broadcast_counter <- t.broadcast_counter + 1;
    List.iter
      (fun dst -> flood_hop t ~origin:src ~id ~ttl:(relay_depth - 1) ~src ~dst msg)
      (attached_sorted t)
