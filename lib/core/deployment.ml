open Dds_sim
open Dds_net
open Dds_churn
open Dds_runtime
open Dds_spec

type config = {
  seed : int;
  n : int;
  delay : Delay.t;
  churn_rate : float;
  churn_profile : Churn.rate_profile option;
  churn_policy : Churn.leave_policy;
  protect_writer : bool;
  initial_value : int;
  broadcast_mode : Network.broadcast_mode;
  trace_enabled : bool;
  events_enabled : bool;
  events_first_span : int;
}

let default_config ~seed ~n ~delay ~churn_rate =
  {
    seed;
    n;
    delay;
    churn_rate;
    churn_profile = None;
    churn_policy = Churn.Uniform;
    protect_writer = true;
    initial_value = 0;
    broadcast_mode = Network.Primitive;
    trace_enabled = false;
    events_enabled = false;
    events_first_span = 0;
  }

(* Power-of-two tick buckets for the operation-latency histograms:
   1, 2, 4, ..., 1024 ticks, then the overflow bucket. *)
let latency_edges = Array.init 11 (fun i -> float_of_int (1 lsl i))

module type S = sig
  module Protocol : Register_intf.PROTOCOL

  type t

  val create : config -> Protocol.params -> t
  val config : t -> config
  val scheduler : t -> Scheduler.t
  val network : t -> Protocol.msg Network.t
  val membership : t -> Membership.t
  val history : t -> History.t
  val metrics : t -> Metrics.t
  val metrics_snapshot : t -> Metrics.snapshot
  val events : t -> Event.sink
  val trace : t -> Trace.t
  val workload_rng : t -> Rng.t
  val now : t -> Time.t
  val writer : t -> Pid.t option
  val elect_writer : t -> Pid.t option
  val node : t -> Pid.t -> Protocol.node option
  val spawn : t -> Pid.t
  val retire : t -> Pid.t -> unit
  val crash : t -> Pid.t -> unit
  val start_churn : t -> until:Time.t -> unit
  val stop_churn : t -> unit
  val read : t -> Pid.t -> unit
  val write : t -> Pid.t -> unit
  val write_value : t -> Pid.t -> int -> unit
  val idle_active : t -> Pid.t list
  val random_idle_active : ?exclude:Pid.t list -> t -> Pid.t option
  val run_until : t -> Time.t -> unit
  val run_to_quiescence : t -> ?max_events:int -> unit -> unit
  val regularity : t -> Regularity.report
  val staleness : t -> Staleness.report
  val analysis : t -> Analysis.t
end

module Make (P : Register_intf.PROTOCOL) = struct
  module Protocol = P
  type t = {
    cfg : config;
    sched : Scheduler.t;
    net : P.msg Network.t;
    rt : P.msg Runtime.t;
    membership : Membership.t;
    history : History.t;
    metrics : Metrics.t;
    events : Event.sink;
    trace : Trace.t;
    churn_rng : Rng.t;
    workload_rng : Rng.t;
    pid_gen : Pid.gen;
    nodes : P.node Pid.Table.t;
    pending_ops : History.op_id list ref Pid.Table.t;
    mutable writer : Pid.t option;
    mutable churn : Churn.t option;
    mutable write_counter : int;
    params : P.params;
  }

  let config t = t.cfg
  let scheduler t = t.sched
  let network t = t.net
  let membership t = t.membership
  let history t = t.history
  let metrics t = t.metrics
  let events t = t.events
  let trace t = t.trace
  let workload_rng t = t.workload_rng
  let now t = Scheduler.now t.sched

  let metrics_snapshot t =
    Metrics.set_gauge t.metrics "sched.events_fired"
      (float_of_int (Scheduler.events_fired t.sched));
    Metrics.set_gauge t.metrics "sched.now" (float_of_int (Time.to_int (Scheduler.now t.sched)));
    Metrics.set_gauge t.metrics "membership.active"
      (float_of_int (List.length (Membership.active t.membership)));
    Metrics.snapshot t.metrics
  let writer t = t.writer
  let node t pid = Pid.Table.find_opt t.nodes pid

  let track_op t pid op_id =
    let cell =
      match Pid.Table.find_opt t.pending_ops pid with
      | Some c -> c
      | None ->
        let c = ref [] in
        Pid.Table.replace t.pending_ops pid c;
        c
    in
    cell := op_id :: !cell

  let untrack_op t pid op_id =
    match Pid.Table.find_opt t.pending_ops pid with
    | Some c -> c := List.filter (fun id -> id <> op_id) !c
    | None -> ()

  let abort_pending t pid =
    match Pid.Table.find_opt t.pending_ops pid with
    | Some c ->
      List.iter (History.abort t.history) !c;
      c := []
    | None -> ()

  (* Brings one joiner into the system and records its join; the
     [on_active] callback closes the join record with the adopted
     value — unless the process left first, in which case the churn
     path already aborted the record. *)
  let spawn t =
    let pid = Pid.fresh t.pid_gen in
    let entered = now t in
    Membership.add t.membership pid ~now:entered;
    let op_id = History.begin_join t.history pid ~now:entered in
    track_op t pid op_id;
    let on_active value =
      if Membership.is_present t.membership pid then begin
        Membership.set_active t.membership pid ~now:(now t);
        History.end_join t.history op_id ~now:(now t) value;
        untrack_op t pid op_id;
        Metrics.observe t.metrics "latency.join" ~edges:latency_edges
          (float_of_int (Time.diff (now t) entered));
        Trace.recordf t.trace ~time:(now t) ~topic:"join" "%a active with %a" Pid.pp pid
          Value.pp value
      end
    in
    let node = P.create ~rt:t.rt ~params:t.params ~pid ~initial:None ~on_active in
    Pid.Table.replace t.nodes pid node;
    Trace.recordf t.trace ~time:(now t) ~topic:"join" "%a enters" Pid.pp pid;
    pid

  (* A crash-stop and a graceful leave are mechanically the same
     departure — the model equates them (a crash is an unannounced
     leave, and [P.leave] is already silent in every protocol) — so
     they share one path and differ only in bookkeeping: the membership
     record, the emitted event and the trace topic say which it was. *)
  let depart t ~crashed ~who pid =
    match Pid.Table.find_opt t.nodes pid with
    | None -> invalid_arg (Format.asprintf "Deployment.%s: unknown %a" who Pid.pp pid)
    | Some node ->
      (* Close the telemetry span of any operation the departure cuts
         short, so traces never carry an orphan [Op_start]. *)
      (match P.current_span node with
      | Some (span, op) ->
        Event.emit t.events ~at:(now t)
          (Event.Op_end { span; node = Pid.to_int pid; op; outcome = Event.Aborted; value = None })
      | None -> ());
      P.leave node;
      abort_pending t pid;
      Membership.remove t.membership ~crashed pid ~now:(now t);
      Pid.Table.remove t.nodes pid;
      if t.writer = Some pid then t.writer <- None;
      Trace.recordf t.trace ~time:(now t)
        ~topic:(if crashed then "crash" else "leave")
        "%a %s" Pid.pp pid
        (if crashed then "crash-stops" else "leaves")

  let retire t pid = depart t ~crashed:false ~who:"retire" pid
  let crash t pid = depart t ~crashed:true ~who:"crash" pid

  let create cfg params =
    (* Probe phases so an attached engine profiler can attribute cell
       setup cost; with no handler installed each is one ref load. *)
    Probe.span "deploy" @@ fun () ->
    let net_rng, churn_rng, workload_rng =
      Probe.span "rng" (fun () ->
          let root = Rng.create ~seed:cfg.seed in
          let net_rng = Rng.split root in
          let churn_rng = Rng.split root in
          let workload_rng = Rng.split root in
          (net_rng, churn_rng, workload_rng))
    in
    let sched = Scheduler.create () in
    let metrics = Metrics.create () in
    let events = Event.create ~first_span:cfg.events_first_span ~enabled:cfg.events_enabled () in
    let trace = Trace.create ~enabled:cfg.trace_enabled () in
    let net =
      Network.create ~sched ~rng:net_rng ~delay:cfg.delay ~metrics ~trace ~events
        ~pp_msg:P.pp_msg ~msg_kind:P.msg_kind ~put_msg:P.put_msg
        ~broadcast_mode:cfg.broadcast_mode ~nodes:cfg.n ()
    in
    let membership = Membership.create ~metrics ~events ~nodes:cfg.n () in
    (* Stamp the eventually-synchronous model's stabilization instant
       into the trace. Scheduled only when telemetry is on, so disabled
       runs keep the exact same scheduler queue as before. *)
    (if cfg.events_enabled then
       match Delay.gst cfg.delay with
       | Some gst ->
         ignore
           (Scheduler.schedule_at sched gst (fun () ->
                Event.emit events ~at:gst Event.Gst_reached))
       | None -> ());
    let initial_value = Value.initial cfg.initial_value in
    let history = History.create ~initial:initial_value in
    let rt = Runtime.of_sim ~sched ~net in
    let t =
      {
        cfg;
        sched;
        net;
        rt;
        membership;
        history;
        metrics;
        events;
        trace;
        churn_rng;
        workload_rng;
        pid_gen = Pid.generator ();
        nodes = Pid.Table.create cfg.n;
        pending_ops = Pid.Table.create cfg.n;
        writer = None;
        churn = None;
        write_counter = 0;
        params;
      }
    in
    (* The n founding members, active from time 0 with the initial
       value; the lowest pid is the designated writer. *)
    for _ = 1 to cfg.n do
      let pid = Pid.fresh t.pid_gen in
      Membership.add t.membership pid ~now:Time.zero;
      let node =
        P.create ~rt ~params ~pid ~initial:(Some initial_value)
          ~on_active:(fun _ -> Membership.set_active t.membership pid ~now:Time.zero)
      in
      Pid.Table.replace t.nodes pid node;
      if t.writer = None then t.writer <- Some pid
    done;
    t

  let start_churn t ~until =
    let protect pid =
      (t.cfg.protect_writer && t.writer = Some pid)
      ||
      (* Never churn out a process mid-write: the termination lemmas
         assume the writer stays for the duration of its write. *)
      match Pid.Table.find_opt t.nodes pid with
      | Some node -> P.is_active node && P.busy node
      | None -> false
    in
    let churn =
      Churn.create ~sched:t.sched ~rng:t.churn_rng ~membership:t.membership ~n:t.cfg.n
        ~rate:t.cfg.churn_rate ?profile:t.cfg.churn_profile ~policy:t.cfg.churn_policy
        ~protect
        ~spawn:(fun () -> ignore (spawn t))
        ~retire:(fun pid -> retire t pid)
        ()
    in
    Churn.start churn ~until;
    t.churn <- Some churn

  let stop_churn t = match t.churn with Some c -> Churn.stop c | None -> ()

  let get_ready_node t pid ~op =
    match Pid.Table.find_opt t.nodes pid with
    | None -> invalid_arg (Printf.sprintf "Deployment.%s: unknown node" op)
    | Some node ->
      if not (P.is_active node) then
        invalid_arg (Printf.sprintf "Deployment.%s: node not active" op);
      if P.busy node then invalid_arg (Printf.sprintf "Deployment.%s: node busy" op);
      node

  let read t pid =
    let node = get_ready_node t pid ~op:"read" in
    let started = now t in
    let op_id = History.begin_read t.history pid ~now:started in
    track_op t pid op_id;
    Metrics.incr t.metrics "op.read";
    P.read node ~k:(fun value ->
        History.end_read t.history op_id ~now:(now t) value;
        untrack_op t pid op_id;
        Metrics.observe t.metrics "latency.read" ~edges:latency_edges
          (float_of_int (Time.diff (now t) started)))

  let write_value t pid data =
    let node = get_ready_node t pid ~op:"write" in
    let sn =
      (* The history needs the sn the write will carry; with the
         single-writer regime it is the node's current sn + 1. The
         exact value is patched in at completion (History.end_write). *)
      match P.snapshot node with
      | Some v when not (Value.is_bottom v) -> v.Value.sn + 1
      | Some _ | None -> 0
    in
    let started = now t in
    let op_id = History.begin_write t.history pid ~now:started (Value.make ~data ~sn) in
    track_op t pid op_id;
    Metrics.incr t.metrics "op.write";
    P.write node data ~k:(fun value ->
        History.end_write t.history op_id ~now:(now t) value;
        untrack_op t pid op_id;
        Metrics.observe t.metrics "latency.write" ~edges:latency_edges
          (float_of_int (Time.diff (now t) started)))

  let write t pid =
    t.write_counter <- t.write_counter + 1;
    write_value t pid t.write_counter

  let idle_active t =
    List.filter
      (fun pid ->
        match Pid.Table.find_opt t.nodes pid with
        | Some node -> P.is_active node && not (P.busy node)
        | None -> false)
      (Membership.active t.membership)

  let random_idle_active ?(exclude = []) t =
    let candidates =
      List.filter (fun pid -> not (List.exists (Pid.equal pid) exclude)) (idle_active t)
    in
    match candidates with
    | [] -> None
    | _ -> Some (Rng.pick_list t.workload_rng candidates)

  (* Footnote 1: any number of writers is fine as long as writes are
     never concurrent — one designation at a time guarantees that. *)
  let elect_writer t =
    match t.writer with
    | Some w when Pid.Table.mem t.nodes w -> Some w
    | Some _ | None -> (
      t.writer <- None;
      match random_idle_active t with
      | Some pid ->
        t.writer <- Some pid;
        Trace.recordf t.trace ~time:(now t) ~topic:"writer" "%a elected writer" Pid.pp pid;
        t.writer
      | None -> None)

  let run_until t horizon = Scheduler.run_until t.sched horizon
  let run_to_quiescence t ?max_events () = Scheduler.run t.sched ?max_events ()
  let regularity t = Regularity.check t.history
  let staleness t = Staleness.measure t.history
  let analysis t = Analysis.of_records (Membership.records t.membership)
end
