open Dds_sim
open Dds_net
open Dds_runtime
open Dds_spec

module Make (P : Register_intf.PROTOCOL) = struct
  type proc = { node : P.node; mutable pending : History.op_id list }

  type t = {
    rt : P.msg Runtime.t;
    params : P.params;
    history : History.t;
    procs : proc Pid.Table.t;
  }

  let create ~sched ~net ~params =
    {
      rt = Runtime.of_sim ~sched ~net;
      params;
      history = History.create ~initial:(Value.initial 0);
      procs = Pid.Table.create 16;
    }

  let history t = t.history
  let now t = Runtime.now t.rt

  (* [node] and [idle] run for every candidate of every churn and
     workload draw, so they skip [find_opt]'s extra [Some]. *)
  let node t pid =
    match Pid.Table.find t.procs pid with p -> Some p.node | exception Not_found -> None

  let idle t pid =
    match Pid.Table.find t.procs pid with
    | p -> P.is_active p.node && not (P.busy p.node)
    | exception Not_found -> false

  let settle p op = p.pending <- List.filter (fun o -> o <> op) p.pending

  let found t pid ~on_active =
    let initial = Some (History.initial t.history) in
    let node = P.create ~rt:t.rt ~params:t.params ~pid ~initial ~on_active in
    Pid.Table.replace t.procs pid { node; pending = [] }

  (* Every record closes only while its process is still hosted: after
     a departure it is already aborted, whatever the protocol's [leave]
     left running. *)
  let close t pid op respond k value =
    match Pid.Table.find_opt t.procs pid with
    | Some p ->
      respond t.history op ~now:(now t) value;
      settle p op;
      k value
    | None -> ()

  (* No protocol returns a join before [create] does, so the joiner is
     hosted by the time [close] can run. *)
  let join t pid ~on_active =
    let op = History.begin_join t.history pid ~now:(now t) in
    let on_active value = close t pid op History.end_join on_active value in
    let node = P.create ~rt:t.rt ~params:t.params ~pid ~initial:None ~on_active in
    Pid.Table.replace t.procs pid { node; pending = [ op ] }

  let ready t pid ~op =
    match Pid.Table.find_opt t.procs pid with
    | None -> invalid_arg (Format.asprintf "Node_host.%s: unknown %a" op Pid.pp pid)
    | Some p ->
      if not (P.is_active p.node) then
        invalid_arg (Format.asprintf "Node_host.%s: %a not active" op Pid.pp pid);
      if P.busy p.node then invalid_arg (Format.asprintf "Node_host.%s: %a busy" op Pid.pp pid);
      p

  let read t pid ~k =
    let p = ready t pid ~op:"read" in
    let op = History.begin_read t.history pid ~now:(now t) in
    p.pending <- op :: p.pending;
    P.read p.node ~k:(fun value -> close t pid op History.end_read k value)

  let write t pid data ~k =
    let p = ready t pid ~op:"write" in
    (* The sn the write will carry, as far as the writer knows: its
       current sn + 1. The quorum protocols fix the real one only
       mid-operation; [end_write] patches it in. *)
    let sn =
      match P.snapshot p.node with
      | Some v when not (Value.is_bottom v) -> v.Value.sn + 1
      | Some _ | None -> 0
    in
    let op = History.begin_write t.history pid ~now:(now t) (Value.make ~data ~sn) in
    p.pending <- op :: p.pending;
    P.write p.node data ~k:(fun value -> close t pid op History.end_write k value)

  let depart t pid =
    match Pid.Table.find_opt t.procs pid with
    | None -> invalid_arg (Format.asprintf "Node_host.depart: unknown %a" Pid.pp pid)
    | Some p ->
      (* Close the telemetry span of any operation the departure cuts
         short, so traces never carry an orphan [Op_start]. *)
      (match (P.current_span p.node, Runtime.events t.rt) with
      | Some (span, op), Some sink ->
        Event.emit sink ~at:(now t)
          (Event.Op_end { span; node = Pid.to_int pid; op; outcome = Event.Aborted; value = None })
      | _ -> ());
      P.leave p.node;
      List.iter (History.abort t.history) p.pending;
      Pid.Table.remove t.procs pid
end
