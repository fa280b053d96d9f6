open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec
open Dds_core

type process = {
  pid : Pid.t;
  mutable nodes : Es_register.node array;
  mutable joins_done : int;
  mutable pending : (int * History.op_id) list;  (** (register, op) in flight *)
}

type t = {
  sched : Scheduler.t;
  layer_rng : Rng.t;
  churn_rng : Rng.t;
  k : int;
  n : int;
  churn_rate : float;
  churn_policy : Churn.leave_policy;
  protect : Pid.t -> bool;
  nets : Es_register.msg Network.t array;
  membership : Membership.t;
  histories : History.t array;
  processes : process Pid.Table.t;
  pid_gen : Pid.gen;
  mutable founding : Pid.t list;
  mutable churn : Churn.t option;
  mutable on_change : (unit -> unit) list;
}

let k t = t.k
let scheduler t = t.sched
let membership t = t.membership
let rng t = t.layer_rng
let founding t = t.founding
let histories t = t.histories

let owner t ~reg =
  if reg < 0 || reg >= t.k then invalid_arg "Register_array.owner: no such register";
  List.nth t.founding reg

let notify t = List.iter (fun f -> f ()) t.on_change
let on_membership_change t f = t.on_change <- t.on_change @ [ f ]
let is_present t pid = Membership.is_present t.membership pid
let is_active t pid = Membership.is_active t.membership pid
let now t = Scheduler.now t.sched

let proc t pid ~op =
  match Pid.Table.find_opt t.processes pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Register_array.%s: unknown process" op)

(* Brings one process up: one protocol node per register, active once
   every join has returned. Founding members (initial = Some v) skip
   the join protocol — their nodes activate synchronously. *)
let add_process t pid ~initial =
  let joins = Array.make t.k None in
  let p = { pid; nodes = [||]; joins_done = 0; pending = [] } in
  Membership.add t.membership pid ~now:(now t);
  if initial = None then
    for reg = 0 to t.k - 1 do
      let op = History.begin_join t.histories.(reg) pid ~now:(now t) in
      joins.(reg) <- Some op;
      p.pending <- (reg, op) :: p.pending
    done;
  Pid.Table.replace t.processes pid p;
  let make_node reg =
    let on_active value =
      (match joins.(reg) with
      | Some op when Membership.is_present t.membership pid ->
        History.end_join t.histories.(reg) op ~now:(now t) value;
        p.pending <- List.filter (fun entry -> entry <> (reg, op)) p.pending
      | Some _ | None -> ());
      p.joins_done <- p.joins_done + 1;
      if p.joins_done = t.k && Membership.is_present t.membership pid then begin
        Membership.set_active t.membership pid ~now:(now t);
        notify t
      end
    in
    Es_register.create ~rt:(Dds_runtime.Runtime.of_sim ~sched:t.sched ~net:t.nets.(reg))
      ~params:(Es_register.default_params ~n:t.n)
      ~pid ~initial ~on_active
  in
  p.nodes <- Array.init t.k make_node;
  p

let create ~seed ~n ~k ~delay ~churn_rate ?(churn_policy = Churn.Uniform)
    ?(protect = fun _ -> false) () =
  if k < 1 then invalid_arg "Register_array.create: k must be >= 1";
  if k > n then invalid_arg "Register_array.create: k must be <= n";
  let root = Rng.create ~seed in
  let net_rng = Rng.split root in
  let churn_rng = Rng.split root in
  let layer_rng = Rng.split root in
  let sched = Scheduler.create () in
  let membership = Membership.create () in
  let nets =
    Array.init k (fun _ ->
        Network.create ~sched ~rng:(Rng.split net_rng) ~delay ())
  in
  let initial_value = Value.initial (Codec.pack Codec.bottom) in
  let histories = Array.init k (fun _ -> History.create ~initial:initial_value) in
  let t =
    {
      sched;
      layer_rng;
      churn_rng;
      k;
      n;
      churn_rate;
      churn_policy;
      protect;
      nets;
      membership;
      histories;
      processes = Pid.Table.create 64;
      pid_gen = Pid.generator ();
      founding = [];
      churn = None;
      on_change = [];
    }
  in
  for _ = 1 to n do
    let pid = Pid.fresh t.pid_gen in
    t.founding <- t.founding @ [ pid ];
    ignore (add_process t pid ~initial:(Some initial_value))
  done;
  t

let spawn t =
  let pid = Pid.fresh t.pid_gen in
  ignore (add_process t pid ~initial:None);
  notify t;
  pid

let retire t pid =
  let p = proc t pid ~op:"retire" in
  Array.iter Es_register.leave p.nodes;
  List.iter (fun (reg, op) -> History.abort t.histories.(reg) op) p.pending;
  p.pending <- [];
  Membership.remove t.membership pid ~now:(now t);
  Pid.Table.remove t.processes pid;
  notify t

let start_churn t ~until =
  let churn =
    Churn.create ~sched:t.sched ~rng:t.churn_rng ~membership:t.membership ~n:t.n
      ~rate:t.churn_rate ~policy:t.churn_policy ~protect:t.protect
      ~spawn:(fun () -> ignore (spawn t))
      ~retire:(fun pid -> retire t pid)
      ()
  in
  Churn.start churn ~until;
  t.churn <- Some churn

let read t ~self ~reg ~k:cont =
  let p = proc t self ~op:"read" in
  let op = History.begin_read t.histories.(reg) self ~now:(now t) in
  p.pending <- (reg, op) :: p.pending;
  Es_register.read p.nodes.(reg) ~k:(fun value ->
      History.end_read t.histories.(reg) op ~now:(now t) value;
      p.pending <- List.filter (fun entry -> entry <> (reg, op)) p.pending;
      cont (Codec.unpack value.Value.data))

let write t ~self ~reg ~record ~k:cont =
  if not (Pid.equal self (owner t ~reg)) then
    invalid_arg "Register_array.write: only the register's owner may write";
  let p = proc t self ~op:"write" in
  let data = Codec.pack record in
  let guess =
    match Es_register.snapshot p.nodes.(reg) with
    | Some v when not (Value.is_bottom v) -> Value.make ~data ~sn:(v.Value.sn + 1)
    | Some _ | None -> Value.make ~data ~sn:0
  in
  let op = History.begin_write t.histories.(reg) self ~now:(now t) guess in
  p.pending <- (reg, op) :: p.pending;
  Es_register.write p.nodes.(reg) data ~k:(fun value ->
      History.end_write t.histories.(reg) op ~now:(now t) value;
      p.pending <- List.filter (fun entry -> entry <> (reg, op)) p.pending;
      cont ())

let snapshot_own t ~self ~reg =
  let p = proc t self ~op:"snapshot_own" in
  match Es_register.snapshot p.nodes.(reg) with
  | Some v -> Codec.unpack v.Value.data
  | None -> Codec.bottom

let busy t ~self ~reg =
  let p = proc t self ~op:"busy" in
  Es_register.busy p.nodes.(reg)
