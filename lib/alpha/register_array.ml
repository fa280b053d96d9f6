open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec
open Dds_core

module Host = Node_host.Make (Es_register)

type t = {
  sched : Scheduler.t;
  layer_rng : Rng.t;
  churn_rng : Rng.t;
  k : int;
  n : int;
  churn_rate : float;
  churn_policy : Churn.leave_policy;
  protect : Pid.t -> bool;
  hosts : Host.t array;  (** one per register, each over its own network *)
  membership : Membership.t;
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
let histories t = Array.map Host.history t.hosts

let owner t ~reg =
  if reg < 0 || reg >= t.k then invalid_arg "Register_array.owner: no such register";
  List.nth t.founding reg

let notify t = List.iter (fun f -> f ()) t.on_change
let on_membership_change t f = t.on_change <- t.on_change @ [ f ]
let is_present t pid = Membership.is_present t.membership pid
let is_active t pid = Membership.is_active t.membership pid
let now t = Scheduler.now t.sched

(* Brings one process up: one protocol node per register, active once
   every join has returned. Founding members skip the join protocol —
   their nodes activate synchronously. *)
let add_process t pid ~founding =
  Membership.add t.membership pid ~now:(now t);
  let joins_done = ref 0 in
  let on_active _ =
    incr joins_done;
    if !joins_done = t.k && Membership.is_present t.membership pid then begin
      Membership.set_active t.membership pid ~now:(now t);
      notify t
    end
  in
  Array.iter
    (fun host -> if founding then Host.found host pid ~on_active else Host.join host pid ~on_active)
    t.hosts

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
  (* Each register starts at datum 0, which is the codec's ⊥ packing. *)
  let params = Es_register.default_params ~n in
  let hosts =
    Array.init k (fun _ ->
        let net = Network.create ~sched ~rng:(Rng.split net_rng) ~delay () in
        Host.create ~sched ~net ~params)
  in
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
      hosts;
      membership;
      pid_gen = Pid.generator ();
      founding = [];
      churn = None;
      on_change = [];
    }
  in
  for _ = 1 to n do
    let pid = Pid.fresh t.pid_gen in
    t.founding <- t.founding @ [ pid ];
    add_process t pid ~founding:true
  done;
  t

let spawn t =
  let pid = Pid.fresh t.pid_gen in
  add_process t pid ~founding:false;
  notify t;
  pid

let retire t pid =
  Array.iter (fun host -> Host.depart host pid) t.hosts;
  Membership.remove t.membership pid ~now:(now t);
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
  Host.read t.hosts.(reg) self ~k:(fun value -> cont (Codec.unpack value.Value.data))

let write t ~self ~reg ~record ~k:cont =
  if not (Pid.equal self (owner t ~reg)) then
    invalid_arg "Register_array.write: only the register's owner may write";
  Host.write t.hosts.(reg) self (Codec.pack record) ~k:(fun _ -> cont ())

let node t ~self ~reg ~op =
  match Host.node t.hosts.(reg) self with
  | Some node -> node
  | None -> invalid_arg (Printf.sprintf "Register_array.%s: unknown process" op)

let snapshot_own t ~self ~reg =
  match Es_register.snapshot (node t ~self ~reg ~op:"snapshot_own") with
  | Some v -> Codec.unpack v.Value.data
  | None -> Codec.bottom

let busy t ~self ~reg = Es_register.busy (node t ~self ~reg ~op:"busy")
