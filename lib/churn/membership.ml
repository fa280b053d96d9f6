open Dds_sim
open Dds_net

type status = Joining | Active | Left

type record = {
  pid : Pid.t;
  join_time : Time.t;
  mutable active_time : Time.t option;
  mutable leave_time : Time.t option;
  mutable crashed : bool;
}

type t = {
  metrics : Metrics.t option;
  events : Event.sink option;
  table : record Pid.Table.t;
  mutable joining_set : Pid.Set.t;
  mutable active_set : Pid.Set.t;
}

let create ?metrics ?events ?(nodes = 64) () =
  {
    metrics;
    events;
    table = Pid.Table.create nodes;
    joining_set = Pid.Set.empty;
    active_set = Pid.Set.empty;
  }

let bump t name = match t.metrics with Some m -> Metrics.incr m name | None -> ()

let emitf t ~now mk =
  match t.events with
  | Some sink when Event.enabled sink -> Event.emit sink ~at:now (mk ())
  | Some _ | None -> ()

let add t pid ~now =
  if Pid.Table.mem t.table pid then
    invalid_arg (Format.asprintf "Membership.add: %a was already present" Pid.pp pid);
  Pid.Table.replace t.table pid
    { pid; join_time = now; active_time = None; leave_time = None; crashed = false };
  t.joining_set <- Pid.Set.add pid t.joining_set;
  bump t "churn.join";
  emitf t ~now (fun () -> Event.Node_join { node = Pid.to_int pid })

let set_active t pid ~now =
  if not (Pid.Set.mem pid t.joining_set) then
    invalid_arg (Format.asprintf "Membership.set_active: %a is not joining" Pid.pp pid);
  (match Pid.Table.find_opt t.table pid with
  | Some r -> r.active_time <- Some now
  | None -> assert false);
  t.joining_set <- Pid.Set.remove pid t.joining_set;
  t.active_set <- Pid.Set.add pid t.active_set;
  bump t "churn.activate"

let remove t ?(crashed = false) pid ~now =
  let present = Pid.Set.mem pid t.joining_set || Pid.Set.mem pid t.active_set in
  if not present then
    invalid_arg (Format.asprintf "Membership.remove: %a is not present" Pid.pp pid);
  (match Pid.Table.find_opt t.table pid with
  | Some r ->
    r.leave_time <- Some now;
    r.crashed <- crashed
  | None -> assert false);
  t.joining_set <- Pid.Set.remove pid t.joining_set;
  t.active_set <- Pid.Set.remove pid t.active_set;
  if crashed then begin
    bump t "churn.crash";
    emitf t ~now (fun () -> Event.Node_crash { node = Pid.to_int pid })
  end
  else begin
    bump t "churn.leave";
    emitf t ~now (fun () -> Event.Node_leave { node = Pid.to_int pid })
  end

let status t pid =
  match Pid.Table.find_opt t.table pid with
  | None -> None
  | Some _ when Pid.Set.mem pid t.joining_set -> Some Joining
  | Some _ when Pid.Set.mem pid t.active_set -> Some Active
  | Some _ -> Some Left

let is_present t pid = Pid.Set.mem pid t.joining_set || Pid.Set.mem pid t.active_set
let is_active t pid = Pid.Set.mem pid t.active_set
let n_present t = Pid.Set.cardinal t.joining_set + Pid.Set.cardinal t.active_set
let n_active t = Pid.Set.cardinal t.active_set
let n_joining t = Pid.Set.cardinal t.joining_set
let present t = Pid.Set.elements (Pid.Set.union t.joining_set t.active_set)
let active t = Pid.Set.elements t.active_set
let joining t = Pid.Set.elements t.joining_set
let find_record t pid = Pid.Table.find_opt t.table pid

let records t =
  Pid.Table.fold (fun _ r acc -> r :: acc) t.table []
  |> List.sort (fun a b -> Pid.compare a.pid b.pid)
