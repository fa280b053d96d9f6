open Dds_sim
open Dds_net
open Dds_churn

type t = {
  arr : Register_array.t;
  participants : Pid.t array;  (** index = register owned *)
  proposals : int Pid.Table.t;
  decisions : int Pid.Table.t;
  decide_net : int Network.t;
  mutable attached : Pid.Set.t;
  attempts : int array;  (** per participant *)
  in_flight : bool array;
  retry_every : int;
  mutable total_attempts : int;
  mutable first_decision : Time.t option;
  mutable stopped : bool;
}

let membership t = Register_array.membership t.arr

let learn t pid v =
  if not (Pid.Table.mem t.decisions pid) then begin
    if t.first_decision = None then
      t.first_decision <- Some (Scheduler.now (Register_array.scheduler t.arr));
    Pid.Table.replace t.decisions pid v
  end

(* Keeps the DECIDE channel's attachment in sync with the system
   composition: newcomers can receive announcements from the moment
   they enter (listening mode), leavers stop existing. *)
let sync_channel t =
  let present = Pid.Set.of_list (Membership.present (membership t)) in
  Pid.Set.iter
    (fun pid ->
      if not (Pid.Set.mem pid t.attached) then
        Network.attach t.decide_net pid (fun ~src:_ v -> learn t pid v))
    present;
  Pid.Set.iter
    (fun pid -> if not (Pid.Set.mem pid present) then Network.detach t.decide_net pid)
    t.attached;
  t.attached <- present

let create arr ?(retry_every = 25) () =
  let participants = Array.of_list (Register_array.founding arr) in
  let participants = Array.sub participants 0 (Register_array.k arr) in
  let t =
    {
      arr;
      participants;
      proposals = Pid.Table.create 8;
      decisions = Pid.Table.create 64;
      decide_net =
        Network.create ~sched:(Register_array.scheduler arr)
          ~rng:(Rng.split (Register_array.rng arr))
          ~delay:(Delay.synchronous ~delta:3)
          ();
      attached = Pid.Set.empty;
      attempts = Array.make (Register_array.k arr) 0;
      in_flight = Array.make (Register_array.k arr) false;
      retry_every;
      total_attempts = 0;
      first_decision = None;
      stopped = false;
    }
  in
  sync_channel t;
  Register_array.on_membership_change arr (fun () -> sync_channel t);
  t

let participant_index t pid =
  let found = ref None in
  Array.iteri (fun i p -> if Pid.equal p pid && !found = None then found := Some i)
    t.participants;
  !found

let propose t pid value =
  if value <= 0 || value >= Codec.field_max then
    invalid_arg "Consensus.propose: value out of range";
  (match participant_index t pid with
  | None -> invalid_arg "Consensus.propose: not a participant"
  | Some _ -> ());
  if Pid.Table.mem t.proposals pid then
    invalid_arg "Consensus.propose: already proposed";
  Pid.Table.replace t.proposals pid value

let announce t leader =
  match Pid.Table.find_opt t.decisions leader with
  | Some v -> Network.broadcast t.decide_net ~src:leader v
  | None -> ()

let try_attempt t leader index =
  match Pid.Table.find_opt t.proposals leader with
  | None -> () (* a leader with nothing to propose stays quiet *)
  | Some value ->
    if
      (not t.in_flight.(index))
      && Register_array.is_active t.arr leader
      && not (Register_array.busy t.arr ~self:leader ~reg:index)
    then begin
      t.in_flight.(index) <- true;
      t.attempts.(index) <- t.attempts.(index) + 1;
      t.total_attempts <- t.total_attempts + 1;
      let round =
        Alpha.round_for ~participant_index:index ~attempt:t.attempts.(index)
          ~k:(Register_array.k t.arr)
      in
      Alpha.propose t.arr ~self:leader ~self_reg:index ~round ~value ~k:(fun outcome ->
          t.in_flight.(index) <- false;
          match outcome with
          | Alpha.Commit v ->
            learn t leader v;
            announce t leader
          | Alpha.Abort _ -> ())
    end

let tick t () =
  if not t.stopped then begin
    match Omega.leader (membership t) ~participants:(Array.to_list t.participants) with
    | None -> () (* every participant left: no termination possible *)
    | Some leader -> (
      match participant_index t leader with
      | None -> ()
      | Some index ->
        if Pid.Table.mem t.decisions leader then announce t leader
        else try_attempt t leader index)
  end

let start t ~until =
  let sched = Register_array.scheduler t.arr in
  let rec schedule time =
    if Time.(time <= until) then begin
      ignore (Scheduler.schedule_at sched time (tick t));
      schedule (Time.add time t.retry_every)
    end
  in
  schedule (Time.add (Scheduler.now sched) 1)

let decision_of t pid = Pid.Table.find_opt t.decisions pid

let decisions t =
  Pid.Table.fold (fun pid v acc -> (pid, v) :: acc) t.decisions []
  |> List.sort (fun (a, _) (b, _) -> Pid.compare a b)

let decided_count t = Pid.Table.length t.decisions

let agreement_ok t =
  match decisions t with
  | [] -> true
  | (_, first) :: rest -> List.for_all (fun (_, v) -> v = first) rest

let validity_ok t =
  let proposed = Pid.Table.fold (fun _ v acc -> v :: acc) t.proposals [] in
  List.for_all (fun (_, v) -> List.mem v proposed) (decisions t)

let attempts_used t = t.total_attempts
let first_decision_at t = t.first_decision
