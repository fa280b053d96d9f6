open Dds_sim
open Dds_net

type leave_policy = Uniform | Oldest_first | Youngest_first | Active_first

let pp_policy ppf = function
  | Uniform -> Format.pp_print_string ppf "uniform"
  | Oldest_first -> Format.pp_print_string ppf "oldest"
  | Youngest_first -> Format.pp_print_string ppf "youngest"
  | Active_first -> Format.pp_print_string ppf "active"

let policy_of_string = function
  | "uniform" -> Ok Uniform
  | "oldest" -> Ok Oldest_first
  | "youngest" -> Ok Youngest_first
  | "active" -> Ok Active_first
  | s -> Error (Printf.sprintf "unknown leave policy %S (uniform|oldest|youngest|active)" s)

type rate_profile =
  | Constant of float
  | Bursty of { base : float; peak : float; period : int; burst : int }
  | Profile of (Time.t -> float)

let rate_at profile now =
  match profile with
  | Constant c -> c
  | Bursty { base; peak; period; burst } ->
    if Time.to_int now mod period < burst then peak else base
  | Profile f -> f now

let mean_rate = function
  | Constant c -> c
  | Bursty { base; peak; period; burst } ->
    ((base *. float_of_int (period - burst)) +. (peak *. float_of_int burst))
    /. float_of_int period
  | Profile _ -> nan

type t = {
  sched : Scheduler.t;
  rng : Rng.t;
  membership : Membership.t;
  n : int;
  profile : rate_profile;
  policy : leave_policy;
  protect : Pid.t -> bool;
  spawn : unit -> unit;
  retire : Pid.t -> unit;
  mutable acc : float;
  mutable refreshed : int;
  mutable token : Scheduler.token option;
  mutable stopped : bool;
}

let create ~sched ~rng ~membership ~n ~rate ?profile ?(policy = Uniform)
    ?(protect = fun _ -> false) ~spawn ~retire () =
  if rate < 0.0 || rate >= 1.0 then invalid_arg "Churn.create: rate must be in [0, 1)";
  if n <= 0 then invalid_arg "Churn.create: n must be positive";
  let profile = match profile with Some p -> p | None -> Constant rate in
  {
    sched;
    rng;
    membership;
    n;
    profile;
    policy;
    protect;
    spawn;
    retire;
    acc = 0.0;
    refreshed = 0;
    token = None;
    stopped = false;
  }

(* Orders candidate victims most-preferred first, according to the
   policy. Protected processes are filtered out before ranking. *)
let rank_victims t =
  let eligible =
    List.filter (fun pid -> not (t.protect pid)) (Membership.present t.membership)
  in
  let join_time pid =
    match Membership.find_record t.membership pid with
    | Some r -> Time.to_int r.Membership.join_time
    | None -> 0
  in
  match t.policy with
  | Uniform ->
    let arr = Array.of_list eligible in
    Rng.shuffle_in_place t.rng arr;
    Array.to_list arr
  | Oldest_first ->
    List.sort (fun a b -> Int.compare (join_time a) (join_time b)) eligible
  | Youngest_first ->
    List.sort (fun a b -> Int.compare (join_time b) (join_time a)) eligible
  | Active_first ->
    let actives, joinings =
      List.partition (fun pid -> Membership.is_active t.membership pid) eligible
    in
    let shuffle l =
      let arr = Array.of_list l in
      Rng.shuffle_in_place t.rng arr;
      Array.to_list arr
    in
    shuffle actives @ shuffle joinings

let rec tick t ~until () =
  if not t.stopped then begin
    let rate = rate_at t.profile (Scheduler.now t.sched) in
    t.acc <- t.acc +. (float_of_int t.n *. rate);
    let k = int_of_float t.acc in
    if k > 0 then begin
      t.acc <- t.acc -. float_of_int k;
      let victims =
        let ranked = rank_victims t in
        List.filteri (fun i _ -> i < k) ranked
      in
      List.iter t.retire victims;
      (* One replacement per departure, so |present| stays n even when
         protection starves the victim list. *)
      List.iter (fun _ -> t.spawn ()) victims;
      t.refreshed <- t.refreshed + List.length victims
    end;
    if Time.(Scheduler.now t.sched < until) then
      t.token <- Some (Scheduler.schedule_after t.sched 1 (tick t ~until))
  end

let start t ~until = t.token <- Some (Scheduler.schedule_after t.sched 1 (tick t ~until))

let stop t =
  t.stopped <- true;
  (match t.token with Some tok -> Scheduler.cancel t.sched tok | None -> ());
  t.token <- None

let refreshed t = t.refreshed
