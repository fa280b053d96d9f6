module Verdict = Dds_monitor.Verdict

type runner = seed:int -> Nemesis.plan -> Verdict.t

type found = { seed : int; plan : Nemesis.plan; verdict : Verdict.t; runs : int }

let search ?pool ~runner ~gen seeds =
  let try_seed seed =
    let plan = gen ~seed in
    let v = runner ~seed plan in
    if Verdict.is_ok v then None else Some (plan, v)
  in
  (* Early-cancel scan, on a one-worker pool when none is given.
     [find_first] always evaluates every seed before a hit, so both the
     winning seed (the earliest in the list) and the run count (hit
     position + 1) are worker-count-independent. *)
  let scan p =
    Dds_engine.Pool.find_first p
      ~key:(fun seed -> Printf.sprintf "hunt:seed=%d" seed)
      ~f:try_seed seeds
    |> Option.map (fun (i, (plan, verdict)) ->
           { seed = List.nth seeds i; plan; verdict; runs = i + 1 })
  in
  match pool with Some p -> scan p | None -> Dds_engine.Pool.with_pool ~jobs:1 scan

let half x = Stdlib.max 1 (x / 2)

let halve_window ~from_ ~until_ =
  if until_ = max_int || until_ <= from_ then None
  else Some (from_ + ((until_ - from_) / 2))

let weaken step =
  match step with
  | Nemesis.Msg r ->
    let with_action action = Nemesis.Msg { r with Fault.action } in
    (match r.Fault.action with
    | Fault.Dup { copies } when copies > 1 -> [ with_action (Fault.Dup { copies = half copies }) ]
    | Fault.Delay { extra } when extra > 1 -> [ with_action (Fault.Delay { extra = half extra }) ]
    | Fault.Drop | Fault.Dup _ | Fault.Delay _ | Fault.Corrupt -> [])
    @ (if r.Fault.max_faults <> max_int && r.Fault.max_faults > 1 then
         [ Nemesis.Msg { r with Fault.max_faults = half r.Fault.max_faults } ]
       else [])
    @ (if r.Fault.p < 1.0 && r.Fault.p > 0.01 then
         [ Nemesis.Msg { r with Fault.p = r.Fault.p /. 2.0 } ]
       else [])
    @ (match halve_window ~from_:r.Fault.from_ ~until_:r.Fault.until_ with
      | Some until_ -> [ Nemesis.Msg { r with Fault.until_ } ]
      | None -> [])
  | Nemesis.Partition ({ from_; until_; _ } as p) -> (
    match halve_window ~from_ ~until_ with
    | Some until_ -> [ Nemesis.Partition { p with until_ } ]
    | None -> [])
  | Nemesis.Crash ({ k; _ } as c) when k > 1 -> [ Nemesis.Crash { c with k = half k } ]
  | Nemesis.Crash _ -> []
  | Nemesis.Storm ({ k; _ } as s) when k > 1 -> [ Nemesis.Storm { s with k = half k } ]
  | Nemesis.Storm _ -> []

let shrink ~runner found =
  let attempts = ref 0 in
  let fails plan =
    incr attempts;
    let v = runner ~seed:found.seed plan in
    if Verdict.is_ok v then None else Some v
  in
  (* Greedy descent: adopt the first single-change candidate that
     still violates and restart; stop when no removal or weakening
     keeps the violation alive. Candidate order tries removals first,
     so whole steps disappear before budgets get tuned. *)
  let rec improve plan verdict =
    let n = List.length plan in
    let removals = List.init n (fun i -> List.filteri (fun j _ -> j <> i) plan) in
    let weakenings =
      List.concat
        (List.mapi
           (fun i s ->
             List.map
               (fun s' -> List.mapi (fun j x -> if j = i then s' else x) plan)
               (weaken s))
           plan)
    in
    let rec try_candidates = function
      | [] -> (plan, verdict)
      | cand :: tl -> (
        match fails cand with
        | Some v -> improve cand v
        | None -> try_candidates tl)
    in
    try_candidates (removals @ weakenings)
  in
  let plan, verdict = improve found.plan found.verdict in
  { found with plan; verdict; runs = !attempts }
