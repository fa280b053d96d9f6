open Dds_sim

type config = {
  n : int;
  delta : int;
  churn_bound : float option;
  churn_window : int;
  majority : bool;
  liveness_bound : int option;
  liveness_from_gst : bool;
  inversions : bool;
}

let default ~n ~delta =
  {
    n;
    delta;
    churn_bound = None;
    churn_window = 3 * delta;
    majority = false;
    liveness_bound = Some (10 * delta);
    liveness_from_gst = false;
    inversions = true;
  }

type violation = { monitor : string; at : Time.t; detail : string; span : int option }

let pp_violation ppf v =
  Format.fprintf ppf "%a [%s] %s" Time.pp v.at v.monitor v.detail

let to_event v = Event.Violation { monitor = v.monitor; detail = v.detail }

(* ------------------------------------------------------------------ *)

type membership_change = { when_ : Time.t; join : bool }

type open_span = {
  o_node : int;
  o_op : Event.op_kind;
  o_started : Time.t;
  mutable o_overdue : bool;  (** liveness violation already reported *)
}

type t = {
  cfg : config;
  mutable seen : int;  (** events fed, for sanity reporting *)
  mutable out_rev : violation list;
  (* churn: membership changes inside the sliding window, oldest first *)
  mutable window : membership_change list;
  mutable churn_armed : bool;
  (* majority *)
  active : (int, unit) Hashtbl.t;
  mutable majority_armed : bool;
  (* liveness *)
  open_spans : (int, open_span) Hashtbl.t;
  mutable gst : Time.t option;
  mutable last_seen : Time.t;
  (* inversions: completed reads as (responded, running max sn),
     responded nondecreasing — binary search by invocation time *)
  mutable reads : (Time.t * int) array;
  mutable nreads : int;
}

let create cfg =
  {
    cfg;
    seen = 0;
    out_rev = [];
    window = [];
    churn_armed = true;
    active = Hashtbl.create 64;
    majority_armed = true;
    open_spans = Hashtbl.create 64;
    gst = None;
    last_seen = Time.zero;
    reads = Array.make 64 (Time.zero, 0);
    nreads = 0;
  }

let violations t = List.rev t.out_rev

let overdue vs = List.sort_uniq Int.compare (List.filter_map (fun v -> v.span) vs)

let fire ?span t ~monitor ~at detail =
  let v = { monitor; at; detail; span } in
  t.out_rev <- v :: t.out_rev;
  v

(* --- churn-rate ---------------------------------------------------- *)

(* The empirical churn rate over the trailing window, measured the way
   the model defines c: a fraction of n entering (and leaving) per time
   unit. Joins and leaves are rated separately and the worse one is
   compared against the bound, so a join-only burst and a leave-only
   burst are both caught. *)
let churn_check t ~at =
  match t.cfg.churn_bound with
  | None -> []
  | Some bound ->
    let horizon = Time.to_int at - t.cfg.churn_window in
    t.window <- List.filter (fun m -> Time.to_int m.when_ > horizon) t.window;
    let joins = List.length (List.filter (fun m -> m.join) t.window) in
    let leaves = List.length t.window - joins in
    let per_tick count =
      float_of_int count /. (float_of_int t.cfg.churn_window *. float_of_int t.cfg.n)
    in
    let rate = Float.max (per_tick joins) (per_tick leaves) in
    if rate > bound then
      if t.churn_armed then begin
        t.churn_armed <- false;
        [
          fire t ~monitor:"churn" ~at
            (Printf.sprintf
               "churn rate %.5f exceeds bound %.5f (%d joins / %d leaves in last %d ticks, n=%d)"
               rate bound joins leaves t.cfg.churn_window t.cfg.n);
        ]
      end
      else []
    else begin
      t.churn_armed <- true;
      []
    end

let membership_change t ~at ~join =
  (* Founding members appear as joins at t=0; they are the population,
     not churn. *)
  if Time.to_int at = 0 then []
  else begin
    t.window <- t.window @ [ { when_ = at; join } ];
    churn_check t ~at
  end

(* --- active majority ----------------------------------------------- *)

let majority_need t = (t.cfg.n / 2) + 1

let majority_check t ~at =
  if not t.cfg.majority then []
  else if Time.to_int at = 0 then [] (* founding still assembling *)
  else begin
    let have = Hashtbl.length t.active in
    let need = majority_need t in
    if have < need then
      if t.majority_armed then begin
        t.majority_armed <- false;
        [
          fire t ~monitor:"majority" ~at
            (Printf.sprintf "active processes %d below majority %d (n=%d)" have need t.cfg.n);
        ]
      end
      else []
    else begin
      t.majority_armed <- true;
      []
    end
  end

(* --- span liveness ------------------------------------------------- *)

let deadline t (s : open_span) =
  match t.cfg.liveness_bound with
  | None -> None
  | Some bound ->
    if t.cfg.liveness_from_gst then
      match t.gst with
      | None -> None (* clock starts at stabilization *)
      | Some g -> Some (Time.to_int (Time.max s.o_started g) + bound)
    else Some (Time.to_int s.o_started + bound)

let liveness_scan t ~at =
  if t.cfg.liveness_bound = None then []
  else
    Hashtbl.fold
      (fun span s acc ->
        if s.o_overdue then acc
        else
          match deadline t s with
          | Some d when Time.to_int at > d ->
            s.o_overdue <- true;
            fire ~span t ~monitor:"liveness" ~at
              (Printf.sprintf "%s by p%d (span %d) open since t=%d, past deadline t=%d"
                 (Event.op_kind_to_string s.o_op)
                 s.o_node span
                 (Time.to_int s.o_started)
                 d)
            :: acc
          | Some _ | None -> acc)
      t.open_spans []
    |> List.rev

(* --- new/old inversion --------------------------------------------- *)

let push_read t ~responded ~sn =
  if t.nreads = Array.length t.reads then begin
    let bigger = Array.make (2 * t.nreads) (Time.zero, 0) in
    Array.blit t.reads 0 bigger 0 t.nreads;
    t.reads <- bigger
  end;
  let running = if t.nreads = 0 then sn else Stdlib.max sn (snd t.reads.(t.nreads - 1)) in
  t.reads.(t.nreads) <- (responded, running);
  t.nreads <- t.nreads + 1

(* Greatest running max among reads that responded strictly before
   [invoked] — binary search over the responded-ordered array. *)
let max_sn_before t ~invoked =
  let lo = ref 0 and hi = ref t.nreads in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Time.(fst t.reads.(mid) < invoked) then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then None else Some (snd t.reads.(!lo - 1))

let inversion_check t ~at ~node ~span ~invoked ~sn =
  if not t.cfg.inversions then []
  else
    let older =
      match max_sn_before t ~invoked with Some m when m > sn -> Some m | _ -> None
    in
    push_read t ~responded:at ~sn;
    match older with
    | Some m ->
      [
        fire t ~monitor:"inversion" ~at
          (Printf.sprintf
             "read by p%d (span %d) returned sn=%d, but a read completed before its \
              invocation at t=%d had already returned sn=%d"
             node span sn (Time.to_int invoked) m);
      ]
    | None -> []

(* ------------------------------------------------------------------ *)

let feed t ({ at; ev } : Event.stamped) =
  t.seen <- t.seen + 1;
  let timed = if Time.(at > t.last_seen) then liveness_scan t ~at else [] in
  t.last_seen <- Time.max t.last_seen at;
  let direct =
    match ev with
    | Event.Node_join { node } ->
      (* A join at t=0 is a founding member: active immediately. *)
      if Time.to_int at = 0 then Hashtbl.replace t.active node ();
      membership_change t ~at ~join:true
    | Event.Node_leave { node } | Event.Node_crash { node } ->
      (* A crash-stop is an unannounced leave: the model equates the
         two, so the assumption monitors count both as departures. *)
      Hashtbl.remove t.active node;
      membership_change t ~at ~join:false @ majority_check t ~at
    | Event.Op_start { span; node; op; _ } ->
      Hashtbl.replace t.open_spans span
        { o_node = node; o_op = op; o_started = at; o_overdue = false };
      []
    | Event.Op_end { span; node; op; outcome; value } -> (
      let started =
        match Hashtbl.find_opt t.open_spans span with
        | Some s -> Some s.o_started
        | None -> None
      in
      Hashtbl.remove t.open_spans span;
      match (outcome, op) with
      | Event.Completed, Event.Join ->
        Hashtbl.replace t.active node ();
        majority_check t ~at
      | Event.Completed, Event.Read -> (
        match (value, started) with
        | Some { Event.sn; _ }, Some invoked -> inversion_check t ~at ~node ~span ~invoked ~sn
        | _ -> [])
      | _ -> [])
    | Event.Gst_reached ->
      t.gst <- Some at;
      []
    | Event.Send _ | Event.Deliver _ | Event.Drop _ | Event.Op_phase _
    | Event.Quorum_progress _ | Event.Violation _ | Event.Fault_injected _ ->
      []
  in
  timed @ direct

let finalize t ~at =
  let timed = if Time.(at > t.last_seen) then liveness_scan t ~at else [] in
  t.last_seen <- Time.max t.last_seen at;
  timed

let run cfg events =
  let t = create cfg in
  List.iter (fun st -> ignore (feed t st)) events;
  let last =
    List.fold_left (fun acc ({ at; _ } : Event.stamped) -> Time.max acc at) Time.zero events
  in
  ignore (finalize t ~at:last);
  violations t
