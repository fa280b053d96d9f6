type tag = { actor : int; kind : string }

let untagged = { actor = -1; kind = "" }

type event = {
  time : Time.t;
  seq : int;
  tag : tag;
  callback : unit -> unit;
  mutable cancelled : bool;
}

type token = event

type candidate = event

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable chooser : (candidate array -> int) option;
  queue : event Heap.t;
}

let compare_events a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    clock = Time.zero;
    next_seq = 0;
    fired = 0;
    chooser = None;
    queue = Heap.create ~cmp:compare_events ();
  }

let now s = s.clock

let schedule_at s ?(tag = untagged) time callback =
  if Time.(time < s.clock) then
    invalid_arg
      (Format.asprintf "Scheduler.schedule_at: %a is in the past (now %a)" Time.pp time
         Time.pp s.clock);
  let ev = { time; seq = s.next_seq; tag; callback; cancelled = false } in
  s.next_seq <- s.next_seq + 1;
  Heap.insert s.queue ev;
  ev

let schedule_after s ?tag d callback =
  if d < 0 then invalid_arg "Scheduler.schedule_after: negative delay";
  schedule_at s ?tag (Time.add s.clock d) callback

let cancel _s token = token.cancelled <- true
let pending s = Heap.length s.queue

let set_chooser s chooser = s.chooser <- chooser
let choosing s = Option.is_some s.chooser

let candidate_time (ev : candidate) = ev.time
let candidate_tag (ev : candidate) = ev.tag
let candidate_seq (ev : candidate) = ev.seq

let fire s ev =
  s.clock <- ev.time;
  s.fired <- s.fired + 1;
  ev.callback ()

(* Drops cancelled events from the head of the queue; true when a live
   event is left at the head. Allocates nothing, so the plain FIFO
   loop runs garbage-free. *)
let rec live_head s =
  if Heap.is_empty s.queue then false
  else if (Heap.top s.queue).cancelled then begin
    ignore (Heap.pop s.queue);
    live_head s
  end
  else true

(* Pop every non-cancelled event sharing the minimal time, in seq
   order. Cancelled events encountered on the way are dropped. *)
let pop_ready s =
  if not (live_head s) then []
  else begin
    let first = Heap.pop s.queue in
    let rec rest acc =
      if live_head s && Time.compare (Heap.top s.queue).time first.time = 0 then
        rest (Heap.pop s.queue :: acc)
      else List.rev acc
    in
    first :: rest []
  end

let pending_candidates s =
  List.filter (fun ev -> not ev.cancelled) (Heap.to_sorted_list s.queue)

let step s =
  match s.chooser with
  | None ->
    if live_head s then begin
      fire s (Heap.pop s.queue);
      true
    end
    else false
  | Some choose -> (
    match pop_ready s with
    | [] -> false
    | [ ev ] ->
      fire s ev;
      true
    | ready ->
      let arr = Array.of_list ready in
      let i = choose arr in
      if i < 0 || i >= Array.length arr then
        invalid_arg
          (Printf.sprintf "Scheduler.step: chooser picked %d of %d candidates" i
             (Array.length arr));
      Array.iteri (fun j ev -> if j <> i then Heap.insert s.queue ev) arr;
      fire s arr.(i);
      true)

let run_until s horizon =
  let rec loop () =
    if live_head s && Time.((Heap.top s.queue).time <= horizon) && step s then loop ()
  in
  loop ();
  if Time.(horizon > s.clock) then s.clock <- horizon

let run s ?max_events () =
  let budget = match max_events with None -> max_int | Some b -> b in
  let rec loop remaining = if remaining > 0 && step s then loop (remaining - 1) in
  loop budget

let events_fired s = s.fired
