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

(* Fills every consumed slot entry, so that a fired event is not kept
   alive by the array that queued it. *)
let vacant = { time = Time.zero; seq = -1; tag = untagged; callback = ignore; cancelled = true }

(* The wheel covers the ticks [clock, clock + width): tick [t] lives in
   slot [t land mask], whose entries [head, len) are its events in seq
   order. A power of two well above the default delivery bound (delta =
   3), so nearly every delivery lands in the wheel; small, because every
   checker schedule builds a fresh scheduler. *)
let width = 16
let mask = width - 1

type slot = { mutable evs : event array; mutable head : int; mutable len : int }

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable chooser : (candidate array -> int) option;
  slots : slot array;
  mutable near : int;  (** entries in the slots, cancelled ones included *)
  far : event Heap.t;  (** events at [clock + width] or later *)
  mutable offered : int;  (** the slot whose events are at the chooser, or -1 *)
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
    slots = Array.init width (fun _ -> { evs = [||]; head = 0; len = 0 });
    near = 0;
    far = Heap.create ~cmp:compare_events ();
    offered = -1;
  }

let now s = s.clock
let ticks (t : Time.t) = (t :> int)

let append s ev =
  let sl = s.slots.(ticks ev.time land mask) in
  let cap = Array.length sl.evs in
  if sl.len = cap then begin
    (* Reuse the array when its consumed front is at least half of it. *)
    let live = sl.len - sl.head in
    let evs =
      if cap > 0 && 2 * sl.head >= cap then sl.evs else Array.make (max 8 (2 * cap)) vacant
    in
    Array.blit sl.evs sl.head evs 0 live;
    if evs == sl.evs then Array.fill evs live (cap - live) vacant;
    sl.evs <- evs;
    sl.head <- 0;
    sl.len <- live
  end;
  sl.evs.(sl.len) <- ev;
  sl.len <- sl.len + 1;
  s.near <- s.near + 1

let schedule_at s ?(tag = untagged) time callback =
  if Time.(time < s.clock) then
    invalid_arg
      (Format.asprintf "Scheduler.schedule_at: %a is in the past (now %a)" Time.pp time
         Time.pp s.clock);
  let ev = { time; seq = s.next_seq; tag; callback; cancelled = false } in
  s.next_seq <- s.next_seq + 1;
  if ticks time - ticks s.clock < width then append s ev else Heap.insert s.far ev;
  ev

let schedule_after s ?tag d callback =
  if d < 0 then invalid_arg "Scheduler.schedule_after: negative delay";
  schedule_at s ?tag (Time.add s.clock d) callback

let cancel _s token = token.cancelled <- true
let pending s = s.near + Heap.length s.far

let set_chooser s chooser = s.chooser <- chooser
let choosing s = Option.is_some s.chooser

let candidate_time (ev : candidate) = ev.time
let candidate_tag (ev : candidate) = ev.tag
let candidate_seq (ev : candidate) = ev.seq

let take_head s sl =
  let ev = sl.evs.(sl.head) in
  sl.evs.(sl.head) <- vacant;
  sl.head <- sl.head + 1;
  if sl.head = sl.len then begin
    sl.head <- 0;
    sl.len <- 0
  end;
  s.near <- s.near - 1;
  ev

(* Moves the far events before tick [before] into their slots. The heap
   yields them in (time, seq) order, and a tick joins the window before
   anything can be scheduled into its slot directly, so every slot stays
   in seq order. *)
let rec migrate s ~before =
  if (not (Heap.is_empty s.far)) && ticks (Heap.top s.far).time < before then begin
    append s (Heap.pop s.far);
    migrate s ~before
  end

(* Every event before [time] has fired or been swept, so the slots the
   window gives up are empty. *)
let advance s time =
  s.clock <- time;
  migrate s ~before:(ticks time + width)

let no_event = max_int

(* The tick of the earliest live event, or [no_event]; cancelled events
   in front of it are swept. Allocates nothing, so the plain FIFO loop
   runs garbage-free. *)
let rec next_tick s =
  if s.near = 0 then
    if Heap.is_empty s.far then no_event
    else if (Heap.top s.far).cancelled then begin
      ignore (Heap.pop s.far);
      next_tick s
    end
    else ticks (Heap.top s.far).time
  else scan s (ticks s.clock) 0

and scan s base k =
  if k = width then next_tick s
  else begin
    let sl = s.slots.((base + k) land mask) in
    while sl.len > 0 && sl.evs.(sl.head).cancelled do
      ignore (take_head s sl)
    done;
    if sl.len > 0 then base + k else scan s base (k + 1)
  end

(* Offers the slot's live events to [choose] and removes its pick in
   place. The clock stays put until the pick fires, and
   [pending_candidates] leaves the offered events out, as the checker
   fingerprints both from inside the chooser. *)
let choose_from s choose i =
  let sl = s.slots.(i) in
  let w = ref sl.head in
  for r = sl.head to sl.len - 1 do
    let ev = sl.evs.(r) in
    if not ev.cancelled then begin
      sl.evs.(!w) <- ev;
      incr w
    end
  done;
  Array.fill sl.evs !w (sl.len - !w) vacant;
  s.near <- s.near - (sl.len - !w);
  sl.len <- !w;
  let live = sl.len - sl.head in
  let pick =
    if live = 1 then 0
    else begin
      s.offered <- i;
      let pick = choose (Array.sub sl.evs sl.head live) in
      s.offered <- -1;
      if pick < 0 || pick >= live then
        invalid_arg
          (Printf.sprintf "Scheduler.step: chooser picked %d of %d candidates" pick live);
      pick
    end
  in
  (* Shift the pick's predecessors up one place and take it from the head. *)
  let ev = sl.evs.(sl.head + pick) in
  Array.blit sl.evs sl.head sl.evs (sl.head + 1) pick;
  sl.evs.(sl.head) <- ev;
  take_head s sl

(* Fires the earliest live event, at [tick] (from [next_tick]). *)
let step_at s tick =
  (* Beyond the window the slots are all empty: pull the tick's events
     into theirs. *)
  if tick - ticks s.clock >= width then migrate s ~before:(tick + 1);
  let i = tick land mask in
  let ev =
    match s.chooser with None -> take_head s s.slots.(i) | Some choose -> choose_from s choose i
  in
  if Time.(ev.time > s.clock) then advance s ev.time;
  s.fired <- s.fired + 1;
  ev.callback ()

let step s =
  let tick = next_tick s in
  if tick = no_event then false
  else begin
    step_at s tick;
    true
  end

let pending_candidates s =
  let near = ref [] in
  for k = width - 1 downto 0 do
    let i = (ticks s.clock + k) land mask in
    if i <> s.offered then begin
      let sl = s.slots.(i) in
      for r = sl.len - 1 downto sl.head do
        if not sl.evs.(r).cancelled then near := sl.evs.(r) :: !near
      done
    end
  done;
  !near @ List.filter (fun ev -> not ev.cancelled) (Heap.to_sorted_list s.far)

let run_until s horizon =
  let rec loop () =
    let tick = next_tick s in
    if tick <= ticks horizon then begin
      step_at s tick;
      loop ()
    end
  in
  loop ();
  if Time.(horizon > s.clock) then advance s horizon

let run s ?max_events () =
  let budget = match max_events with None -> max_int | Some b -> b in
  let rec loop remaining = if remaining > 0 && step s then loop (remaining - 1) in
  loop budget

let events_fired s = s.fired
