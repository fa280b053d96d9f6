type timer = {
  deadline : float;  (* absolute ms *)
  seq : int;
  f : unit -> unit;
  mutable alive : bool;
}

(* Binary min-heap on (deadline, seq) — same tie-break as the
   simulator scheduler, so two timers set in the same millisecond fire
   in creation order. *)
type t = {
  mutable heap : timer array;
  mutable heap_size : int;
  mutable next_seq : int;
  fds : (Unix.file_descr, (unit -> unit) option * (unit -> unit) option) Hashtbl.t;
      (** fd -> (read callback, write callback); never (None, None) *)
  deferred : (unit -> unit) Queue.t;
  mutable stop : bool;
}

let now_ms () = Unix.gettimeofday () *. 1000.

let dummy = { deadline = 0.; seq = 0; f = ignore; alive = false }

let create () =
  {
    heap = Array.make 64 dummy;
    heap_size = 0;
    next_seq = 0;
    fds = Hashtbl.create 64;
    deferred = Queue.create ();
    stop = false;
  }

let before a b = a.deadline < b.deadline || (a.deadline = b.deadline && a.seq < b.seq)

let push t tm =
  if t.heap_size = Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) dummy in
    Array.blit t.heap 0 bigger 0 t.heap_size;
    t.heap <- bigger
  end;
  let i = ref t.heap_size in
  t.heap_size <- t.heap_size + 1;
  t.heap.(!i) <- tm;
  while !i > 0 && before t.heap.(!i) t.heap.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    let tmp = t.heap.(p) in
    t.heap.(p) <- t.heap.(!i);
    t.heap.(!i) <- tmp;
    i := p
  done

let pop t =
  let top = t.heap.(0) in
  t.heap_size <- t.heap_size - 1;
  t.heap.(0) <- t.heap.(t.heap_size);
  t.heap.(t.heap_size) <- dummy;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if l < t.heap_size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
    if r < t.heap_size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
    if !smallest = !i then continue := false
    else begin
      let tmp = t.heap.(!smallest) in
      t.heap.(!smallest) <- t.heap.(!i);
      t.heap.(!i) <- tmp;
      i := !smallest
    end
  done;
  top

let after_ms t d f =
  let d = Stdlib.max 0 d in
  let tm = { deadline = now_ms () +. float_of_int d; seq = t.next_seq; f; alive = true } in
  t.next_seq <- t.next_seq + 1;
  push t tm;
  fun () -> tm.alive <- false

(* Neither look-up nor a no-op unwatch allocates: [Conn] unwatches
   write-interest after every flush. *)
let get t fd = match Hashtbl.find t.fds fd with w -> w | exception Not_found -> (None, None)
let set t fd = function None, None -> Hashtbl.remove t.fds fd | w -> Hashtbl.replace t.fds fd w
let watch_read t fd cb = set t fd (Some cb, snd (get t fd))
let watch_write t fd cb = set t fd (fst (get t fd), Some cb)
let unwatch_read t fd = match get t fd with Some _, w -> set t fd (None, w) | None, _ -> ()
let unwatch_write t fd = match get t fd with r, Some _ -> set t fd (r, None) | _, None -> ()

let defer t f = Queue.push f t.deferred

let run_deferred t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

let stop t = t.stop <- true
let stopped t = t.stop

let fire_due t =
  let continue = ref true in
  while !continue && t.heap_size > 0 do
    let top = t.heap.(0) in
    if not top.alive then ignore (pop t)
    else if top.deadline <= now_ms () then begin
      ignore (pop t);
      top.f ()
    end
    else continue := false
  done

let next_deadline t =
  let rec skim () =
    if t.heap_size = 0 then None
    else if not t.heap.(0).alive then begin
      ignore (pop t);
      skim ()
    end
    else Some t.heap.(0).deadline
  in
  skim ()

let iterate t =
  fire_due t;
  run_deferred t;
  if not t.stop then begin
    let timeout =
      match next_deadline t with
      | Some d -> Stdlib.min 0.25 (Stdlib.max 0. ((d -. now_ms ()) /. 1000.))
      | None -> 0.25
    in
    let interested pick =
      Hashtbl.fold (fun fd w fds -> if Option.is_some (pick w) then fd :: fds else fds) t.fds []
    in
    (match Unix.select (interested fst) (interested snd) [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
      (* Look the callback up at fire time: an earlier callback in the
         same batch may have closed and unwatched a later fd. *)
      List.iter (fun fd -> Option.iter (fun cb -> cb ()) (fst (get t fd))) ready_r;
      List.iter (fun fd -> Option.iter (fun cb -> cb ()) (snd (get t fd))) ready_w);
    run_deferred t
  end

let run t =
  t.stop <- false;
  while not t.stop do
    iterate t
  done

let run_while t pred =
  t.stop <- false;
  while (not t.stop) && pred () do
    iterate t
  done
