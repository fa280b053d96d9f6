(* Client-side regularity check for live reads.

   The store hosts one register per shard, so the write log is kept
   per shard: every key routed to a shard reads and writes that shard's
   register. All writes go over one connection to the shard's single
   writer, which runs them one at a time from a FIFO queue, so a
   register's writes take effect, and are answered, in the order they
   were sent; the acked writes are therefore a prefix of the sent ones.

   A read may return the value of the last write acked before the read
   was sent, or of any later write sent before the read's response
   arrived (Section 2.2's regular register, seen from the client). Every
   written datum is distinct and increasing, and the initial datum
   precedes them all. *)

type log = {
  mutable data : int array;  (** sent writes, in send order *)
  mutable sent : int;
  mutable acked : int;  (** writes [0, acked) have been answered *)
}

type t = { logs : log array; initial : int }

let create ~registers ~initial =
  { logs = Array.init registers (fun _ -> { data = Array.make 256 0; sent = 0; acked = 0 }); initial }

let write_sent t reg datum =
  let l = t.logs.(reg) in
  if l.sent = Array.length l.data then begin
    let bigger = Array.make (2 * l.sent) 0 in
    Array.blit l.data 0 bigger 0 l.sent;
    l.data <- bigger
  end;
  l.data.(l.sent) <- datum;
  l.sent <- l.sent + 1

(* False when the answered write is not the oldest unanswered one: the
   writer reordered writes, which the check above relies on never
   happening. *)
let write_acked t reg datum =
  let l = t.logs.(reg) in
  let in_order = l.acked < l.sent && l.data.(l.acked) = datum in
  if in_order then l.acked <- l.acked + 1;
  in_order

(* A read in flight remembers its register and how many of its writes
   were acked when it was sent. *)
type read = { reg : int; acked_before : int }

let read_sent t reg = { reg; acked_before = t.logs.(reg).acked }

let index_of l datum =
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let d = l.data.(mid) in
      if d = datum then Some mid else if d < datum then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (l.sent - 1)

(* Judged when the response arrives: the allowed writes are indices
   [acked_before - 1, sent - 1], index -1 being the initial value. *)
let read_ok t r datum =
  let l = t.logs.(r.reg) in
  if datum = t.initial then r.acked_before = 0
  else
    match index_of l datum with
    | Some i -> i >= r.acked_before - 1 && i <= l.sent - 1
    | None -> false
