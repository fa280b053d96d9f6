open Dds_sim
open Dds_net
open Dds_spec
open Dds_core

module Sync_d = Deployment.Make (Sync_register)

let pid = Pid.of_int
let time = Time.of_int

(* ------------------------------------------------------------------ *)
(* Figure 3: why the join operation must first wait delta.

   System: p0 (writer), p1, p2 founding; delta = 5.
   t=10  p0 starts write(1): broadcasts WRITE, will return at t=15.
   t=11  p3 enters the system. It entered after the broadcast, so it
         will never deliver that WRITE.
   t=16  p0 leaves (its write is complete). Its reply to p3's inquiry
         can therefore never arrive.
   t=40  p3 reads.

   Delay schedule (all within the delta = 5 bound):
   - p0's WRITE broadcast takes the full 5 ticks;
   - everything addressed to p0 takes 5 ticks (so p3's INQUIRY reaches
     p0 only at t >= 16, after p0 left);
   - every other message takes 1 tick.

   Without the initial wait (Figure 3a): p3 inquires at t=11; p1 and p2
   answer at t=12 with the old value 0 (their WRITE arrives only at
   t=15); p3 adopts 0 — legal so far, the write is concurrent with the
   join — but its t=40 read still returns 0 after write(1) completed at
   t=15: safety violation.

   With the wait (Figure 3b): p3 inquires at t=16 > 15; p1 and p2
   already hold 1, so the join adopts 1 and the read is correct. *)

type fig3_outcome = {
  join_value : Value.t option;
  read_value : Value.t option;
  report : Regularity.report;
  join_duration : int option;
}

let fig3_delta = 5

let fig3_delay (dec : Delay.decision) =
  if Delay.(dec.kind = Broadcast) && Pid.equal dec.src (pid 0) then fig3_delta
  else if Pid.equal dec.dst (pid 0) then fig3_delta
  else 1

let fig3 ~join_wait =
  let cfg =
    Deployment.default_config ~seed:1 ~n:3
      ~delay:(Delay.adversarial fig3_delay) ~churn_rate:0.0
  in
  let d =
    Sync_d.create cfg
      { (Sync_register.default_params ~delta:fig3_delta) with Sync_register.join_wait }
  in
  let sched = Sync_d.scheduler d in
  let joiner = ref None in
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 11) (fun () -> joiner := Some (Sync_d.spawn d)));
  ignore (Scheduler.schedule_at sched (time 16) (fun () -> Sync_d.retire d (pid 0)));
  ignore
    (Scheduler.schedule_at sched (time 40) (fun () ->
         match !joiner with Some j -> Sync_d.read d j | None -> ()));
  Sync_d.run_until d (time 60);
  let history = Sync_d.history d in
  let value_of (o : History.op) =
    match o.History.kind with
    | History.Read v | History.Join v -> v
    | History.Write v -> Some v
  in
  let join_op =
    match History.completed_joins history with [ j ] -> Some j | _ -> None
  in
  {
    join_value = Option.bind join_op value_of;
    read_value =
      (match History.completed_reads history with [ r ] -> value_of r | _ -> None);
    report = Regularity.check history;
    join_duration =
      Option.bind join_op (fun (j : History.op) ->
          Option.map (fun r -> Time.diff r j.History.invoked) j.History.responded);
  }

(* ------------------------------------------------------------------ *)
(* The introduction's new/old inversion.

   p0 writes 1 then 2. The WRITE(2) broadcast reaches p1 in 1 tick but
   p2 only after the full 5 ticks. Two purely local reads in between:
   r1 at p1 (t=12) returns 2; r2 at p2 (t=13) still returns 1 although
   r1 finished before r2 started. Regular — both reads are concurrent
   with write(2) or read the last completed value — but not atomic. *)

type inversion_outcome = {
  inversions : Atomicity.inversion list;
  report : Regularity.report;
  fast_read : Value.t option;
  slow_read : Value.t option;
}

let inversion_delay (dec : Delay.decision) =
  if Pid.equal dec.dst (pid 2) then 5 else 1

let inversion () =
  let cfg =
    Deployment.default_config ~seed:2 ~n:3
      ~delay:(Delay.adversarial inversion_delay) ~churn_rate:0.0
  in
  let d = Sync_d.create cfg (Sync_register.default_params ~delta:5) in
  let sched = Sync_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 1) (fun () -> Sync_d.write d (pid 0)));
  (* write(1) completes at t=6; everyone holds 1#1 by then. *)
  ignore (Scheduler.schedule_at sched (time 10) (fun () -> Sync_d.write d (pid 0)));
  (* WRITE(2) reaches p1 at t=11, p2 at t=15. *)
  ignore (Scheduler.schedule_at sched (time 12) (fun () -> Sync_d.read d (pid 1)));
  ignore (Scheduler.schedule_at sched (time 13) (fun () -> Sync_d.read d (pid 2)));
  Sync_d.run_until d (time 30);
  let history = Sync_d.history d in
  let reads = History.completed_reads history in
  let value_of (o : History.op) =
    match o.History.kind with History.Read v -> v | _ -> None
  in
  let read_of p =
    List.find_opt (fun (o : History.op) -> Pid.equal o.History.pid p) reads
  in
  {
    inversions = Atomicity.inversions history;
    report = Regularity.check history;
    fast_read = Option.bind (read_of (pid 1)) value_of;
    slow_read = Option.bind (read_of (pid 2)) value_of;
  }

(* ------------------------------------------------------------------ *)
(* Theorem 2 witness: unbounded delays defeat any wait-based protocol.

   The synchronous protocol runs unchanged (it believes delta = 5) but
   the network delivers the writer's broadcasts to everyone else only
   after an enormous delay, while inquiry traffic stays fast. Writes
   keep completing (the writer's wait is a local timer), readers join,
   inquire, and adopt evidence that is forever stale. Read staleness
   then grows with the number of completed writes, i.e. linearly in
   the horizon: the quantitative face of the impossibility. *)

type async_outcome = {
  staleness : Staleness.report;
  completed_writes : int;
  horizon : int;
}

let async_staleness ~horizon =
  let huge = (4 * horizon) + 10 in
  let delay (dec : Delay.decision) =
    if Pid.equal dec.src (pid 0) && not (Pid.equal dec.dst (pid 0)) then huge else 1
  in
  let cfg =
    Deployment.default_config ~seed:3 ~n:4
      ~delay:(Delay.adversarial delay) ~churn_rate:0.0
  in
  let d = Sync_d.create cfg (Sync_register.default_params ~delta:5) in
  let sched = Sync_d.scheduler d in
  let writer = pid 0 in
  (* One write every 20 ticks; one read from a non-writer every 20
     ticks, offset so reads never overlap writes. *)
  let rec drive t =
    if t <= horizon then begin
      ignore
        (Scheduler.schedule_at sched (time t) (fun () ->
             match Sync_d.node d writer with
             | Some node
               when Sync_register.is_active node && not (Sync_register.busy node) ->
               Sync_d.write d writer
             | Some _ | None -> ()));
      ignore
        (Scheduler.schedule_at sched (time (t + 10)) (fun () ->
             match Sync_d.random_idle_active ~exclude:[ writer ] d with
             | Some p -> Sync_d.read d p
             | None -> ()));
      drive (t + 20)
    end
  in
  drive 20;
  Sync_d.run_until d (time horizon);
  let history = Sync_d.history d in
  {
    staleness = Staleness.measure history;
    completed_writes = List.length (History.completed_writes history);
    horizon;
  }

(* ------------------------------------------------------------------ *)
(* The ES protocol's new/old inversion, and the read-repair fix.

   n = 5 (majority 3), writer p0. The WRITE dissemination is stalled
   (broadcasts from p0 crawl once its embedded read finished at t6),
   so only p0 holds the new value for a long while. r1 (by p1, t20)
   catches p0's reply in its majority and returns the new value; r2
   (by p4, t40) is cut off from p0 and p1 (their messages to p4
   crawl), collects {p4, p2, p3} — all stale — and returns the old
   value: a new/old inversion, legal for the regular register.

   With read_repair on, r1 re-disseminates the value it adopted and
   waits for a majority of acknowledgements before returning; p2 and
   p3 then hold the new value, r2's majority must include one of them,
   and the inversion disappears: the classical regular-to-atomic
   transformation, working in the dynamic setting. *)

module Es_d = Deployment.Make (Es_register)

let es_inversion_delay (dec : Delay.decision) =
  let src = Pid.to_int dec.Delay.src and dst = Pid.to_int dec.Delay.dst in
  if
    src = 0
    && dec.Delay.kind = Delay.Broadcast
    && dst <> 0
    && Time.to_int dec.Delay.now >= 6
  then 200
  else if (src = 3 || src = 4) && dst = 1 then 200
  else if (src = 0 || src = 1) && dst = 4 then 200
  else 2

let es_inversion ~read_repair () =
  let cfg =
    Deployment.default_config ~seed:4 ~n:5
      ~delay:(Delay.adversarial es_inversion_delay) ~churn_rate:0.0
  in
  let d =
    Es_d.create cfg { (Es_register.default_params ~n:5) with Es_register.read_repair }
  in
  let sched = Es_d.scheduler d in
  ignore (Scheduler.schedule_at sched (time 2) (fun () -> Es_d.write d (pid 0)));
  ignore (Scheduler.schedule_at sched (time 20) (fun () -> Es_d.read d (pid 1)));
  ignore (Scheduler.schedule_at sched (time 40) (fun () -> Es_d.read d (pid 4)));
  Es_d.run_until d (time 600);
  let history = Es_d.history d in
  let reads = History.completed_reads history in
  let value_of (o : History.op) =
    match o.History.kind with History.Read v -> v | _ -> None
  in
  let read_of p =
    List.find_opt (fun (o : History.op) -> Pid.equal o.History.pid p) reads
  in
  {
    inversions = Atomicity.inversions history;
    report = Regularity.check history;
    fast_read = Option.bind (read_of (pid 1)) value_of;
    slow_read = Option.bind (read_of (pid 4)) value_of;
  }
