open Dds_sim
open Dds_core
open Dds_shard

type config = { read_rate : float; write_every : int; start : Time.t; until : Time.t }

let default ~until = { read_rate = 1.0; write_every = 20; start = Time.of_int 1; until }

module Make (D : Deployment.S) = struct
  let reads_this_tick rng rate =
    let base = int_of_float rate in
    let frac = rate -. float_of_int base in
    base + (if Rng.float rng 1.0 < frac then 1 else 0)

  (* The designated writer when it can take a write now: re-elected on
     the fly if the previous writer left (footnote 1: many writers are
     fine as long as writes never overlap, which one-designation-at-a-
     time guarantees), and only while it is active and idle. *)
  let idle_writer d =
    match D.elect_writer d with
    | Some w -> (
      match D.node d w with
      | Some node when D.Protocol.is_active node && not (D.Protocol.busy node) -> Some w
      | Some _ | None -> None)
    | None -> None

  let read_anywhere d =
    match D.random_idle_active d with Some pid -> D.read d pid | None -> ()

  let tick d cfg () =
    let rng = D.workload_rng d in
    (* Writer first so reads of this tick can race with the write. *)
    let now = Time.to_int (D.now d) in
    if cfg.write_every > 0 && now mod cfg.write_every = 0 then
      Option.iter (D.write d) (idle_writer d);
    (* A tick with nobody able to read issues fewer reads. *)
    for _ = 1 to reads_this_tick rng cfg.read_rate do
      read_anywhere d
    done

  let run d cfg =
    let sched = D.scheduler d in
    let rec schedule time =
      if Time.(time <= cfg.until) then begin
        ignore (Scheduler.schedule_at sched time (tick d cfg));
        schedule (Time.add time 1)
      end
    in
    schedule (Time.max cfg.start (Time.add (Scheduler.now sched) 1))

  let run_plan d ops =
    let sched = D.scheduler d in
    let issue = function
      | Shard.Read -> read_anywhere d
      | Shard.Write v -> Option.iter (fun w -> D.write_value d w v) (idle_writer d)
    in
    List.iter
      (fun { Shard.at; kind; _ } ->
        if Time.(at > Scheduler.now sched) then
          ignore (Scheduler.schedule_at sched at (fun () -> issue kind)))
      ops
end
