open Dds_sim
open Dds_net
open Dds_churn
open Dds_core

module Make (D : Deployment.S) = struct
  type t = {
    d : D.t;
    choose : n:int -> label:string -> int;
    mutable drops_left : int;
    mutable crashes_left : int;
    mutable drops : int;
    mutable crashes : int;
  }

  let drop_label decision ~msg_kind =
    String.concat ""
      [ "drop?"; msg_kind; ":"; Pid.to_string decision.Delay.src; "->";
        Pid.to_string decision.Delay.dst ]

  (* Every transmission is a binary choice point while budget remains:
     0 delivers, 1 drops. The plan is consulted by the network at send
     time, so the decision lands in the global decision stream exactly
     where the send happens — replay-stable by the simulator's
     determinism. *)
  let install_drops t =
    Network.set_fault_plan (D.network t.d) (fun decision ~msg_kind ->
        if t.drops_left <= 0 then Network.Pass
        else begin
          let label = drop_label decision ~msg_kind in
          if t.choose ~n:2 ~label = 1 then begin
            t.drops_left <- t.drops_left - 1;
            t.drops <- t.drops + 1;
            Network.Drop_msg
          end
          else Network.Pass
        end)

  (* Crash decision points: at each configured tick, the candidates
     are the active processes in pid order (minus the protected
     writer), and branch 0 is "nobody crashes". Arity-1 points (no
     candidates) are skipped outright. *)
  let crash_point t () =
    if t.crashes_left > 0 then begin
      let protected_writer =
        if (D.config t.d).Deployment.protect_writer then D.writer t.d else None
      in
      let victims =
        List.filter
          (fun pid ->
            match protected_writer with
            | Some w -> not (Pid.equal pid w)
            | None -> true)
          (Membership.active (D.membership t.d))
      in
      match victims with
      | [] -> ()
      | victims ->
        let label =
          Printf.sprintf "crash@t=%d?%s" (Time.to_int (D.now t.d))
            (String.concat "," (List.map Pid.to_string victims))
        in
        let k = t.choose ~n:(1 + List.length victims) ~label in
        if k > 0 then begin
          t.crashes_left <- t.crashes_left - 1;
          t.crashes <- t.crashes + 1;
          D.crash t.d (List.nth victims (k - 1))
        end
    end

  let install ~choose ~drop_budget ~crash_budget ?(crash_ticks = []) d =
    let t =
      {
        d;
        choose;
        drops_left = drop_budget;
        crashes_left = crash_budget;
        drops = 0;
        crashes = 0;
      }
    in
    if drop_budget > 0 then install_drops t;
    if crash_budget > 0 then
      List.iter
        (fun tick ->
          ignore
            (Scheduler.schedule_at (D.scheduler d) (Time.of_int tick) (crash_point t)))
        crash_ticks;
    t

  let drops_injected t = t.drops
  let crashes_injected t = t.crashes
end
