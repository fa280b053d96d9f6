(* Mobile fleet tracker: the paper's wireless-network example, grown
   from one convoy to a whole fleet.

     dune exec examples/mobile_tracker.exe

   Section 2.1 explains the join operation with mobile nodes entering
   a radio zone: a vehicle starts *listening* the moment it is in
   range, and becomes active once its join protocol finishes. The
   original demo tracked one convoy's rally point in one regular
   register; a dispatch center tracks dozens. Here 24 convoys each own
   one key — their current rally point — in a sharded store of 3 radio
   channels (Harness.run_shards), every channel an independent 12-vehicle
   synchronous register deployment (known delay bound delta, as in the
   MANET register protocols of Section 6) with oldest-first churn:
   vehicles cross coverage in arrival order.

   Dispatch attention is zipfian — the convoy in trouble gets read
   constantly, the quiet ones rarely — and it drifts (rotate_every):
   today's emergency is not tomorrow's. Writes are rally-point
   updates; the protocol's fast local read is exactly what a
   resource-poor mobile node wants, and the delta-wait hazard of
   Figure 3 (a vehicle entering coverage while an update is on the
   air) is now spread across every channel at once. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_workload

let time = Time.of_int
let delta = 4 (* radio round bound, in ticks *)
let channels = 3
let convoys = 24
let horizon = 500

let () =
  let base =
    {
      (Deployment.default_config ~seed:99 ~n:12 ~delay:(Delay.synchronous ~delta)
         ~churn_rate:0.02)
      with
      Deployment.churn_policy = Dds_churn.Churn.Oldest_first
      (* vehicles cross the zone in arrival order *);
    }
  in
  (* The dispatch board: zipfian attention over the convoys, one
     rally-point update every 12 ticks somewhere in the fleet, and the
     hot convoy drifting every 100 ticks. *)
  let plan =
    Skew.plan ~rng:(Rng.create ~seed:99)
      {
        (Skew.default ~keys:convoys ~s:1.2 ~until:(time horizon)) with
        Skew.read_rate = 1.5;
        write_every = 12;
        rotate_every = 100;
      }
  in
  let fleet =
    Harness.run_shards
      (Harness.instance_exn (Protocol.find_exn "sync") ~n:12 ~delta)
      base ~shards:channels
      { Harness.horizon; drain = 20 * delta; workload = Harness.Plan plan; monitor = None }
      []
  in
  let issued = List.fold_left (fun acc (_, r) -> acc + Harness.issued r) 0 fleet in
  let regular (r : Harness.result) = Regularity.is_ok r.Harness.regularity in

  Format.printf "fleet      : %d convoys on %d radio channels (n=12 each, delta=%d)@."
    convoys channels delta;
  Format.printf "dispatch   : %d op(s) planned, %d issued, %d skipped (nobody in range)@."
    (List.length plan) issued (List.length plan - issued);

  (* Who ended up hot? The top of the key histogram is the convoy the
     dispatcher could not stop watching. *)
  let hist = Skew.key_histogram plan ~keys:convoys in
  let hot = ref 0 in
  Array.iteri (fun k n -> if n > hist.(!hot) then hot := k) hist;
  Format.printf "hot convoy : #%d with %d of %d ops (channel %d)@." !hot hist.(!hot)
    (List.length plan)
    (Dds_shard.Shard.route ~shards:channels ~key:!hot);

  (* Per-channel: joins, Figure-3 fast-path joins, verdict. *)
  List.iteri
    (fun s (_, (r : Harness.result)) ->
      let joins = History.completed_joins r.Harness.history in
      let fast =
        List.length
          (List.filter
             (fun (o : History.op) ->
               match o.History.responded with
               | Some t -> Time.diff t o.History.invoked = delta
               | None -> false)
             joins)
      in
      Format.printf
        "channel %d  : %3d joins (%d heard an update during the wait — the Figure 3 \
         timing; %d needed the full inquiry), %s@."
        s (List.length joins) fast
        (List.length joins - fast)
        (if regular r then "regular" else "VIOLATED"))
    fleet;
  Format.printf "fleet-wide : %s@."
    (if List.for_all (fun (_, r) -> regular r) fleet then
       "regular — nobody ever drove to a stale rally point, on any channel"
     else "VIOLATED");
  Format.printf
    "(one register per convoy, one theorem per channel: sharding the fleet@.";
  Format.printf
    " multiplies the paper's guarantee instead of diluting it.)@."
