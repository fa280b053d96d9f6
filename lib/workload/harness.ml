open Dds_sim
open Dds_churn
open Dds_spec
open Dds_core
open Dds_fault
open Dds_shard
module Monitor = Dds_monitor.Monitor

type workload =
  | Rate of { read_rate : float; write_every : int }
  | Plan of Shard.op list

type spec = {
  horizon : int;
  drain : int;
  workload : workload;
  monitor : Monitor.config option;
}

let default_spec ?monitor ~horizon ~drain () =
  { horizon; drain; workload = Rate { read_rate = 1.0; write_every = 20 }; monitor }

module type INSTANCE = sig
  module D : Deployment.S

  val params : D.Protocol.params
end

let instance (p : Protocol.t) ~n ~delta =
  let module R = (val p.Protocol.runner : Protocol.RUNNER) in
  Result.map
    (fun params ->
      (module struct
        module D = R.D

        let params = params
      end : INSTANCE))
    (R.params { Protocol.n; delta; quorum = None })

let instance_exn p ~n ~delta =
  match instance p ~n ~delta with Ok i -> i | Error e -> invalid_arg e

let monitor_config ?churn_window ?(liveness_k = 10) ?(gst = false) (p : Protocol.t) ~n ~delta =
  {
    (Monitor.default ~n ~delta) with
    Monitor.churn_window = Option.value churn_window ~default:(3 * delta);
    liveness_bound = Some (liveness_k * delta);
    liveness_from_gst = p.Protocol.gst_liveness && gst;
    churn_bound = p.Protocol.churn_bound ~n ~delta;
    majority = p.Protocol.majority;
    inversions = p.Protocol.atomic;
  }

type audit = {
  findings : Monitor.violation list;
  regularity : Regularity.report;
  overdue : int list;
}

let audit cfg ~initial evs =
  let m = Monitor.create cfg in
  List.iter (fun st -> ignore (Monitor.feed m st)) evs;
  let last =
    List.fold_left (fun acc ({ at; _ } : Event.stamped) -> Time.max acc at) Time.zero evs
  in
  ignore (Monitor.finalize m ~at:last);
  {
    findings = Monitor.violations m;
    regularity = Regularity.check (Replay.history_of_events ~initial:(Value.initial initial) evs);
    overdue = Monitor.overdue_spans m;
  }

type result = {
  history : History.t;
  regularity : Regularity.report;
  staleness : Staleness.report;
  metrics : Metrics.t;
  snapshot : Metrics.snapshot;
  events : Event.sink;
  trace : Trace.t;
  analysis : Analysis.t;
  membership : Membership.t;
  findings : Monitor.violation list;
  injected : int;
}

(* Findings are emitted back into the sink they came from, so exported
   traces carry them; Monitor.feed ignores Violation events, so the
   observer never reacts to its own output. *)
let emit_findings sink =
  List.iter (fun (v : Monitor.violation) ->
      Event.emit sink ~at:v.Monitor.at (Monitor.to_event v))

let attach sink cfg =
  let m = Monitor.create cfg in
  (* Creation already buffered the founding joins at t=0; catch the
     monitor up on them or its active-set count starts empty and the
     first leave looks fatal. *)
  List.iter (fun st -> ignore (Monitor.feed m st)) (Event.events sink);
  Event.on_emit sink (fun st -> emit_findings sink (Monitor.feed m st));
  m

let detach sink m ~at =
  emit_findings sink (Monitor.finalize m ~at);
  Event.clear_observer sink;
  Monitor.violations m

let run (module I : INSTANCE) (cfg : Deployment.config) spec plan =
  let module D = I.D in
  let module G = Generator.Make (D) in
  let module Inj = Injector.Make (D) in
  let cfg =
    { cfg with Deployment.events_enabled = cfg.Deployment.events_enabled || spec.monitor <> None }
  in
  let d = D.create cfg I.params in
  let armed =
    match plan with
    | [] -> None
    | plan -> Some (Inj.install ~rng:(Rng.split (D.workload_rng d)) d plan)
  in
  let mon = Option.map (attach (D.events d)) spec.monitor in
  let until = Time.of_int spec.horizon in
  D.start_churn d ~until;
  (match spec.workload with
  | Rate { read_rate; write_every } ->
    G.run d { Generator.read_rate; write_every; start = Time.of_int 1; until }
  | Plan ops -> G.run_plan d ops);
  D.run_until d (Time.of_int (spec.horizon + spec.drain));
  let findings = match mon with None -> [] | Some m -> detach (D.events d) m ~at:(D.now d) in
  {
    history = D.history d;
    regularity = D.regularity d;
    staleness = D.staleness d;
    metrics = D.metrics d;
    snapshot = D.metrics_snapshot d;
    events = D.events d;
    trace = D.trace d;
    analysis = D.analysis d;
    membership = D.membership d;
    findings;
    injected = (match armed with None -> 0 | Some i -> Inj.total_injected i);
  }

let run_shards inst (cfg : Deployment.config) ~shards spec plan =
  if shards <= 0 then invalid_arg "Harness.run_shards: shards must be positive";
  let ops =
    match spec.workload with
    | Plan ops -> ops
    | Rate _ -> invalid_arg "Harness.run_shards: the workload must be a keyed plan"
  in
  let slices = Array.make shards [] in
  List.iter
    (fun (op : Shard.op) ->
      let s = Shard.route ~shards ~key:op.Shard.key in
      slices.(s) <- op :: slices.(s))
    ops;
  List.init shards (fun s ->
      let slice = List.rev slices.(s) in
      let seed = Shard.seed_for ~seed:cfg.Deployment.seed ~shard:s in
      let cfg = { cfg with Deployment.seed; events_first_span = Shard.span_base s } in
      (List.length slice, run inst cfg { spec with workload = Plan slice } plan))

let issued r = Metrics.get r.metrics "op.read" + Metrics.get r.metrics "op.write"

let tagged_events shards =
  Export.merge_tagged
    (List.mapi
       (fun s (_, r) -> List.map (fun ev -> (Some s, ev)) (Event.events r.events))
       shards)

let outcome r =
  {
    Hunt.violations =
      List.map (Format.asprintf "%a" Monitor.pp_violation) r.findings
      @ List.map
          (Format.asprintf "regularity: %a" Regularity.pp_violation)
          r.regularity.Regularity.violations;
    injected = r.injected;
  }
