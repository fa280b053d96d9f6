(* dds — command-line front end.

   Subcommands:
     run       simulate one deployment of a register protocol and report
               (or replay a checker schedule with --schedule)
     sweep     regenerate one experiment's tables (any of E1..E25)
     inspect   summarize a JSONL trace produced by run --trace-out
     explain   causal critical-path analysis of a JSONL trace: per-op
               latency attribution (compute/transit/quorum/timer/retry),
               straggler naming, k*delta bound violations with path
               witnesses
     audit     replay a JSONL trace through the assumption/safety
               monitors and the regularity checker
     hunt      randomized nemesis search for counterexamples, with
               shrinking to a minimal repro
     check     systematic bounded exploration of every schedule of a
               small deployment
     list      registered protocols and sweep experiments

   Protocols and experiments are never named in code here: every
   subcommand selects from Protocol.all (lib/core/protocol.ml), the one
   registry of runnable protocols and their theorem metadata, or from
   Experiment.all (lib/workload/experiment.ml), the one registry of
   experiment tables and their parameters.

   Everything is deterministic in --seed; `check` needs no seed at all. *)

open Dds_sim
open Dds_net
open Dds_churn
open Dds_spec
open Dds_core
open Dds_workload
open Dds_fault
open Cmdliner
module Causal = Dds_causal.Causal

let time = Time.of_int

(* ------------------------------------------------------------------ *)
(* Shared run/report logic, generic over the protocol. *)

module Summary = struct
  let latency_row ops label =
    let s = Stats.create () in
    List.iter
      (fun (o : History.op) ->
        match o.History.responded with
        | Some r -> Stats.add_int s (Time.diff r o.History.invoked)
        | None -> ())
      ops;
    [
      label;
      Report.cell_int (Stats.count s);
      Report.cell_float (Stats.mean s);
      Report.cell_float (Stats.median s);
      Report.cell_float (Stats.percentile s 99.0);
      Report.cell_float (Stats.max_value s);
    ]

  let print ~name (run : Harness.result) =
    let history = run.Harness.history in
    Report.print
      (Report.make
         ~title:(Printf.sprintf "run summary — %s" name)
         ~headers:[ "op"; "n"; "mean"; "p50"; "p99"; "max" ]
         [
           latency_row (History.completed_joins history) "join";
           latency_row (History.completed_reads history) "read";
           latency_row (History.completed_writes history) "write";
         ]);
    let r = run.Harness.regularity in
    Format.printf "safety     : %s (%d reads, %d joins checked; %d violations)@."
      (if Regularity.is_ok r then "REGULAR" else "VIOLATED")
      r.Regularity.checked_reads r.Regularity.checked_joins
      (List.length r.Regularity.violations);
    List.iter
      (fun v -> Format.printf "  %a@." Regularity.pp_violation v)
      r.Regularity.violations;
    Format.printf "atomicity  : %d new/old inversion(s)@."
      (List.length (Atomicity.inversions history));
    Format.printf "staleness  : %a@." Staleness.pp_report run.Harness.staleness;
    Format.printf "pending    : %d op(s) blocked at horizon, %d aborted by departures@."
      (List.length (History.pending history))
      (List.length (History.aborted history));
    Format.printf "@.counters:@.";
    List.iter
      (fun (k, v) -> Format.printf "  %-18s %d@." k v)
      (Metrics.to_list run.Harness.metrics)
end

type common = {
  seed : int;
  n : int;
  delta : int;
  churn : float;
  policy : Churn.leave_policy;
  horizon : int;
  read_rate : float;
  write_every : int;
  shards : int;  (** 0 = classic single-register run; >0 = sharded store *)
  keys : int;  (** key-space size for the sharded workload *)
  skew : float;  (** zipf exponent of the sharded workload *)
  gst : int option;  (** Some -> eventually synchronous delays *)
  wild : int;
  trace : bool;
  dump_history : string option;
  trace_out : string option;
  trace_format : string;  (** "jsonl" or "chrome" *)
  metrics_out : string option;
  monitor : bool;  (** run the online monitors against the live sink *)
  dot_out : string option;  (** causal message graph as Graphviz DOT *)
  churn_window : int option;  (** monitor window; default 3 * delta *)
  liveness_k : int;  (** liveness deadline = k * delta ticks *)
  nemesis : Nemesis.plan option;  (** fault schedule to arm before running *)
  jobs : int;  (** engine workers for sweep/hunt; 0 = auto *)
  minor_heap_words : int;  (** minor heap per engine domain; 0 = runtime default *)
  eprofile : bool;  (** profile the engine; summary to stderr *)
  profile_out : string option;  (** Chrome trace + summary JSON (implies eprofile) *)
}

(* A copy-pasteable repro of this run's configuration — echoed on
   every failure path, so a red run is one paste away from replaying. *)
let repro_line ~protocol c =
  let b = Buffer.create 96 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "dds run %s --seed %d --nodes %d --delta %d" protocol c.seed c.n c.delta;
  if c.churn <> 0.0 then addf " --churn %g" c.churn;
  (match c.policy with
  | Churn.Uniform -> ()
  | p -> addf " --policy %s" (Format.asprintf "%a" Churn.pp_policy p));
  addf " --horizon %d" c.horizon;
  if c.read_rate <> 1.0 then addf " --read-rate %g" c.read_rate;
  if c.write_every <> 20 then addf " --write-every %d" c.write_every;
  if c.shards > 0 then addf " --shards %d --keys %d --skew %g" c.shards c.keys c.skew;
  (match c.gst with
  | Some g ->
    addf " --gst %d" g;
    if c.wild <> 50 then addf " --wild %d" c.wild
  | None -> ());
  if c.monitor then addf " --monitor";
  (match c.nemesis with
  | Some plan -> addf " --nemesis '%s'" (Nemesis.to_string plan)
  | None -> ());
  Buffer.contents b

let build_delay c =
  match c.gst with
  | Some gst -> Delay.eventually_synchronous ~gst:(time gst) ~delta:c.delta ~wild:c.wild
  | None -> Delay.synchronous ~delta:c.delta

let build_config c =
  {
    Deployment.seed = c.seed;
    n = c.n;
    delay = build_delay c;
    churn_rate = c.churn;
    churn_profile = None;
    churn_policy = c.policy;
    protect_writer = true;
    initial_value = 0;
    broadcast_mode = Network.Primitive;
    trace_enabled = c.trace;
    events_enabled = c.trace_out <> None || c.monitor || c.dot_out <> None;
    events_first_span = 0;
  }

(* The monitors the protocol's registry entry calls for (see
   Harness.monitor_config), at this run's window, liveness deadline
   and delay model. *)
let monitor_config_for (p : Protocol.t) c =
  Harness.monitor_config ?churn_window:c.churn_window ~liveness_k:c.liveness_k
    ~gst:(c.gst <> None) p ~n:c.n ~delta:c.delta

(* Every simulated front end (run with or without --shards, analyze,
   hunt, sweep --attribution) drives Harness with the same drain, so a
   hunt's repro line replays the hunter's execution exactly. *)
let spec_for ?monitor c workload =
  { Harness.horizon = c.horizon; drain = (20 * c.delta) + (4 * c.wild); workload; monitor }

(* The single-register runner, deterministic in its seed and plan. *)
let harness_runner ?monitor ?config (p : Protocol.t) c =
  let spec =
    spec_for ?monitor c (Harness.Rate { read_rate = c.read_rate; write_every = c.write_every })
  in
  let config = Option.value config ~default:(build_config c) in
  Result.map
    (fun inst ~seed plan -> Harness.run inst { config with Deployment.seed } spec plan)
    (Harness.instance p ~n:c.n ~delta:c.delta)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

(* A JSONL trace's shard-tagged events; a killed run's partial final
   line is skipped with a warning on stderr. *)
let events_of_trace path text =
  Result.map
    (fun (tagged, warnings) ->
      List.iter (fun w -> Format.eprintf "warning: %s: %s@." path w) warnings;
      tagged)
    (Export.events_of_jsonl text)

(* [dds run]: one judged run, rendered. *)
let run_single (proto : Protocol.t) c =
  let monitor = if c.monitor then Some (monitor_config_for proto c) else None in
  match harness_runner ?monitor proto c with
  | Error e -> `Error (false, e)
  | Ok go ->
    let r = go ~seed:c.seed (Option.value c.nemesis ~default:[]) in
    if c.trace then Trace.pp Format.std_formatter r.Harness.trace;
    (match c.dump_history with
    | Some path ->
      write_file path (History.to_csv r.Harness.history);
      Format.printf "history written to %s@." path
    | None -> ());
    (match c.trace_out with
    | Some path ->
      let evs = Event.events r.Harness.events in
      let contents =
        match c.trace_format with
        | "chrome" -> Json.to_string (Export.chrome_of_events evs) ^ "\n"
        | _ -> Export.jsonl_of_events evs
      in
      write_file path contents;
      Format.printf "trace written to %s (%d events, %s)@." path (List.length evs)
        c.trace_format
    | None -> ());
    (match c.metrics_out with
    | Some path ->
      write_file path (Json.to_string (Export.metrics_to_json r.Harness.snapshot) ^ "\n");
      Format.printf "metrics written to %s@." path
    | None -> ());
    (match c.dot_out with
    | Some path ->
      write_file path (Export.dot_of_events (Event.events r.Harness.events));
      Format.printf "causal graph written to %s@." path
    | None -> ());
    Summary.print ~name:proto.Protocol.name r;
    if c.monitor then begin
      Format.printf "monitors   : %d violation(s)@." (List.length r.Harness.findings);
      List.iter
        (fun v -> Format.printf "  %a@." Dds_monitor.Monitor.pp_violation v)
        r.Harness.findings
    end;
    if Regularity.is_ok r.Harness.regularity then `Ok ()
    else begin
      Format.printf "repro      : %s@." (repro_line ~protocol:proto.Protocol.name c);
      `Error (false, "safety violated")
    end

(* The sharded store path (--shards N): one skewed plan drawn up front
   and hash-routed across N independent registers, each judged by its
   own Harness run with the same monitors and nemesis plan; per-shard
   verdicts, one shard-tagged trace file. *)
let run_sharded (p : Protocol.t) c =
  let name = p.Protocol.name in
  match Harness.instance p ~n:c.n ~delta:c.delta with
  | Error e -> `Error (false, e)
  | Ok _ when c.dump_history <> None || c.dot_out <> None ->
    `Error (true, "--dump-history and --dot-out write one register's file: not with --shards")
  | Ok inst ->
    (* The plan rng is dedicated (never shared with any shard's streams,
       which derive from Shard.seed_for), so the identical plan
       re-partitions across any --shards value. *)
    let plan =
      Skew.plan ~rng:(Rng.create ~seed:c.seed)
        { (Skew.default ~keys:c.keys ~s:c.skew ~until:(time c.horizon)) with
          Skew.read_rate = c.read_rate;
          write_every = c.write_every }
    in
    let monitor = if c.monitor then Some (monitor_config_for p c) else None in
    let shards =
      Harness.run_shards inst (build_config c) ~shards:c.shards
        (spec_for ?monitor c (Harness.Plan plan))
        (Option.value c.nemesis ~default:[])
    in
    let issued = List.fold_left (fun acc (_, r) -> acc + Harness.issued r) 0 shards in
    Format.printf "protocol   : %s, sharded store: %d shard(s) x n=%d, %d keys, zipf s=%g@."
      name c.shards c.n c.keys c.skew;
    Format.printf "plan       : %d op(s) — %d issued, %d skipped (no idle process)@."
      (List.length plan) issued (List.length plan - issued);
    List.iteri
      (fun s (routed, (r : Harness.result)) ->
        let h = r.Harness.history and reg = r.Harness.regularity in
        Format.printf
          "  shard %2d : %6d routed %6d issued %5d skipped | %5d reads %4d writes done | %s@."
          s routed (Harness.issued r) (routed - Harness.issued r)
          (List.length (History.completed_reads h))
          (List.length (History.completed_writes h))
          (if Regularity.is_ok reg then "REGULAR" else "VIOLATED");
        List.iter (fun v -> Format.printf "    %a@." Regularity.pp_violation v)
          reg.Regularity.violations;
        List.iter
          (fun v -> Format.printf "    %a@." Dds_monitor.Monitor.pp_violation v)
          r.Harness.findings)
      shards;
    if c.monitor then
      Format.printf "monitors   : %d violation(s)@."
        (List.fold_left (fun acc (_, r) -> acc + List.length r.Harness.findings) 0 shards);
    (match c.trace_out with
    | Some path ->
      let tagged = Harness.tagged_events shards in
      if c.trace_format = "chrome" then
        Format.eprintf "note: sharded traces are always jsonl (shard-tagged lines)@.";
      write_file path (Export.jsonl_of_tagged_events tagged);
      Format.printf "trace written to %s (%d events, jsonl, shard-tagged)@." path
        (List.length tagged)
    | None -> ());
    (match c.metrics_out with
    | Some path ->
      let per_shard =
        List.mapi
          (fun s (_, r) ->
            Json.Obj
              [ ("shard", Json.Int s); ("metrics", Export.metrics_to_json r.Harness.snapshot) ])
          shards
      in
      write_file path (Json.to_string (Json.List per_shard) ^ "\n");
      Format.printf "metrics written to %s (one object per shard)@." path
    | None -> ());
    let all_ok = List.for_all (fun (_, r) -> Regularity.is_ok r.Harness.regularity) shards in
    Format.printf "regularity : %s (%d shard(s))@."
      (if all_ok then "REGULAR" else "VIOLATED")
      c.shards;
    if all_ok then `Ok ()
    else begin
      Format.printf "repro      : %s@." (repro_line ~protocol:name c);
      `Error (false, "safety violated")
    end

let run_protocol (p : Protocol.t) c = if c.shards > 0 then run_sharded p c else run_single p c

(* ------------------------------------------------------------------ *)
(* Cmdliner terms *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"INT" ~doc:"Deterministic run seed.")

let n_t =
  Arg.(
    value & opt int 20
    & info [ "n"; "nodes" ] ~docv:"INT" ~doc:"Constant system size.")

let delta_t =
  Arg.(value & opt int 3 & info [ "delta" ] ~docv:"TICKS" ~doc:"Message delay bound.")

let churn_t =
  Arg.(
    value
    & opt float 0.0
    & info [ "churn"; "c" ] ~docv:"RATE"
        ~doc:"Churn rate c: fraction of the system refreshed per tick.")

let policy_t =
  let parse s = Result.map_error (fun e -> `Msg e) (Churn.policy_of_string s) in
  let print ppf p = Churn.pp_policy ppf p in
  Arg.(
    value
    & opt (conv (parse, print)) Churn.Uniform
    & info [ "policy" ] ~docv:"POLICY" ~doc:"Leave policy: uniform|oldest|youngest|active.")

let horizon_t =
  Arg.(value & opt int 500 & info [ "horizon" ] ~docv:"TICKS" ~doc:"Workload horizon.")

let read_rate_t =
  Arg.(value & opt float 1.0 & info [ "read-rate" ] ~docv:"R" ~doc:"Expected reads per tick.")

let write_every_t =
  Arg.(
    value & opt int 20
    & info [ "write-every" ] ~docv:"TICKS" ~doc:"One write every this many ticks (0: never).")

(* A numeric flag narrower than its type: an out-of-range value is a
   usage error at the CLI boundary, never an exception deep in a run. *)
let checked conv ~ok ~what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S: %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~ok:(fun k -> k > 0) ~what:"must be positive"
let nonneg_int = checked Arg.int ~ok:(fun k -> k >= 0) ~what:"must not be negative"
let nonneg_float = checked Arg.float ~ok:(fun x -> x >= 0.0) ~what:"must not be negative"

let shards_t =
  Arg.(
    value & opt nonneg_int 0
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Shard the key-space across N independent register instances (each a full \
           n-node deployment with its own membership, churn and event stream, judged \
           like a single-register run: $(b,--monitor) and $(b,--nemesis) apply to every \
           shard) and drive them with a zipfian multi-key workload ($(b,--keys), \
           $(b,--skew)). The trace is always shard-tagged JSONL; $(b,--dump-history) \
           and $(b,--dot-out) do not apply. 0 (the default) is the classic \
           single-register run.")

let keys_t =
  Arg.(
    value & opt positive_int 1024
    & info [ "keys" ] ~docv:"K" ~doc:"Key-space size for the sharded workload.")

let skew_t =
  Arg.(
    value & opt nonneg_float 1.0
    & info [ "skew" ] ~docv:"S"
        ~doc:
          "Zipf exponent of the sharded workload's key popularity: 0 is uniform, ~1 the \
           classic web skew.")

let gst_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "gst" ] ~docv:"TICK"
        ~doc:"Use eventually-synchronous delays with this global stabilization time.")

let wild_t =
  Arg.(
    value & opt int 50
    & info [ "wild" ] ~docv:"TICKS" ~doc:"Pre-GST delay cap (with $(b,--gst)).")

let trace_t = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the full event trace.")

let dump_history_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dump-history" ] ~docv:"FILE" ~doc:"Write the operation history as CSV.")

let trace_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Record typed telemetry for the whole run and write it here.")

let trace_format_t =
  Arg.(
    value
    & opt (enum [ ("jsonl", "jsonl"); ("chrome", "chrome") ]) "jsonl"
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:
          "Trace file format: $(b,jsonl) (one event per line, consumed by $(b,dds inspect)) \
           or $(b,chrome) (trace_event JSON loadable in chrome://tracing / Perfetto).")

let metrics_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the final metrics snapshot (counters, gauges, histograms) as JSON.")

let monitor_t =
  Arg.(
    value & flag
    & info [ "monitor" ]
        ~doc:
          "Run the online assumption/safety monitors (churn rate, active majority, span \
           liveness, new/old inversions) against the live event stream; findings are \
           reported and recorded as violation events in the trace.")

let dot_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot-out" ] ~docv:"FILE"
        ~doc:
          "Write the causal message graph (Lamport-stamped sends/delivers) as Graphviz \
           DOT.")

let churn_window_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "churn-window" ] ~docv:"TICKS"
        ~doc:"Churn monitor's trailing window (default 3*delta).")

let liveness_k_t =
  Arg.(
    value & opt int 10
    & info [ "liveness-k" ] ~docv:"K"
        ~doc:"Liveness monitor flags operations open longer than K*delta ticks.")

let nemesis_t =
  let parse s = Result.map_error (fun e -> `Msg e) (Nemesis.of_string s) in
  Arg.(
    value
    & opt (some (conv (parse, Nemesis.pp))) None
    & info [ "nemesis" ] ~docv:"PLAN"
        ~doc:
          "Arm a fault schedule before running: $(b,;)-separated steps like \
           $(b,drop(kind=INQUIRY,p=0.1,max=5)@[10,50]), $(b,dup(copies=2)), \
           $(b,delay(extra=9)@[40,60]), $(b,corrupt()), \
           $(b,partition(a=0-4,b=5-9)@[100,150]), $(b,crash(k=2,recover=10)@120), \
           $(b,storm(k=6)@200). Every injected fault is recorded in the typed trace.")

let jobs_t =
  Arg.(
    value & opt int 0
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for $(b,sweep) and $(b,hunt): independent cells/seeds run in \
           parallel through the experiment engine with canonical-order aggregation, so \
           the output is byte-identical for any N. 0 (the default) uses the machine's \
           recommended domain count; 1 runs inline.")

let minor_heap_t =
  Arg.(
    value & opt int 0
    & info [ "minor-heap-words" ] ~docv:"WORDS"
        ~doc:
          "Minor-heap size (in words) applied via $(b,Gc.set) inside every engine domain \
           — OCaml 5 GC parameters are domain-local, so this is the only way to tune the \
           spawned workers. Sizing the nursery moves when collections happen, never what \
           jobs compute: output stays byte-identical. 0 (the default) leaves the runtime \
           default in place. The active value is recorded in the $(b,--profile) summary.")

let eprofile_t =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Profile the experiment engine: per-domain activity spans (job / idle / merge), \
           per-job GC deltas and simulator phase timers are recorded and a summary \
           (busy fraction, alloc/job, dominant cost) is printed to stderr. Off by default \
           and free when off; never changes results or stdout.")

let profile_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Write the engine profile as Chrome trace_event JSON (one lane per worker \
           domain, loadable in chrome://tracing / Perfetto) with the summary attached \
           under a top-level $(b,summary) key. Implies $(b,--profile).")

let common_t =
  let make seed n delta churn policy horizon read_rate write_every shards keys skew gst
      wild trace dump_history trace_out trace_format metrics_out monitor dot_out
      churn_window liveness_k nemesis jobs minor_heap_words eprofile profile_out =
    {
      seed; n; delta; churn; policy; horizon; read_rate; write_every; shards; keys; skew;
      gst; wild; trace; dump_history; trace_out; trace_format; metrics_out; monitor;
      dot_out; churn_window; liveness_k; nemesis; jobs; minor_heap_words; eprofile;
      profile_out;
    }
  in
  Term.(
    const make $ seed_t $ n_t $ delta_t $ churn_t $ policy_t $ horizon_t $ read_rate_t
    $ write_every_t $ shards_t $ keys_t $ skew_t $ gst_t $ wild_t $ trace_t
    $ dump_history_t $ trace_out_t $ trace_format_t $ metrics_out_t $ monitor_t
    $ dot_out_t $ churn_window_t $ liveness_k_t $ nemesis_t $ jobs_t $ minor_heap_t
    $ eprofile_t $ profile_out_t)

(* An experiment's parameters as the command line amends them: a flag
   the user gives replaces the registered value, a flag left unset
   never does, whatever its CLI default. *)
let experiment_override_t =
  let given t =
    Term.(const (fun (v, used) -> if used = [] then None else Some v) $ with_used_args t)
  in
  let make n delta horizon seed churn keys read_rate write_every (p : Experiment.params) =
    let ( |? ) o d = Option.value o ~default:d in
    {
      p with
      Experiment.n = n |? p.Experiment.n;
      delta = delta |? p.Experiment.delta;
      horizon = horizon |? p.Experiment.horizon;
      seed = seed |? p.Experiment.seed;
      churn = churn |? p.Experiment.churn;
      keys = keys |? p.Experiment.keys;
      read_rate = read_rate |? p.Experiment.read_rate;
      write_every = write_every |? p.Experiment.write_every;
    }
  in
  Term.(
    const make $ given n_t $ given delta_t $ given horizon_t $ given seed_t $ given churn_t
    $ given keys_t $ given read_rate_t $ given write_every_t)

(* One converter for every subcommand that takes a protocol: parses
   against the registry, so an unknown name is rejected at the CLI
   boundary with the registered names listed. The protocol can be
   given positionally ([dds run es ...]) or via [--proto es]; the flag
   wins when both are present. *)
let proto_conv =
  let parse s =
    match Protocol.find s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown protocol %S (registered: %s)" s
              (String.concat ", " Protocol.names)))
  in
  let print ppf (p : Protocol.t) = Format.pp_print_string ppf p.Protocol.name in
  Arg.conv (parse, print)

let proto_doc = "Register protocol: " ^ String.concat ", " Protocol.names ^ "."

let protocol_pos_t =
  Arg.(value & pos 0 (some proto_conv) None & info [] ~docv:"PROTOCOL" ~doc:proto_doc)

let protocol_flag_t =
  Arg.(
    value
    & opt (some proto_conv) None
    & info [ "proto"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:(proto_doc ^ " Alternative to the positional form."))

let resolve_protocol pos flag k =
  match (flag, pos) with
  | Some p, _ | None, Some p -> k p
  | None, None -> `Error (true, "missing protocol: give it positionally or with --proto")

(* Replay a schedule emitted by [dds check]: re-executes the recorded
   decision sequence through the same choice points and re-judges. *)
let run_replay path =
  match read_file path with
  | exception Sys_error e -> `Error (false, e)
  | text -> (
    match Dds_check.Schedule.of_string text with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
    | Ok sched -> (
      match Dds_check.Check.replay_schedule sched with
      | Error e -> `Error (false, e)
      | Ok r ->
        let cfg = sched.Dds_check.Schedule.config in
        Format.printf
          "replay     : %s nodes=%d delta=%d writes=%d reads=%d joins=%d%s drops<=%d \
           crashes<=%d@."
          cfg.Dds_check.Schedule.proto cfg.Dds_check.Schedule.nodes
          cfg.Dds_check.Schedule.delta cfg.Dds_check.Schedule.writes
          cfg.Dds_check.Schedule.reads cfg.Dds_check.Schedule.joins
          (match cfg.Dds_check.Schedule.quorum with
          | Some q -> Printf.sprintf " quorum=%d" q
          | None -> "")
          cfg.Dds_check.Schedule.drop_budget cfg.Dds_check.Schedule.crash_budget;
        Format.printf "decisions  : %d recorded (deeper points default to branch 0)@."
          r.Dds_check.Check.decisions_used;
        let reg = r.Dds_check.Check.regularity in
        Format.printf "regularity : %s (%d reads, %d joins checked; %d violations)@."
          (if Regularity.is_ok reg then "REGULAR" else "VIOLATED")
          reg.Regularity.checked_reads reg.Regularity.checked_joins
          (List.length reg.Regularity.violations);
        Format.printf "atomicity  : %d new/old inversion(s)@." r.Dds_check.Check.inversions;
        List.iter (fun l -> Format.printf "  %s@." l) r.Dds_check.Check.violations;
        if r.Dds_check.Check.violations = [] then `Ok ()
        else `Error (false, "schedule violates the specification")))

let run_cmd =
  let doc =
    "Simulate one deployment under churn and report safety and latency; or, with \
     $(b,--schedule), replay a counterexample schedule emitted by $(b,dds check)."
  in
  let schedule_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule" ] ~docv:"FILE"
          ~doc:
            "Replay this checker schedule instead of a randomized run (the file fixes \
             protocol, deployment and every scheduling/fault decision; all other flags \
             are ignored).")
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const (fun schedule pos flag c ->
             match schedule with
             | Some path -> run_replay path
             | None -> resolve_protocol pos flag (fun p -> run_protocol p c))
        $ schedule_t $ protocol_pos_t $ protocol_flag_t $ common_t))

(* analyze *)

(* Runs a deployment like [run] does, then writes per-tick series
   (|A(tau)|, present count) as CSV for external plotting. *)
let run_analyze (proto : Protocol.t) out c =
  match harness_runner proto c with
  | Error e -> `Error (false, e)
  | Ok go ->
    let analysis = (go ~seed:c.seed []).Harness.analysis in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "tick,active,present\n";
    List.iter
      (fun (tau, active) ->
        Buffer.add_string buf
          (Printf.sprintf "%d,%d,%d\n" (Time.to_int tau) active
             (Analysis.present_at analysis tau)))
      (Analysis.series_active analysis ~from_:Time.zero ~until:(time c.horizon));
    write_file out (Buffer.contents buf);
    Format.printf "series written to %s (%d ticks)@." out c.horizon;
    `Ok ()

let analyze_cmd =
  let doc = "Run a deployment and dump per-tick |A(tau)| / present-count series as CSV." in
  let out_t =
    Arg.(
      value & opt string "series.csv"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"CSV output path.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      ret
        (const (fun pos flag o c -> resolve_protocol pos flag (fun p -> run_analyze p o c))
        $ protocol_pos_t $ protocol_flag_t $ out_t $ common_t))

(* sweep *)

(* Experiment ids, E-numbers and aliases all resolve through the
   registry. *)
let experiment_doc =
  "One of: "
  ^ String.concat ", " (List.map (fun e -> e.Experiment.id) Experiment.all)
  ^ " — or an E-number or alias (see $(b,dds list))."

(* One engine pool per sweep/hunt/check invocation. The summary (and
   the optional metrics dump notice) goes to stderr: stdout must stay
   byte-identical across worker counts, and CI diffs it. *)
let with_engine' ?(profile = false) ?profile_out ?(minor_heap_words = 0) ~jobs ~metrics_out f =
  let jobs = if jobs <= 0 then Dds_engine.Pool.default_jobs () else jobs in
  let recorder =
    if profile || profile_out <> None then
      Some (Dds_profile.Profile.create ~workers:jobs ())
    else None
  in
  Dds_engine.Pool.with_pool ~jobs
    ?minor_heap_words:(if minor_heap_words > 0 then Some minor_heap_words else None)
    ?profile:recorder (fun pool ->
      let r = f pool in
      let stats = Dds_engine.Pool.stats pool in
      let cells = List.fold_left (fun a s -> a + s.Dds_engine.Pool.ws_jobs) 0 stats in
      Format.eprintf "engine     : %d worker(s), %d job(s), %.2fs wall@."
        (Dds_engine.Pool.jobs pool) cells (Dds_engine.Pool.wall_s pool);
      (match metrics_out with
      | Some path ->
        write_file path
          (Json.to_string
             (Export.metrics_to_json (Metrics.snapshot (Dds_engine.Pool.metrics pool)))
          ^ "\n");
        Format.eprintf "engine metrics written to %s@." path
      | None -> ());
      (match recorder with
      | Some rec_ ->
        (* Like the engine line: profile output is stderr-only, stdout
           stays byte-identical with profiling on or off. *)
        Format.eprintf "%a@." Dds_profile.Profile.pp_summary
          (Dds_profile.Profile.summary rec_);
        (match profile_out with
        | Some path ->
          write_file path (Json.to_string (Dds_profile.Profile.to_json rec_) ^ "\n");
          Format.eprintf "engine profile written to %s@." path
        | None -> ())
      | None -> ());
      r)

let with_engine c f =
  with_engine' ~profile:c.eprofile ?profile_out:c.profile_out
    ~minor_heap_words:c.minor_heap_words ~jobs:c.jobs ~metrics_out:c.metrics_out f

(* ------------------------------------------------------------------ *)
(* Latency attribution (lib/causal), shared by explain / sweep
   --attribution / inspect / audit. *)

(* The aggregate table: one p50 and one p99 row per op kind, a column
   per attributed phase. Per-op phase values sum exactly to that op's
   latency; percentiles are taken per column, so the rows here need
   not (p50s of parts don't sum to the p50 of the whole). *)
let attribution_table title (r : Causal.report) =
  let rows =
    List.concat_map
      (fun (og : Causal.op_agg) ->
        let row pct lat sel =
          [ Event.op_kind_to_string og.Causal.og_op; Report.cell_int og.Causal.og_count; pct ]
          @ List.map (fun (p : Causal.phase_agg) -> Report.cell_int (sel p)) og.Causal.og_phases
          @ [ Report.cell_int lat ]
        in
        [
          row "p50" og.Causal.og_lat_p50 (fun p -> p.Causal.pa_p50);
          row "p99" og.Causal.og_lat_p99 (fun p -> p.Causal.pa_p99);
        ])
      r.Causal.r_aggregate
  in
  Report.make ~title
    ~headers:
      ([ "op"; "n"; "pct" ]
      @ List.map Causal.seg_kind_to_string Causal.all_seg_kinds
      @ [ "latency" ])
    rows

(* One representative monitored-config run of a protocol with the sink
   enabled, analyzed in-process — what `dds sweep --attribution`
   appends per registered protocol. Sequential and pool-free, so the
   extra output is byte-identical at any --jobs. *)
let attribution_report (p : Protocol.t) c =
  Result.map
    (fun go ->
      Causal.analyze ~bound:(c.liveness_k * c.delta)
        (Event.events (go ~seed:c.seed []).Harness.events))
    (harness_runner ~config:{ (build_config c) with Deployment.events_enabled = true } p c)

let print_attribution c =
  List.iter
    (fun (p : Protocol.t) ->
      match attribution_report p c with
      | Error e -> Format.printf "attribution: %s skipped (%s)@." p.Protocol.name e
      | Ok r ->
        Report.print
          (attribution_table
             (Printf.sprintf "latency attribution — %s (n=%d delta=%d c=%g seed=%d, ticks)"
                p.Protocol.name c.n c.delta c.churn c.seed)
             r);
        (match r.Causal.r_over_bound with
        | [] -> ()
        | over ->
          Format.printf "  %d op(s) over the %d-tick bound: %s@." (List.length over)
            (c.liveness_k * c.delta)
            (String.concat ", "
               (List.map (fun (a : Causal.attribution) -> string_of_int a.Causal.a_span) over))))
    Protocol.all

(* The experiment's registered parameters, with each flag the user
   actually passed in place of its field. *)
let run_sweep name attribution override c =
  match Experiment.find name with
  | Error e -> `Error (true, e)
  | Ok e ->
    with_engine c (fun pool ->
        List.iter Report.print (e.Experiment.run ~pool (override e.Experiment.defaults)));
    if attribution then print_attribution c;
    `Ok ()

(* inspect *)

(* Per-phase latency table for one operation kind: each phase segment
   (see Export.phase_durations) gets its own row, plus a total row. *)
let inspect_op_table spans op =
  let of_kind =
    List.filter
      (fun (s : Export.span) -> s.Export.op = op && s.Export.outcome = Event.Completed)
      spans
  in
  if of_kind = [] then None
  else begin
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun s ->
        List.iter
          (fun (phase, ticks) ->
            let st =
              match Hashtbl.find_opt tbl phase with
              | Some st -> st
              | None ->
                let st = Stats.create () in
                Hashtbl.add tbl phase st;
                order := phase :: !order;
                st
            in
            Stats.add_int st ticks)
          (Export.phase_durations s))
      of_kind;
    let total = Stats.create () in
    List.iter
      (fun (s : Export.span) -> Stats.add_int total (Time.diff s.Export.ended s.Export.started))
      of_kind;
    let row label st =
      [
        label;
        Report.cell_int (Stats.count st);
        Report.cell_float (Stats.median st);
        Report.cell_float (Stats.percentile st 99.0);
        Report.cell_float (Stats.max_value st);
      ]
    in
    let rows = List.rev_map (fun phase -> row phase (Hashtbl.find tbl phase)) !order in
    Some
      (Report.make
         ~title:(Printf.sprintf "%s latency by phase (ticks)" (Event.op_kind_to_string op))
         ~headers:[ "phase"; "n"; "p50"; "p99"; "max" ]
         (rows @ [ row "total" total ]))
  end

(* A `--metrics-out` snapshot, made human-readable: the per-worker
   engine gauges fold into one table instead of a wall of
   `engine.w3.busy_s` lines; everything else prints as-is. *)
let inspect_metrics path j =
  let fields name = match Json.member name j with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let counters = fields "counters" in
  let gauges = fields "gauges" in
  let histograms = fields "histograms" in
  Format.printf "%s: metrics snapshot — %d counter(s), %d gauge(s), %d histogram(s)@." path
    (List.length counters) (List.length gauges) (List.length histograms);
  if counters <> [] then
    Report.print
      (Report.make ~title:"counters" ~headers:[ "counter"; "value" ]
         (List.map
            (fun (k, v) ->
              [ k; (match Json.to_int_opt v with Some i -> Report.cell_int i | None -> "?") ])
            counters));
  (* Fold engine.w<i>.<field> gauges into a per-worker table. *)
  let worker_field k =
    match Scanf.sscanf k "engine.w%d.%s" (fun w f -> (w, f)) with
    | pair -> Some pair
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> None
  in
  let per_worker = Hashtbl.create 8 in
  let plain =
    List.filter
      (fun (k, v) ->
        match worker_field k with
        | Some (w, f) ->
          let row =
            match Hashtbl.find_opt per_worker w with
            | Some row -> row
            | None ->
              let row = Hashtbl.create 4 in
              Hashtbl.add per_worker w row;
              row
          in
          Hashtbl.replace row f (Option.value ~default:Float.nan (Json.to_float_opt v));
          false
        | None -> true)
      gauges
  in
  if Hashtbl.length per_worker > 0 then begin
    let workers = List.sort compare (Hashtbl.fold (fun w _ acc -> w :: acc) per_worker []) in
    let cell row f fmt =
      match Hashtbl.find_opt row f with
      | Some v when not (Float.is_nan v) -> fmt v
      | _ -> "-"
    in
    Report.print
      (Report.make ~title:"engine workers"
         ~headers:[ "worker"; "jobs"; "busy_s" ]
         (List.map
            (fun w ->
              let row = Hashtbl.find per_worker w in
              [
                string_of_int w;
                cell row "jobs" (fun v -> Report.cell_int (int_of_float v));
                cell row "busy_s" Report.cell_float;
              ])
            workers))
  end;
  if plain <> [] then
    Report.print
      (Report.make ~title:"gauges" ~headers:[ "gauge"; "value" ]
         (List.map
            (fun (k, v) ->
              [
                k;
                (match Json.to_float_opt v with Some f -> Report.cell_float f | None -> "?");
              ])
            plain));
  List.iter
    (fun (k, h) ->
      match (Json.member "count" h, Json.member "sum" h) with
      | Some count, Some sum ->
        Format.printf "histogram  : %s n=%s sum=%s@." k
          (match Json.to_int_opt count with Some i -> string_of_int i | None -> "?")
          (match Json.to_float_opt sum with Some f -> Printf.sprintf "%g" f | None -> "?")
      | _ -> Format.printf "histogram  : %s@." k)
    histograms;
  `Ok ()

(* A `--profile-out` file: echo the embedded summary without
   re-deriving it, plus the lane count from the trace itself. *)
let inspect_engine_profile path j =
  let events =
    match Json.member "traceEvents" j with Some (Json.List evs) -> evs | _ -> []
  in
  let summary = Json.member "summary" j in
  Format.printf "%s: engine profile — %d trace event(s)@." path (List.length events);
  (match summary with
  | None -> ()
  | Some s ->
    let str name = Option.bind (Json.member name s) Json.to_string_opt in
    let num name = Option.bind (Json.member name s) Json.to_float_opt in
    let int name = Option.bind (Json.member name s) Json.to_int_opt in
    (match (num "wall_s", int "jobs", num "busy_fraction") with
    | Some w, Some jobs, Some busy ->
      Format.printf "profile    : %d job(s), %.3fs wall, %.0f%% busy@." jobs w (100.0 *. busy)
    | _ -> ());
    (match (num "minor_words_per_job", num "minor_words") with
    | Some per, Some total ->
      Format.printf "alloc      : %.3g minor words/job (%.3g total)@." per total
    | _ -> ());
    (match Json.member "workers" s with
    | Some (Json.List ws) ->
      Report.print
        (Report.make ~title:"engine workers"
           ~headers:[ "worker"; "jobs"; "busy_s"; "idle_s"; "busy%" ]
           (List.map
              (fun w ->
                let wint name = Option.bind (Json.member name w) Json.to_int_opt in
                let wnum name = Option.bind (Json.member name w) Json.to_float_opt in
                let i name = match wint name with Some v -> Report.cell_int v | None -> "-" in
                let f name = match wnum name with Some v -> Report.cell_float v | None -> "-" in
                let pct name =
                  match wnum name with
                  | Some v -> Printf.sprintf "%.0f" (100.0 *. v)
                  | None -> "-"
                in
                [ i "id"; i "jobs"; f "busy_s"; f "idle_s"; pct "busy_fraction" ])
              ws))
    | _ -> ());
    (match str "dominant" with
    | Some d when d <> "" -> Format.printf "dominant   : %s@." d
    | _ -> ()));
  `Ok ()

let run_inspect path =
  match read_file path with
  | exception Sys_error e -> `Error (false, e)
  | text ->
  (* Format auto-detection: an engine profile is a chrome object with
     our summary attached; a metrics snapshot has counters/gauges; any
     other chrome trace is one JSON object with a traceEvents array;
     anything else is treated as JSONL (parsed leniently — a run
     killed mid-write leaves a partial last line, which should cost a
     warning, not the whole summary). *)
  match Json.parse text with
  | Ok j when Json.member "traceEvents" j <> None && Json.member "summary" j <> None ->
    inspect_engine_profile path j
  | Ok j when Json.member "counters" j <> None && Json.member "gauges" j <> None ->
    inspect_metrics path j
  | parse_result ->
  let parsed =
    match parse_result with
    | Ok j when Json.member "traceEvents" j <> None -> Export.events_of_chrome j
    | Ok _ | Error _ -> Result.map (List.map snd) (events_of_trace path text)
  in
  match parsed with
  | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
  | Ok evs ->
    let spans, orphans = Export.spans_of_events evs in
    Format.printf "%s: %d events, %d completed spans@." path (List.length evs)
      (List.length spans);
    List.iter
      (fun op ->
        match inspect_op_table spans op with Some t -> Report.print t | None -> ())
      [ Event.Join; Event.Read; Event.Write ];
    (* Message mix: point-to-point copies per wire kind. *)
    let mix = Hashtbl.create 8 in
    let sends = ref 0 in
    let delivered = ref 0 in
    let dropped = ref 0 in
    List.iter
      (fun { Event.ev; _ } ->
        match ev with
        | Event.Send { kind; _ } ->
          incr sends;
          Hashtbl.replace mix kind (1 + Option.value ~default:0 (Hashtbl.find_opt mix kind))
        | Event.Deliver _ -> incr delivered
        | Event.Drop _ -> incr dropped
        | _ -> ())
      evs;
    if !sends > 0 then begin
      let rows =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) mix []
        |> List.sort compare
        |> List.map (fun (k, v) ->
               [
                 k;
                 Report.cell_int v;
                 Report.cell_float (100.0 *. float_of_int v /. float_of_int !sends);
               ])
      in
      Report.print
        (Report.make ~title:"message mix" ~headers:[ "kind"; "sends"; "%" ] rows);
      Format.printf "delivery   : %d sent, %d delivered, %d dropped@." !sends !delivered
        !dropped
    end;
    (* Churn timeline. *)
    let joins = ref 0 and leaves = ref 0 in
    List.iter
      (fun { Event.at; ev } ->
        match ev with
        | Event.Node_join { node } ->
          incr joins;
          Format.printf "churn      : %a join p%d@." Time.pp at node
        | Event.Node_leave { node } ->
          incr leaves;
          Format.printf "churn      : %a leave p%d@." Time.pp at node
        | Event.Gst_reached -> Format.printf "gst        : reached at %a@." Time.pp at
        | _ -> ())
      evs;
    Format.printf "churn      : %d joins, %d leaves@." !joins !leaves;
    (* Slowest ops with causes — the causal analyzer's gating chains.
       (A chrome round-trip has no Send/Deliver record, so there the
       paths degrade to local waiting; `dds explain` on the JSONL
       original gives the full decomposition.) *)
    let slow = Causal.slowest (Causal.analyze evs) 3 in
    if slow <> [] then begin
      Format.printf "@.slowest ops with causes:@.";
      List.iter (fun a -> Format.printf "%a" Causal.pp_attribution a) slow
    end;
    if orphans <> [] then
      Format.printf "orphans    : %d span(s) still open at end of trace: %s@."
        (List.length orphans)
        (String.concat ", " (List.map string_of_int orphans));
    `Ok ()

let inspect_cmd =
  let doc =
    "Summarize a trace produced by $(b,dds run --trace-out) (JSONL or chrome format, \
     auto-detected)."
  in
  let file_t =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  Cmd.v (Cmd.info "inspect" ~doc) Term.(ret (const run_inspect $ file_t))

(* explain *)

(* Causal critical-path analysis of an exported JSONL trace: where did
   each operation's latency go? Needs the Send/Deliver record (chrome
   exports drop it), so this consumes JSONL only — leniently, like
   inspect/audit, because a killed run leaves a partial last line. *)
let run_explain path op_span top delta bound_k json_out chrome_out =
  match read_file path with
  | exception Sys_error e -> `Error (false, e)
  | text -> (
    match events_of_trace path text with
    | Error e -> `Error (false, Printf.sprintf "%s: %s" path e)
    | Ok tagged ->
      let evs = List.map snd tagged in
      let bound = bound_k * delta in
      let r = Causal.analyze ~bound evs in
      (match json_out with
      | Some out ->
        write_file out (Json.to_string (Causal.report_to_json r) ^ "\n");
        Format.printf "attribution report written to %s@." out
      | None -> ());
      (match chrome_out with
      | Some out ->
        write_file out (Json.to_string (Causal.chrome_of_report r) ^ "\n");
        Format.printf "path lanes written to %s@." out
      | None -> ());
      (match op_span with
      | Some span -> (
        match Causal.find_op r span with
        | Some a ->
          Format.printf "%a" Causal.pp_attribution a;
          `Ok ()
        | None ->
          `Error
            ( false,
              Printf.sprintf "span %d not among the %d completed op(s) in %s" span
                (List.length r.Causal.r_ops) path ))
      | None ->
        Format.printf "%s: %d events, %d attributed op(s), bound k*delta = %d*%d = %d@." path
          r.Causal.r_events (List.length r.Causal.r_ops) bound_k delta bound;
        if r.Causal.r_ops = [] then begin
          Format.printf "no completed operation spans — nothing to attribute@.";
          `Ok ()
        end
        else begin
          Report.print (attribution_table "latency attribution (ticks)" r);
          let slow = Causal.slowest r top in
          Format.printf "@.slowest %d op(s) with causes:@." (List.length slow);
          List.iter (fun a -> Format.printf "%a" Causal.pp_attribution a) slow;
          (match r.Causal.r_over_bound with
          | [] -> Format.printf "@.bound      : every op within %d ticks@." bound
          | over ->
            Format.printf "@.bound      : %d op(s) over %d ticks: %s@." (List.length over)
              bound
              (String.concat ", "
                 (List.map
                    (fun (a : Causal.attribution) ->
                      Printf.sprintf "#%d (%d)" a.Causal.a_span a.Causal.a_latency)
                    over));
            (* Each violation's critical path is its machine-checkable
               witness; print the ones the slowest-K section above
               didn't already show. *)
            List.iter
              (fun (a : Causal.attribution) ->
                if
                  not
                    (List.exists
                       (fun (s : Causal.attribution) -> s.Causal.a_span = a.Causal.a_span)
                       slow)
                then Format.printf "%a" Causal.pp_attribution a)
              over);
          if r.Causal.r_orphans <> [] then
            Format.printf "orphans    : %d span(s) never completed: %s@."
              (List.length r.Causal.r_orphans)
              (String.concat ", " (List.map string_of_int r.Causal.r_orphans));
          `Ok ()
        end))

let explain_cmd =
  let doc =
    "Causal critical-path analysis of a JSONL trace from $(b,dds run --trace-out): \
     reconstructs the happens-before DAG from the Lamport-stamped Send/Deliver record, \
     walks each operation's gating chain from $(b,Op_start) to $(b,Op_end), and \
     decomposes its latency into compute / transit / quorum / timer / retry phases that \
     sum exactly to the span latency — naming the quorum straggler and flagging ops over \
     the k*delta bound with their path as witness."
  in
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"JSONL trace file.")
  in
  let op_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "op" ] ~docv:"SPAN" ~doc:"Explain just this operation span id.")
  in
  let top_t =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K" ~doc:"How many slowest ops to render with full paths.")
  in
  let delta_t =
    Arg.(
      value & opt int 3
      & info [ "delta" ] ~docv:"TICKS"
          ~doc:"The run's message-delay bound (must match to make the k*delta bound right).")
  in
  let bound_k_t =
    Arg.(
      value & opt int 10
      & info [ "bound-k" ] ~docv:"K"
          ~doc:"Flag ops slower than K*delta ticks (same default as the liveness monitor).")
  in
  let json_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "json-out" ] ~docv:"FILE"
          ~doc:
            "Write the attribution report as JSON (per-op phases + paths + stragglers, \
             aggregate percentiles, bound violations).")
  in
  let chrome_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Write per-op critical-path lanes as Chrome trace_event JSON (one lane per \
             op, one slice per path segment; loadable in chrome://tracing / Perfetto).")
  in
  Cmd.v
    (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const run_explain $ file_t $ op_t $ top_t $ delta_t $ bound_k_t $ json_out_t
       $ chrome_out_t))

(* audit *)

(* The per-shard audit of a tagged trace: each shard is an independent
   register, so monitors and the regularity checker run once per tag —
   auditing the mixed timeline as one register would interleave
   different keys' writes and report nonsense. *)
let audit_sharded (proto : Protocol.t) initial merged_out c path
    (tagged : (int option * Event.stamped) list) =
  let tags =
    List.sort_uniq compare (List.map (fun (s, _) -> Option.value s ~default:(-1)) tagged)
  in
  Format.printf "%s: %d events audited across %d shard(s) (%s monitors, n=%d, delta=%d)@."
    path (List.length tagged) (List.length tags) proto.Protocol.name c.n c.delta;
  (match merged_out with
  | Some out ->
    write_file out (Export.jsonl_of_tagged_events tagged);
    Format.printf "merged     : shard-tagged trace -> %s@." out
  | None -> ());
  let verdict tag =
    let evs =
      List.filter_map
        (fun (s, ev) -> if Option.value s ~default:(-1) = tag then Some ev else None)
        tagged
    in
    let a = Harness.audit (monitor_config_for proto c) ~initial evs in
    let report = a.Harness.regularity in
    Format.printf "  shard %s : %s (%d events; %d reads, %d joins checked; %d monitor \
                   violation(s))@."
      (if tag < 0 then "?" else string_of_int tag)
      (if Regularity.is_ok report then "REGULAR" else "VIOLATED")
      (List.length evs) report.Regularity.checked_reads report.Regularity.checked_joins
      (List.length a.Harness.findings);
    List.iter
      (fun v -> Format.printf "    %a@." Regularity.pp_violation v)
      report.Regularity.violations;
    List.iter
      (fun v -> Format.printf "    %a@." Dds_monitor.Monitor.pp_violation v)
      a.Harness.findings;
    a.Harness.findings = [] && Regularity.is_ok report
  in
  let all_ok = List.for_all Fun.id (List.map verdict tags) in
  Format.printf "regularity : %s (%d shard(s))@."
    (if all_ok then "REGULAR" else "VIOLATED")
    (List.length tags);
  if all_ok then `Ok () else `Error (false, "audit found violations")

(* Replays exported JSONL traces through the streaming monitors and the
   regularity checker, offline: everything the in-process checkers see
   is reconstructed from the trace alone (span payloads, Lamport
   stamps, membership events). Exits non-zero when anything fired. *)
let run_audit paths (proto : Protocol.t) initial merged_out c =
  (* A shard-tagged line carries its register's index; a plain trace
     has no tags and parses to all-None. The one reader keeps shard
     tags AND tolerates the partial final line of a killed live node,
     so truncation can never collapse a multi-shard trace into one
     register. *)
  let parse path =
    match read_file path with
    | exception Sys_error e -> Error e
    | text -> Result.map_error (Printf.sprintf "%s: %s" path) (events_of_trace path text)
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
      match parse p with Ok evs -> collect (evs :: acc) rest | Error e -> Error e)
  in
  match collect [] paths with
  | Error e -> `Error (false, e)
  | Ok per_file ->
    (* A live deployment writes one trace per node; a stable merge on
       the shared timestamp reconstructs the single trace the simulator
       would have produced (span ids are globally unique already — each
       node offsets its own by pid * 1_000_000). *)
    let tagged_evs = Export.merge_tagged per_file in
    let path = String.concat "+" paths in
    if List.exists (fun (s, _) -> s <> None) tagged_evs then
      audit_sharded proto initial merged_out c path tagged_evs
    else begin
      let evs = List.map snd tagged_evs in
      let cfg = monitor_config_for proto c in
      let a = Harness.audit cfg ~initial evs in
      let violations = a.Harness.findings and report = a.Harness.regularity in
      Format.printf "%s: %d events audited (%s monitors, n=%d, delta=%d)@." path
        (List.length evs) proto.Protocol.name c.n c.delta;
      (match merged_out with
      | Some out ->
        write_file out (Export.jsonl_of_events evs);
        Format.printf "merged     : %d file(s) -> %s@." (List.length per_file) out
      | None -> ());
      (match cfg.Dds_monitor.Monitor.churn_bound with
      | Some b -> Format.printf "churn bound: %.5f per tick@." b
      | None -> Format.printf "churn bound: none@.");
      if violations = [] then Format.printf "monitors   : no violations@."
      else begin
        Format.printf "monitors   : %d violation(s)@." (List.length violations);
        List.iter
          (fun v -> Format.printf "  %a@." Dds_monitor.Monitor.pp_violation v)
          violations
      end;
      let orphans = Event.unclosed_spans evs in
      if orphans <> [] then
        Format.printf "unclosed   : %d span(s) still open at end of trace: %s@."
          (List.length orphans)
          (String.concat ", " (List.map string_of_int orphans));
      Format.printf "regularity : %s (%d reads, %d joins checked; %d violations)@."
        (if Regularity.is_ok report then "REGULAR" else "VIOLATED")
        report.Regularity.checked_reads report.Regularity.checked_joins
        (List.length report.Regularity.violations);
      List.iter
        (fun v -> Format.printf "  %a@." Regularity.pp_violation v)
        report.Regularity.violations;
      (* Slowest ops with causes, plus a critical-path witness for
         every span the liveness monitor flagged (when the span did
         complete in-trace; one still open at the end has no path). *)
      let causal = Causal.analyze ~bound:(c.liveness_k * c.delta) evs in
      let slow = Causal.slowest causal 3 in
      if slow <> [] then begin
        Format.printf "slowest ops with causes:@.";
        List.iter (fun a -> Format.printf "%a" Causal.pp_attribution a) slow
      end;
      List.iter
        (fun span ->
          match Causal.find_op causal span with
          | Some a ->
            Format.printf "liveness witness (span %d):@.%a" span Causal.pp_attribution a
          | None ->
            Format.printf "liveness witness (span %d): op still open at end of trace@." span)
        a.Harness.overdue;
      (match c.dot_out with
      | Some out ->
        write_file out (Export.dot_of_events evs);
        Format.printf "causal graph written to %s@." out
      | None -> ());
      if violations = [] && Regularity.is_ok report then `Ok ()
      else `Error (false, "audit found violations")
    end

let audit_cmd =
  let doc =
    "Replay one or more JSONL traces through the assumption/safety monitors (churn rate \
     vs the protocol's admissible bound, active majority, span liveness, new/old \
     inversions) and the regularity checker. Multiple files (one per live node from \
     $(b,dds serve --trace-out)) are stable-merged on their shared time line first; \
     wire traces are stamped in milliseconds, so pass $(b,--delta) in ms there (the \
     runtime's 1 tick = 1 ms convention). Exits non-zero if anything fired."
  in
  let files_t =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "JSONL trace file(s). Several files — e.g. one per node of a live \
             deployment — are merged by timestamp before auditing.")
  in
  let merged_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "merged-out" ] ~docv:"FILE"
          ~doc:
            "Write the merged, time-sorted trace as JSONL (feed it to $(b,dds explain) \
             or $(b,dds inspect), which consume a single file).")
  in
  let proto_t =
    Arg.(
      value
      & opt proto_conv (Protocol.find_exn "sync")
      & info [ "proto"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:
            ("Protocol the trace came from — selects which assumption bounds apply (churn \
              bound, active majority, GST-clocked liveness) from the registry. "
            ^ proto_doc))
  in
  let initial_t =
    Arg.(
      value & opt int 0
      & info [ "initial" ] ~docv:"INT"
          ~doc:
            "The register's initial value (not recorded in the trace); must match the \
             run's configuration for the regularity verdict to be meaningful.")
  in
  Cmd.v
    (Cmd.info "audit" ~doc)
    Term.(ret (const run_audit $ files_t $ proto_t $ initial_t $ merged_out_t $ common_t))

(* serve / client / load *)

(* The Unix runtime backend (lib/runtime_unix): the registry's protocol
   state machines, unchanged, run over TCP instead of the simulator.
   Convention: 1 simulator tick = 1 ms. --delta-ms is the message-delay
   bound the deployment assumes, live traces are stamped in
   milliseconds since --epoch (all nodes of one deployment must share
   it; default is today's midnight UTC, so same-day processes agree
   without coordination), and `dds audit`/`dds explain` consume the
   traces unchanged with --delta given in ms. *)

module Runix = Dds_runtime_unix

let parse_peers s =
  match
    List.map
      (fun part ->
        match String.rindex_opt part ':' with
        | Some i ->
          let host = String.sub part 0 i in
          let port = int_of_string (String.sub part (i + 1) (String.length part - i - 1)) in
          ((if host = "" then "127.0.0.1" else host), port)
        | None -> failwith part)
      (String.split_on_char ',' s)
  with
  | addrs -> Ok (Array.of_list addrs)
  | exception _ ->
    Error (Printf.sprintf "cannot parse %S (expected HOST:PORT[,HOST:PORT...])" s)

let peers_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "peers" ] ~docv:"ADDRS"
        ~doc:
          "The whole mesh as HOST:PORT,HOST:PORT,... — order matters: position in the \
           list is the node's pid, and every node of one deployment must be given the \
           identical list.")

(* The keyed-store placement flags, shared verbatim by serve and load:
   both sides of a deployment must quote the identical map, exactly
   like --peers. *)
let serve_shards_t =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"N"
        ~doc:
          "Size of the key space partition: keys route to shard \
           $(b,SplitMix64(key) mod N), each shard an independent register. 1 (the \
           default) is the classic single-register deployment.")

let serve_owned_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "owned" ] ~docv:"SPEC"
        ~doc:
          "Static placement map as per-node shard groups: $(b,a,b;c;a,c) gives node 0 \
           shards {a,b}, node 1 {c}, node 2 {a,c} (order = --peers order). A single \
           group without $(b,;) replicates to every node; omitting the flag means every \
           node owns every shard. Every process of one deployment (and dds load/client) \
           must be given the identical spec.")

let run_serve (proto : Protocol.t) id peers shards owned join initial delta_ms epoch
    quorum trace_out metrics_out =
  match parse_peers peers with
  | Error e -> `Error (false, e)
  | Ok addrs -> (
    let n = Array.length addrs in
    if id < 0 || id >= n then
      `Error (false, Printf.sprintf "--id %d out of range [0, %d)" id n)
    else
      match Runix.Placement.make ~nodes:n ~shards ~spec:owned with
      | Error e -> `Error (false, e)
      | Ok placement -> (
        let module R = (val proto.Protocol.runner : Protocol.RUNNER) in
        (* One protocol instance per owned shard; each shard's group is
           its owner set, so its params (quorum size, churn bound) are
           derived from the owner count, not the mesh size. *)
        let owned_here = Runix.Placement.owned placement id in
        let resolved =
          List.fold_left
            (fun acc shard ->
              match acc with
              | Error _ -> acc
              | Ok ps -> (
                let group = List.length (Runix.Placement.owners placement shard) in
                match R.params { Protocol.n = group; delta = delta_ms; quorum } with
                | Error e -> Error (Printf.sprintf "shard %d: %s" shard e)
                | Ok p -> Ok ((shard, p) :: ps)))
            (Ok []) owned_here
        in
        match resolved with
        | Error e -> `Error (false, e)
        | Ok params_alist ->
          let module S = Runix.Store.Make (R.D.Protocol) in
          let loop = Runix.Loop.create () in
          let epoch_ms =
            match epoch with Some e -> e | None -> Runix.Store.default_epoch_ms ()
          in
          let cfg =
            {
              Runix.Store.self = id;
              addrs;
              placement;
              join;
              initial_value = initial;
              epoch_ms;
              events_enabled = trace_out <> None;
              trace_path = trace_out;
              listen_fd = None;
            }
          in
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          let store = S.create ~loop cfg (fun shard -> List.assoc shard params_alist) in
          let quit = ref false in
          let stop (_ : int) = quit := true in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          let host, port = addrs.(id) in
          Format.printf "%s node %d/%d on %s:%d (%s; delta = %d ms; epoch = %.0f)@."
            proto.Protocol.name id n host port
            (if join then "joining" else "founding")
            delta_ms epoch_ms;
          if Runix.Placement.shards placement > 1 then
            Format.printf "shards     : %d total, hosting [%s] (placement %s)@."
              (Runix.Placement.shards placement)
              (String.concat "," (List.map string_of_int owned_here))
              (Runix.Placement.to_string placement);
          (match trace_out with
          | Some path ->
            Format.printf "trace      : %s@." path;
            Format.printf
              "audit with : dds audit <every node's trace> --proto %s --nodes %d --delta \
               %d@."
              proto.Protocol.name n delta_ms
          | None -> ());
          Format.pp_print_flush Format.std_formatter ();
          Runix.Loop.run_while loop (fun () -> not !quit);
          S.shutdown store;
          (match metrics_out with
          | Some out ->
            write_file out
              (Json.to_string (Export.metrics_to_json (Metrics.snapshot (S.metrics store)))
              ^ "\n")
          | None -> ());
          `Ok ()))

let serve_cmd =
  let doc =
    "Run one live register node over TCP. Start one $(b,dds serve) process per entry \
     in $(b,--peers) (same list, same $(b,--delta-ms), same $(b,--epoch) everywhere); \
     the processes dial each other into a full mesh and serve client reads/writes. \
     Stop with SIGTERM/SIGINT (crash-stop = kill -9). With $(b,--trace-out) each node \
     streams the same Lamport-stamped JSONL event stream the simulator records, \
     stamped in ms (1 tick = 1 ms), ready for $(b,dds audit)."
  in
  let proto_pos_t =
    Arg.(
      required & pos 0 (some proto_conv) None & info [] ~docv:"PROTOCOL" ~doc:proto_doc)
  in
  let shards_t = serve_shards_t in
  let owned_t = serve_owned_t in
  let id_t =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"I" ~doc:"This node's index (pid) into the --peers list.")
  in
  let join_t =
    Arg.(
      value & flag
      & info [ "join" ]
          ~doc:
            "Enter through the protocol's join operation instead of founding: the node \
             waits for links to a majority of the mesh, runs join (INQUIRY round / \
             quorum wait), and only then serves. Default: founding member, active \
             immediately with --initial.")
  in
  let initial_t =
    Arg.(
      value & opt int 0
      & info [ "initial" ] ~docv:"INT" ~doc:"Founding members' initial register value.")
  in
  let delta_ms_t =
    Arg.(
      value & opt int 50
      & info [ "delta-ms" ] ~docv:"MS"
          ~doc:
            "The deployment's assumed message-delay bound in milliseconds (the \
             simulator's delta, under 1 tick = 1 ms). Drives the sync protocol's \
             timer waits; quote the same value to dds audit --delta.")
  in
  let epoch_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "epoch" ] ~docv:"UNIX_MS"
          ~doc:
            "Shared time origin (unix epoch milliseconds). Defaults to today's \
             midnight UTC — fine when all nodes start the same UTC day; pass an \
             explicit value for deployments that straddle midnight.")
  in
  let quorum_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "quorum" ] ~docv:"Q" ~doc:"Override the quorum size (es only).")
  in
  let trace_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE" ~doc:"Stream this node's events as JSONL.")
  in
  let metrics_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"On shutdown, write this node's counters as JSON.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run_serve $ proto_pos_t $ id_t $ peers_t $ shards_t $ owned_t $ join_t
       $ initial_t $ delta_ms_t $ epoch_t $ quorum_t $ trace_out_t $ metrics_out_t))

let run_client addr op datum key =
  match parse_peers addr with
  | Error e -> `Error (false, e)
  | Ok addrs when Array.length addrs <> 1 -> `Error (false, "client takes one HOST:PORT")
  | Ok addrs -> (
    let host, port = addrs.(0) in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    match Runix.Client.connect ~host ~port () with
    | exception Unix.Unix_error (err, _, _) ->
      `Error (false, Printf.sprintf "%s:%d: %s" host port (Unix.error_message err))
    | exception Failure e -> `Error (false, e)
    | c ->
      let r =
        match (op, datum) with
        | "read", None -> Ok (Runix.Client.read ~key c)
        | "write", Some v -> Ok (Runix.Client.write ~key c v)
        | "write", None -> Error "write takes a value: dds client HOST:PORT write INT"
        | "read", Some _ -> Error "read takes no value"
        | op, _ -> Error (Printf.sprintf "unknown operation %S (read|write)" op)
      in
      Runix.Client.close c;
      (match r with
      | Error e -> `Error (false, e)
      | Ok (Error e) -> `Error (false, Printf.sprintf "node answered: %s" e)
      | Ok (Ok v) ->
        Format.printf "%a@." Value.pp v;
        `Ok ()))

let client_cmd =
  let doc =
    "One register operation against a live node: $(b,dds client HOST:PORT read) prints \
     the value (as datum#sn), $(b,dds client HOST:PORT write INT) writes and prints \
     the value the register holds after the write: INT with the sequence number the \
     protocol gave it, or, when the node folded this write into one round with \
     writes queued behind it, the last of those. $(b,--key) addresses a register of \
     a sharded store; the addressed node must own the key's shard. Writes should go \
     to the shard's writer — the deployments assume one writer per shard."
  in
  let addr_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"HOST:PORT" ~doc:"Node address.")
  in
  let op_t =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OP" ~doc:"read or write.")
  in
  let datum_t =
    Arg.(value & pos 2 (some int) None & info [] ~docv:"INT" ~doc:"Value to write.")
  in
  let key_t =
    Arg.(
      value & opt int 0
      & info [ "key" ] ~docv:"KEY"
          ~doc:
            "The 63-bit key the operation addresses (default 0 — the one register of \
             a 1-shard deployment).")
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(ret (const run_client $ addr_t $ op_t $ datum_t $ key_t))

let run_load peers shards owned keys skew clients duration write_ratio seed metrics_out =
  match parse_peers peers with
  | Error e -> `Error (false, e)
  | Ok addrs -> (
    match Runix.Placement.make ~nodes:(Array.length addrs) ~shards ~spec:owned with
    | Error e -> `Error (false, e)
    | Ok placement -> (
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      match
        Runix.Load.run ~placement ~keys ~skew ~addrs ~clients ~duration_s:duration
          ~write_ratio ~seed ()
      with
      | exception Failure e -> `Error (false, e)
      | r ->
        let row label (h : Histogram.t) =
          [
            label;
            Report.cell_int (Histogram.count h);
            Report.cell_float (Histogram.percentile h 50.0);
            Report.cell_float (Histogram.percentile h 99.0);
            Report.cell_float (Histogram.max_value h);
          ]
        in
        (* The same latencies are re-cut by key class: the hot head of
           the zipf curve vs the cold tail. *)
        Report.print
          (Report.make ~title:"load summary"
             ~headers:[ "op"; "n"; "p50 (us)"; "p99 (us)"; "max (us)" ]
             [
               row "read" r.Runix.Load.read_lat_us;
               row "write" r.Runix.Load.write_lat_us;
               row
                 (Printf.sprintf "hot (top %d key(s))" r.Runix.Load.hot_keys)
                 r.Runix.Load.hot_lat_us;
               row "cold" r.Runix.Load.cold_lat_us;
             ]);
        Format.printf "throughput : %d op(s) in %.2f s = %.0f op/s (%d read / %d write)@."
          r.Runix.Load.ops r.Runix.Load.elapsed_s (Runix.Load.ops_per_s r)
          r.Runix.Load.reads r.Runix.Load.writes;
        Format.printf "key space  : %d key(s), zipf s = %.2f, %d shard(s), placement %s@."
          keys skew (Runix.Placement.shards placement) (Runix.Placement.to_string placement);
        Format.printf "errors     : %d@." r.Runix.Load.errors;
        (match metrics_out with
        | Some out ->
          write_file out
            (Json.to_string (Export.metrics_to_json (Metrics.snapshot r.Runix.Load.metrics))
            ^ "\n")
        | None -> ());
        if r.Runix.Load.errors = 0 then `Ok () else `Error (false, "load saw errors")))

let load_cmd =
  let doc =
    "Closed-loop load generator against a live deployment: N concurrent clients each \
     issue read/write, wait, repeat, for the given duration. Each op draws a key from a \
     zipfian popularity curve ($(b,--keys), $(b,--skew)) and lands on the key's shard \
     under the deployment's placement ($(b,--shards)/$(b,--owned), quoted identically \
     to dds serve): a read on a random reachable owner, a write on the shard's writer, \
     so each shard keeps one writer. It refuses to start when a shard has no reachable \
     owner, or, with writes, when a shard's writer is unreachable. The report splits \
     latency by op kind and into hot and cold key classes; exits non-zero if any op \
     came back as an error or was still unanswered a second after the duration ran \
     out."
  in
  let keys_t =
    Arg.(value & opt positive_int 4096 & info [ "keys" ] ~docv:"N" ~doc:"Key-space size.")
  in
  let skew_t =
    Arg.(
      value & opt nonneg_float 0.0
      & info [ "skew" ] ~docv:"S"
          ~doc:
            "Zipf exponent of the key popularity curve: 0 (default) uniform, ~1 classic \
             zipf, higher = hotter head.")
  in
  let clients_t =
    Arg.(
      value & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent closed-loop connections.")
  in
  let duration_t =
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"SECONDS" ~doc:"How long to run.")
  in
  let write_ratio_t =
    Arg.(
      value & opt float 0.1
      & info [ "write-ratio" ] ~docv:"R" ~doc:"Fraction of operations that write.")
  in
  let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Rng seed.") in
  let metrics_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write ops counters, the ops/s gauge and the latency histograms as JSON.")
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      ret
        (const run_load $ peers_t $ serve_shards_t $ serve_owned_t $ keys_t $ skew_t
       $ clients_t $ duration_t $ write_ratio_t $ seed_t $ metrics_out_t))

(* hunt *)

(* Randomized counterexample search: seeds [seed, seed + plans) each
   get a deterministically derived random nemesis plan (or the fixed
   --nemesis plan when given); the first violating run is shrunk to a
   minimal plan and echoed as a copy-pasteable `dds run` line. Exits
   non-zero iff a violation was found, so CI can assert both
   directions: a within-model hunt must come back clean, a fixed
   assumption-breaking plan must be flagged. *)
let run_hunt (proto : Protocol.t) plans profile no_shrink c =
  let protocol = proto.Protocol.name in
  match harness_runner ~monitor:(monitor_config_for proto c) proto c with
  | Error e -> `Error (false, e)
  | Ok go ->
    let runner ~seed plan = Harness.outcome (go ~seed plan) in
    let gen ~seed =
      match c.nemesis with
      | Some plan -> plan
      | None ->
        (* Derived from the seed but offset, so the plan stream never
           collides with the deployment's own root stream. *)
        let rng = Rng.create ~seed:(seed lxor 0x6e656d65736973) in
        Nemesis.random ~rng ~n:c.n ~horizon:c.horizon ~delta:c.delta profile
    in
    let seeds = List.init plans (fun i -> c.seed + i) in
    (* The pool searches seeds with early cancellation but still
       reports the lowest violating seed and the sequential run count
       (see Hunt.search), so repro lines and summaries are identical
       at any --jobs. *)
    match with_engine c (fun pool -> Hunt.search ~pool ~runner ~gen seeds) with
    | None ->
      Format.printf "hunt       : %d seed(s) clean (seeds %d..%d, %s profile, %d examined)@."
        plans c.seed
        (c.seed + plans - 1)
        (match profile with Nemesis.Within _ -> "within-model" | Nemesis.Any -> "any")
        plans;
      `Ok ()
    | Some found ->
      Format.printf "hunt       : violation at seed %d after %d of %d seed(s) examined@."
        found.Hunt.seed found.Hunt.runs plans;
      Format.printf "plan       : %s@." (Nemesis.to_string found.Hunt.plan);
      List.iter (fun v -> Format.printf "  %s@." v) found.Hunt.violations;
      let found =
        if no_shrink then found
        else begin
          let shrunk = Hunt.shrink ~runner found in
          Format.printf "shrunk     : %s (%d attempt(s))@."
            (match shrunk.Hunt.plan with
            | [] -> "<no faults needed>"
            | p -> Nemesis.to_string p)
            shrunk.Hunt.runs;
          List.iter (fun v -> Format.printf "  %s@." v) shrunk.Hunt.violations;
          shrunk
        end
      in
      let repro_c =
        {
          c with
          seed = found.Hunt.seed;
          monitor = true;
          nemesis = (match found.Hunt.plan with [] -> None | p -> Some p);
        }
      in
      Format.printf "repro      : %s@." (repro_line ~protocol repro_c);
      `Error (false, "hunt found a violating execution")

let hunt_cmd =
  let doc =
    "Randomized nemesis search: N seeds each run a seed-derived random fault plan (or the \
     fixed $(b,--nemesis) plan); the first violating run is shrunk to a minimal \
     counterexample and echoed as a copy-pasteable $(b,dds run) repro line. Exits \
     non-zero iff a violation was found."
  in
  let plans_t =
    Arg.(
      value & opt int 25
      & info [ "plans"; "runs" ] ~docv:"N" ~doc:"How many seeds (and random plans) to try.")
  in
  let faults_t =
    Arg.(
      value
      & opt (enum [ ("any", Nemesis.Any); ("within", Nemesis.Within { slack = 0 }) ]) Nemesis.Any
      & info [ "faults" ] ~docv:"SPACE"
          ~doc:
            "Plan space: $(b,any) draws from the full arsenal (partitions, drops, \
             over-delta delays, mass crashes — assumption-breaking allowed); $(b,within) \
             draws only faults the paper's model tolerates (duplicates, bounded churn \
             bursts, crash-with-recovery), so such a hunt must come back clean. (Until \
             the engine profiler arrived this was spelled $(b,--profile).)")
  in
  let no_shrink_t =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report the first counterexample without minimizing it.")
  in
  Term.(
    ret
      (const (fun pos flag plans faults no_shrink c ->
           resolve_protocol pos flag (fun p -> run_hunt p plans faults no_shrink c))
      $ protocol_pos_t $ protocol_flag_t $ plans_t $ faults_t $ no_shrink_t $ common_t))
  |> Cmd.v (Cmd.info "hunt" ~doc)

let sweep_cmd =
  let doc = "Regenerate one experiment's tables (see DESIGN.md's index or $(b,dds list))." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the experiment at the parameters EXPERIMENTS.md quotes. $(b,--nodes), \
         $(b,--delta), $(b,--horizon), $(b,--seed), $(b,--churn), $(b,--keys), \
         $(b,--read-rate) and $(b,--write-every) replace the matching parameter only \
         when given.";
    ]
  in
  let name_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SWEEP" ~doc:experiment_doc)
  in
  let attribution_t =
    Arg.(
      value & flag
      & info [ "attribution" ]
          ~doc:
            "After the sweep table, print a per-protocol latency-attribution table: one \
             representative monitored-config run per registered protocol is analyzed by \
             the causal critical-path analyzer ($(b,dds explain)) and its latency \
             decomposed into compute/transit/quorum/timer/retry phase columns (p50/p99 \
             per op kind), with ops over the k*delta bound listed. The extra run is \
             sequential, so output stays byte-identical at any $(b,--jobs).")
  in
  Term.(ret (const run_sweep $ name_t $ attribution_t $ experiment_override_t $ common_t))
  |> Cmd.v (Cmd.info "sweep" ~doc ~man)

(* check *)

(* Systematic bounded exploration: every schedule of a small scripted
   deployment, driven through the checker's choice points. The verdict
   table goes to stdout (byte-identical at any --jobs); the engine
   summary goes to stderr like sweep/hunt. *)
let run_check (p : Protocol.t) nodes delta writes reads joins quorum drop_budget crash_budget
    depth_bound preempt_bound schedule_out naive frontier jobs eprofile profile_out =
  let cfg =
    {
      Dds_check.Schedule.proto = p.Protocol.name;
      nodes;
      delta;
      writes;
      reads;
      joins;
      quorum;
      drop_budget;
      crash_budget;
      depth_bound;
      preempt_bound;
    }
  in
  with_engine' ~profile:eprofile ?profile_out ~jobs ~metrics_out:None @@ fun pool ->
  match
    Dds_check.Check.run ~pool ~por:(not naive) ~state_cache:(not naive) ~frontier p cfg
  with
  | Error e -> `Error (false, e)
  | Ok { Dds_check.Check.stats; violation } ->
    Format.printf "check      : %s nodes=%d delta=%d writes=%d reads=%d joins=%d%s@."
      p.Protocol.name nodes delta writes reads joins
      (match quorum with Some q -> Printf.sprintf " quorum=%d" q | None -> "");
    Format.printf "adversary  : <=%d drop(s), <=%d crash(es)@." drop_budget crash_budget;
    Format.printf "bounds     : depth %d, %d preemption(s)@." depth_bound preempt_bound;
    Format.printf "schedules  : %d explored, %d truncated at the depth bound@."
      stats.Dds_check.Check.schedules stats.Dds_check.Check.truncated;
    Format.printf "pruned     : %d state-cache hit(s), %d sleep-set skip(s), %d over the \
                   preemption budget@."
      stats.Dds_check.Check.state_prunes stats.Dds_check.Check.sleep_skips
      stats.Dds_check.Check.preempt_skips;
    Format.printf "max depth  : %d decision(s)@." stats.Dds_check.Check.max_depth;
    (match violation with
    | None ->
      Format.printf "verdict    : CLEAN — no %s violation within bounds@."
        (if p.Protocol.atomic then "regularity/atomicity" else "regularity");
      `Ok ()
    | Some v ->
      Format.printf "verdict    : VIOLATION at schedule %d of %d@."
        v.Dds_check.Check.at_schedule stats.Dds_check.Check.schedules;
      List.iter (fun l -> Format.printf "  %s@." l) v.Dds_check.Check.lines;
      (match schedule_out with
      | Some path ->
        write_file path (Dds_check.Schedule.to_string v.Dds_check.Check.schedule);
        Format.printf "schedule   : written to %s (replay: dds run --schedule %s)@." path
          path
      | None ->
        Format.printf "schedule   : (replay with dds run --schedule)@.%s"
          (Dds_check.Schedule.to_string v.Dds_check.Check.schedule));
      `Error (false, "check found a violating schedule"))

let check_doc =
  "Explore $(i,every) schedule of a small scripted deployment up to the given bounds: \
   at each tick where several events are ready the scheduler branches on which fires \
   first, and the bounded adversary branches on drop-or-deliver per message and \
   crash-or-not at fixed ticks. Terminal runs are judged against regularity (and \
   atomicity for protocols that promise it); the first violating schedule is emitted \
   in a replayable format. Exits non-zero iff a violation was found."

let check_cmd =
  let nodes_t =
    Arg.(value & opt int 3 & info [ "n"; "nodes" ] ~docv:"INT" ~doc:"Founding system size.")
  in
  let delta_t =
    Arg.(value & opt int 1 & info [ "delta" ] ~docv:"TICKS" ~doc:"Message delay (constant).")
  in
  let writes_t =
    Arg.(value & opt int 1 & info [ "writes" ] ~docv:"N" ~doc:"Scripted writes (writer p0).")
  in
  let reads_t =
    Arg.(
      value & opt int 1
      & info [ "reads" ] ~docv:"N" ~doc:"Scripted reads (round-robin over the other nodes).")
  in
  let joins_t =
    Arg.(value & opt int 0 & info [ "joins" ] ~docv:"N" ~doc:"Scripted mid-run joiners.")
  in
  let quorum_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "quorum" ] ~docv:"Q"
          ~doc:
            "Override the quorum size for protocols that take one (es). Setting it below \
             a majority is the canonical mutation the checker must catch.")
  in
  let drop_t =
    Arg.(
      value & opt int 0
      & info [ "drop-budget" ] ~docv:"N"
          ~doc:"Adversary may drop up to N messages (each transmission becomes a branch).")
  in
  let crash_t =
    Arg.(
      value & opt int 0
      & info [ "crash-budget" ] ~docv:"N"
          ~doc:"Adversary may crash up to N non-writer processes at fixed decision ticks.")
  in
  let depth_t =
    Arg.(
      value & opt int 16
      & info [ "depth-bound" ] ~docv:"D"
          ~doc:"Max decisions explored per run; deeper points take the default branch.")
  in
  let preempt_t =
    Arg.(
      value & opt int 2
      & info [ "preempt-bound" ] ~docv:"P"
          ~doc:"Max non-FIFO scheduling choices per run (CHESS-style preemption bound).")
  in
  let schedule_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule-out" ] ~docv:"FILE"
          ~doc:"Write the violating schedule here instead of stdout.")
  in
  let naive_t =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Disable the sleep-set partial-order reduction and the state cache (explore \
             the raw tree) — for measuring what the reductions save.")
  in
  let frontier_t =
    Arg.(
      value & opt int 64
      & info [ "frontier" ] ~docv:"N"
          ~doc:
            "Parallel partitioning width target. Part of the exploration shape (counts \
             are only comparable at equal frontier), independent of --jobs.")
  in
  Term.(
    ret
      (const (fun pos flag nodes delta writes reads joins quorum drop crash depth preempt
                  out naive frontier jobs eprofile profile_out ->
           resolve_protocol pos flag (fun p ->
               run_check p nodes delta writes reads joins quorum drop crash depth preempt
                 out naive frontier jobs eprofile profile_out))
      $ protocol_pos_t $ protocol_flag_t $ nodes_t $ delta_t $ writes_t $ reads_t
      $ joins_t $ quorum_t $ drop_t $ crash_t $ depth_t $ preempt_t $ schedule_out_t
      $ naive_t $ frontier_t $ jobs_t $ eprofile_t $ profile_out_t))
  |> Cmd.v (Cmd.info "check" ~doc:check_doc)

(* list *)

let run_list () =
  Format.printf "protocols:@.";
  List.iter
    (fun (p : Protocol.t) ->
      Format.printf "  %-5s %s@." p.Protocol.name p.Protocol.doc;
      Format.printf "        %s register; %s%s@."
        (if p.Protocol.atomic then "atomic" else "regular")
        (if p.Protocol.majority then "assumes an active majority; " else "")
        (match p.Protocol.churn_bound ~n:10 ~delta:3 with
        | Some b -> Printf.sprintf "churn bound %.5f/tick at n=10 delta=3" b
        | None -> "no churn bound (static group)"))
    Protocol.all;
  Format.printf "@.sweeps:@.";
  List.iter
    (fun (e : Experiment.t) ->
      Format.printf "  %-12s %-4s %s%s@." e.Experiment.id e.Experiment.enum e.Experiment.doc
        (match e.Experiment.aliases with
        | [] -> ""
        | l -> Printf.sprintf " (also %s)" (String.concat ", " l)))
    Experiment.all;
  Format.printf "@.wire protocol v%d (runtime frames; the version byte rides in \
                 Hello/Client_hello):@."
    Dds_net.Wire.v2;
  Format.printf "  %-12s %3s  %s@." "frame" "tag" "fields";
  List.iter
    (fun (name, tag, fields) -> Format.printf "  %-12s %3d  %s@." name tag fields)
    Runix.Frame.catalog;
  `Ok ()

let list_cmd =
  let doc =
    "List the registered protocols (with their theorem metadata), sweeps, and the \
     runtime wire-protocol frame catalog (one field layout per frame)."
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const run_list $ const ()))

let main_cmd =
  let doc = "regular registers in dynamic distributed systems (Baldoni et al., ICDCS 2009)" in
  Cmd.group
    (Cmd.info "dds" ~version:"1.0.0" ~doc)
    [
      run_cmd;
      analyze_cmd;
      sweep_cmd;
      inspect_cmd;
      explain_cmd;
      audit_cmd;
      serve_cmd;
      client_cmd;
      load_cmd;
      hunt_cmd;
      check_cmd;
      list_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
