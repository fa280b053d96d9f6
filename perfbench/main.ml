(* The benchmark's command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   run from the repository root (perfbench/run.py builds and starts it).
   Workloads, metric names and units come from BENCHMARK.json. With
   --trace 0 the last stdout line holds every end-to-end metric; with
   --trace 1 it holds every per-layer metric instead, a layer the
   workload does not exercise reading 0. A human-readable record, host
   noise included, goes to stderr. The exit code is non-zero when any
   operation failed, a verdict was wrong or an exact count drifted. *)

open Perfbench
module Json = Dds_sim.Json

let now = Unix.gettimeofday
let say fmt = Format.eprintf (fmt ^^ "@.")

(* --- BENCHMARK.json ----------------------------------------------- *)

type catalog = {
  workloads : string list;
  end_to_end : (string * string) list;  (** name, unit *)
  per_layer : (string * string) list;
}

let catalog () =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e) in
  let list key =
    match Option.bind (Json.member key j) Json.to_list_opt with
    | Some l -> l
    | None -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let field k o = Option.get (Option.bind (Json.member k o) Json.to_string_opt) in
  let metrics key = List.map (fun m -> (field "name" m, field "unit" m)) (list key) in
  {
    workloads = List.map (field "name") (list "workloads");
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* --- exact-count guard ------------------------------------------ *)

(* Counts that must repeat exactly for a seed are kept per binary in
   .perfbench/counts; a later run of the same binary and seed that
   reads different counts has drifted. *)
let guard_counts ~workload ~seed counts =
  let dir = ".perfbench" in
  let path = Filename.concat dir "counts" in
  let key =
    Printf.sprintf "%s %s %d " (Digest.to_hex (Digest.file Sys.executable_name)) workload seed
  in
  let line = key ^ String.concat " " counts in
  let earlier =
    if Sys.file_exists path then
      List.find_opt (String.starts_with ~prefix:key)
        (String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all))
    else None
  in
  match earlier with
  | Some e when e <> line -> [ "exact counts drifted from an earlier run: " ^ e ^ " -> " ^ line ]
  | Some _ -> []
  | None ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Out_channel.with_open_gen [ Open_append; Open_creat ] 0o644 path (fun oc ->
        output_string oc (line ^ "\n"));
    []

(* --- outcome ------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** first failures and drift, for stderr *)
  metrics : (string * float) list;
}

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let median_of f l = Stats.median (Array.of_list (List.map f l))

let noise_of_window ~cpu_s ~wall_s st0 st1 =
  { Host.steal_frac = Host.steal_frac st0 st1; cpu_wall_ratio = cpu_s /. wall_s; load = Host.loadavg () }

let host_metrics (n : Host.noise) =
  [ ("host.steal_frac", n.Host.steal_frac); ("host.cpu_wall_ratio", n.Host.cpu_wall_ratio);
    ("host.loadavg", n.Host.load) ]

let pp_latency name a =
  let n = Array.length a in
  if n > 0 then
    say "  %s latency: p50 %.1f us, p99 %.1f us over %d samples (%d beyond p99)" name
      (Stats.percentile a 50.) (Stats.percentile a 99.) n (Stats.beyond n 99.)

(* --- live_read / live_write ---------------------------------------- *)

let part_s = 2.5

let pp_slowdown ppf (sl : Host.slowdown) =
  Format.fprintf ppf "x%.3f cpu, x%.3f wall" sl.Host.cpu sl.Host.wall

let live mix ~seed ~seconds ~traced ~spans_file =
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let account (s : Live.setup) (td : Live.teardown) =
    let g = s.Live.gen in
    attempted := !attempted + g.Live.attempted;
    failed := !failed + g.Live.failed + Live.server_failures td;
    Option.iter (fun f -> problems := f :: !problems) g.Live.first_failure;
    if Live.server_failures td > 0 then
      problems :=
        Printf.sprintf "server counted %d dropped, %d malformed, %d misrouted, %d refused"
          td.Live.last.Live.dropped td.Live.last.Live.malformed td.Live.last.Live.misrouted
          td.Live.last.Live.refused
        :: !problems
  in
  (* Every set-up but the last is torn down again; the last is measured. *)
  let rec prepare i done_ =
    let s = Live.set_up ~mix ~seed in
    if i = Live.setups - 1 then (s, List.rev (s :: done_))
    else begin
      account s (Live.tear_down s);
      prepare (i + 1) (s :: done_)
    end
  in
  let s, all = prepare 0 [] in
  let setup_s = median_of (fun s -> s.Live.setup_s) all in
  let scaled_setup_s = median_of (fun s -> s.Live.scaled_setup_s) all in
  let mesh_ready_ms = 1e3 *. median_of (fun s -> s.Live.mesh_ready_s) all in
  let report tag (w : Live.window) =
    say "%s: %d ops in %.2f s = %.0f op/s, %.2f us CPU/op (server %.3f s, client %.3f s)" tag
      w.Live.ops w.Live.wall_s
      (float_of_int w.Live.ops /. w.Live.wall_s)
      ((w.Live.server_cpu_s +. w.Live.client_cpu_s) /. float_of_int w.Live.ops *. 1e6)
      w.Live.server_cpu_s w.Live.client_cpu_s;
    say "  at nominal speed: %.0f op/s, %.2f us CPU/op; server slowed %a, client %a"
      (Live.scaled_ops_per_s w) (Live.scaled_cpu_us_per_op w) pp_slowdown w.Live.server_slowdown
      pp_slowdown w.Live.client_slowdown;
    pp_latency "read" w.Live.reads_us;
    pp_latency "write" w.Live.writes_us;
    say "  host: %a" Host.pp_noise w.Live.noise
  in
  (* The timed window is cut into parts of [part_s]; the end-to-end
     figures are the median over the parts, so a part the host disturbed
     more than the reference shows does not move them. *)
  let parts n = List.init n (fun _ -> Live.window s ~seconds:part_s) in
  let n = Stdlib.max 1 (int_of_float (seconds /. part_s)) in
  let untraced = parts (if traced then Stdlib.max 1 (n / 2) else n) in
  let a = Live.merge untraced in
  say "set-up: median %.4f s of [%s], %.4f s at nominal speed (mesh ready %.2f ms)" setup_s
    (String.concat " " (List.map (fun s -> Printf.sprintf "%.4f" s.Live.setup_s) all))
    scaled_setup_s mesh_ready_ms;
  report (if traced then "untraced half" else "timed window") a;
  let median_over f = median_of f untraced in
  say "  median of %d parts at nominal speed: %.0f op/s, %.2f us CPU/op" (List.length untraced)
    (median_over Live.scaled_ops_per_s) (median_over Live.scaled_cpu_us_per_op);
  let traced_half =
    if traced then begin
      let sp = Span.create () in
      s.Live.gen.Live.spans <- Some sp;
      let b = Live.merge (parts (Stdlib.max 1 (n / 2))) in
      report "traced half" b;
      Some (sp, b)
    end
    else None
  in
  let td = Live.tear_down s in
  account s td;
  say "peak RSS: server %.2f MB, generator %.2f MB" td.Live.server_rss_mb (Host.peak_rss_mb 0);
  let metrics =
    match traced_half with
    | None ->
      [ ("setup_s", scaled_setup_s); ("cpu_us_per_op", median_over Live.scaled_cpu_us_per_op);
        ("ops_per_s", median_over Live.scaled_ops_per_s); ("peak_rss_mb", td.Live.server_rss_mb) ]
    | Some (sp, b) ->
      let ops = float_of_int a.Live.ops in
      let p name arr q = if Array.length arr = 0 then [] else [ (name, Stats.percentile arr q) ] in
      Format.eprintf "per-layer spans (traced half):@.%a" Span.pp_table (Span.table sp);
      Span.write_jsonl sp spans_file;
      [ ( "runtime_unix.server_cpu_us_per_op",
          Host.scaled_cpu a.Live.server_slowdown a.Live.server_cpu_s /. ops *. 1e6 );
        ( "runtime_unix.client_cpu_us_per_op",
          Host.scaled_cpu a.Live.client_slowdown a.Live.client_cpu_s /. ops *. 1e6 );
        ("runtime_unix.server_busy_frac", a.Live.server_cpu_s /. a.Live.wall_s);
        ("runtime_unix.server_minor_words_per_op", a.Live.server_minor_words /. ops);
        ("runtime_unix.dropped", float_of_int td.Live.last.Live.dropped);
        ("runtime_unix.malformed", float_of_int td.Live.last.Live.malformed);
        ("runtime_unix.misrouted", float_of_int td.Live.last.Live.misrouted);
        ("runtime_unix.refused", float_of_int td.Live.last.Live.refused);
        ("runtime_unix.mesh_ready_ms", mesh_ready_ms);
        ("core.msgs_per_op", float_of_int a.Live.transmits /. ops);
        ("net.tcp_segs_per_op", a.Live.tcp_segs /. ops);
        ("net.wire_bytes_per_op", a.Live.wire_bytes /. ops);
        ("net.encode_ns", 1e9 *. Span.mean sp "net.encode");
        ("net.decode_ns", 1e9 *. Span.mean sp "net.decode");
        ("live.read_samples", float_of_int (Array.length a.Live.reads_us));
        ("live.write_samples", float_of_int (Array.length a.Live.writes_us));
        ("trace.overhead_us_per_op", Live.scaled_cpu_us_per_op b -. Live.scaled_cpu_us_per_op a) ]
      @ p "live.read_p50_us" a.Live.reads_us 50.
      @ p "live.read_p99_us" a.Live.reads_us 99.
      @ p "live.write_p50_us" a.Live.writes_us 50.
      @ p "live.write_p99_us" a.Live.writes_us 99.
      @ host_metrics a.Live.noise
  in
  { attempted = !attempted; failed = !failed; problems = List.rev !problems; metrics }

(* Runs [one ()] until [budget] seconds have passed since [t0], at
   least once. *)
let repeat ~t0 ~budget one =
  let rec go acc =
    let x = one () in
    if now () -. t0 < budget then go (x :: acc) else List.rev (x :: acc)
  in
  go []

let slowdown_of = function Some s -> s | None -> invalid_arg "uncalibrated"

(* --- sim_churn ------------------------------------------------------ *)

let sim_churn ~seed ~seconds ~traced ~spans_file =
  let budget = if traced then seconds /. 2. else seconds in
  let st0 = Host.cpu_stat () and t0 = now () and c0 = Host.self_cpu_s () in
  (* The first pass runs without the calibration timer: its counts are
     the exact ones. *)
  let counting = Sim.pass ~calibrated:false ~seed () in
  let passes = repeat ~t0 ~budget (Sim.pass ~calibrated:true ~seed) in
  let noise = noise_of_window ~cpu_s:(Host.self_cpu_s () -. c0) ~wall_s:(now () -. t0) st0 (Host.cpu_stat ()) in
  let spans = if traced then Some (Span.create ()) else None in
  let traced_passes =
    match spans with
    | None -> []
    | Some _ -> repeat ~t0:(now ()) ~budget (Sim.pass ?spans ~calibrated:true ~seed)
  in
  let all = (counting :: passes) @ traced_passes in
  let cells = List.concat_map (fun p -> p.Sim.cells) all in
  let events (p : Sim.pass) = List.map (fun (c : Sim.cell) -> c.Sim.events) p.Sim.cells in
  let drift_within =
    if List.for_all (fun p -> events p = events counting) all then []
    else [ "event counts differ between passes over the same seeds" ]
  in
  let drift_across =
    guard_counts ~workload:"sim_churn" ~seed
      (List.map
         (fun (c : Sim.cell) -> Printf.sprintf "%d:%d:%.0f" c.Sim.seed c.Sim.events c.Sim.minor_words)
         counting.Sim.cells)
  in
  let irregular = List.filter (fun (c : Sim.cell) -> not c.Sim.regular) cells in
  let ops (p : Sim.pass) = float_of_int (isum (fun (c : Sim.cell) -> c.Sim.ops) p.Sim.cells) in
  (* Medians over passes: each pass repeats the same work, so a pass the
     host disturbed more than the reference shows does not move them. *)
  let cpu_per_op ps =
    median_of (fun p -> Host.scaled_cpu (slowdown_of p.Sim.slowdown) p.Sim.cpu_s /. ops p *. 1e6) ps
  in
  let ops_per_s ps =
    median_of (fun p -> ops p /. Host.scaled_wall (slowdown_of p.Sim.slowdown) p.Sim.wall_s) ps
  in
  let setup_s = median_of (fun (c : Sim.cell) -> c.Sim.create_s +. c.Sim.plan_s) cells in
  let scaled_setup_s =
    median_of
      (fun (c, (sl : Host.slowdown)) -> (c.Sim.create_s +. c.Sim.plan_s) /. sl.Host.wall)
      (List.concat_map
         (fun p -> List.map (fun c -> (c, slowdown_of p.Sim.slowdown)) p.Sim.cells)
         (passes @ traced_passes))
  in
  let fevents = float_of_int (isum (fun (c : Sim.cell) -> c.Sim.events) counting.Sim.cells) in
  say "%d calibrated pass(es) over seeds %s, %.0f ops and %.0f events each" (List.length passes)
    (String.concat "," (List.map string_of_int (Sim.cell_seeds ~seed)))
    (ops counting) fevents;
  say "  measured %.0f op/s, %.2f us CPU/op; at nominal speed %.0f op/s, %.2f us CPU/op"
    (sum ops passes /. sum (fun p -> p.Sim.wall_s) passes)
    (sum (fun p -> p.Sim.cpu_s) passes /. sum ops passes *. 1e6)
    (ops_per_s passes) (cpu_per_op passes);
  List.iter
    (fun p ->
      let sl = slowdown_of p.Sim.slowdown in
      say "  pass: %.3f s CPU, slowed %a, %.3f s CPU at nominal speed" p.Sim.cpu_s pp_slowdown sl
        (Host.scaled_cpu sl p.Sim.cpu_s))
    passes;
  say "  cell set-up %.3f ms (median of %d), %.3f ms at nominal speed; host: %a" (setup_s *. 1e3)
    (List.length cells) (scaled_setup_s *. 1e3) Host.pp_noise noise;
  let metrics =
    match spans with
    | None ->
      [ ("setup_s", scaled_setup_s); ("cpu_us_per_op", cpu_per_op passes);
        ("ops_per_s", ops_per_s passes);
        ("peak_rss_mb", Host.peak_rss_mb 0) ]
    | Some sp ->
      Format.eprintf "per-layer spans (traced half):@.%a" Span.pp_table (Span.table sp);
      Span.write_jsonl sp spans_file;
      (* Engine last: its jobs-2 pool starts a domain, after which this
         process may not fork. *)
      let wall1, _, ok1 = Sim.pooled ~jobs:1 ~seed in
      let wall2, busy2, ok2 = Sim.pooled ~jobs:2 ~seed in
      if not (ok1 && ok2) then failwith "pooled cells not REGULAR";
      say "engine: jobs 1 %.3f s, jobs 2 %.3f s, busy %.2f" wall1 wall2 busy2;
      let first = counting.Sim.cells in
      let fsum f = sum f first in
      let fops = ops counting in
      let total = fsum (fun c -> c.Sim.create_s +. c.Sim.plan_s +. c.Sim.run_wall_s) in
      [ ("workload.plan_ms", 1e3 *. median_of (fun (c : Sim.cell) -> c.Sim.plan_s) cells);
        ("core.create_ms", 1e3 *. median_of (fun (c : Sim.cell) -> c.Sim.create_s) cells);
        ("sim.events", fevents);
        ("sim.events_per_op", fevents /. fops);
        ("sim.ns_per_event", cpu_per_op passes *. 1e3 *. fops /. fevents);
        ("sim.minor_words_per_event", fsum (fun c -> c.Sim.minor_words) /. fevents);
        ("sim.promoted_words_per_event", fsum (fun c -> c.Sim.promoted_words) /. fevents);
        ("net.sim_msgs_per_op", fsum (fun c -> float_of_int c.Sim.transmits) /. fops);
        ("spec.check_share", fsum (fun c -> c.Sim.check_s) /. total);
        ("engine.speedup_jobs2", wall1 /. wall2);
        ("engine.busy_frac", busy2);
        ("trace.overhead_us_per_op", cpu_per_op traced_passes -. cpu_per_op passes) ]
      @ host_metrics noise
  in
  {
    attempted = isum (fun (c : Sim.cell) -> c.Sim.ops) cells;
    failed = List.length irregular + List.length drift_within + List.length drift_across;
    problems =
      List.map (fun (c : Sim.cell) -> Printf.sprintf "seed %d not REGULAR" c.Sim.seed) irregular
      @ drift_within @ drift_across;
    metrics;
  }

(* --- check_explore -------------------------------------------------- *)

let check_explore ~seed ~seconds ~traced ~spans_file =
  let warm, scaled_setup_s = Explore.warm_up 9 in
  let budget = if traced then seconds /. 2. else seconds in
  let st0 = Host.cpu_stat () and t0 = now () and c0 = Host.self_cpu_s () in
  (* The first exploration runs without the calibration timer: its
     allocation count is the exact one. *)
  let counting = Explore.run ~calibrated:false () in
  let runs = repeat ~t0 ~budget (Explore.run ~calibrated:true) in
  let noise = noise_of_window ~cpu_s:(Host.self_cpu_s () -. c0) ~wall_s:(now () -. t0) st0 (Host.cpu_stat ()) in
  let spans = if traced then Some (Span.create ()) else None in
  let traced_runs =
    match spans with None -> [] | Some _ -> repeat ~t0:(now ()) ~budget (Explore.run ?spans ~calibrated:true)
  in
  let all = (counting :: runs) @ traced_runs in
  let schedules l = float_of_int (isum (fun (r : Explore.run) -> r.Explore.stats.Dds_check.Check.schedules) l) in
  (* Medians over explorations, as for the simulator's passes. *)
  let per_run = float_of_int Explore.expected_schedules in
  let cpu_per_op l =
    median_of
      (fun (r : Explore.run) ->
        Host.scaled_cpu (slowdown_of r.Explore.slowdown) r.Explore.cpu_s /. per_run *. 1e6)
      l
  in
  let ops_per_s l =
    median_of
      (fun (r : Explore.run) ->
        per_run /. Host.scaled_wall (slowdown_of r.Explore.slowdown) r.Explore.wall_s)
      l
  in
  let wrong =
    List.filter
      (fun (r : Explore.run) ->
        (not r.Explore.clean) || r.Explore.stats.Dds_check.Check.schedules <> Explore.expected_schedules)
      all
  in
  let counts (r : Explore.run) =
    List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Explore.exact_counts r.Explore.stats)
  in
  let drift_within =
    if List.for_all (fun r -> counts r = counts counting) all then []
    else [ "checker counts differ between explorations" ]
  in
  let drift_across =
    guard_counts ~workload:"check_explore" ~seed
      (counts counting @ [ Printf.sprintf "minor_words=%.0f" counting.Explore.minor_words ])
  in
  let setup_s = Stats.median warm in
  say "%d calibrated exploration(s) of %d schedules; set-up %.4f s (median of %d), %.4f s at \
       nominal speed"
    (List.length runs) counting.Explore.stats.Dds_check.Check.schedules setup_s (Array.length warm)
    scaled_setup_s;
  say "  set-ups: %s" (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") warm)));
  say "  measured %.1f schedules/s, %.1f us CPU/schedule; at nominal speed %.1f schedules/s, %.1f \
       us CPU/schedule"
    (schedules runs /. sum (fun (r : Explore.run) -> r.Explore.wall_s) runs)
    (sum (fun (r : Explore.run) -> r.Explore.cpu_s) runs /. schedules runs *. 1e6)
    (ops_per_s runs) (cpu_per_op runs);
  List.iter
    (fun (r : Explore.run) ->
      let sl = slowdown_of r.Explore.slowdown in
      say "  exploration: %.3f s CPU, slowed %a, %.3f s CPU at nominal speed" r.Explore.cpu_s
        pp_slowdown sl (Host.scaled_cpu sl r.Explore.cpu_s))
    runs;
  say "  host: %a" Host.pp_noise noise;
  let metrics =
    match spans with
    | None ->
      [ ("setup_s", scaled_setup_s); ("cpu_us_per_op", cpu_per_op runs);
        ("ops_per_s", ops_per_s runs);
        ("peak_rss_mb", Host.peak_rss_mb 0) ]
    | Some sp ->
      Format.eprintf "per-layer spans (traced half):@.%a" Span.pp_table (Span.table sp);
      Span.write_jsonl sp spans_file;
      let s = counting.Explore.stats in
      let open Dds_check.Check in
      let f = float_of_int in
      List.map (fun (k, v) -> (k, f v)) (Explore.exact_counts s)
      @ [ ("check.cache_hit_rate", f s.state_prunes /. f (s.state_prunes + s.cache_entries));
          ("check.minor_words_per_schedule", counting.Explore.minor_words /. f s.schedules);
          ("trace.overhead_us_per_op", cpu_per_op traced_runs -. cpu_per_op runs) ]
      @ host_metrics noise
  in
  {
    attempted = int_of_float (schedules all);
    failed = List.length wrong + List.length drift_within + List.length drift_across;
    problems =
      List.map
        (fun (r : Explore.run) ->
          Printf.sprintf "exploration %s with %d schedules (want CLEAN with %d)"
            (if r.Explore.clean then "CLEAN" else "found a violation")
            r.Explore.stats.Dds_check.Check.schedules Explore.expected_schedules)
        wrong
      @ drift_within @ drift_across;
    metrics;
  }

(* --- command line ----------------------------------------------------- *)

let workload_runner = function
  | "live_read" -> Some (live { Live.write_ratio = 0.05; zipf_s = 1.0; keys = 4096 })
  | "live_write" -> Some (live { Live.write_ratio = 0.5; zipf_s = 0.0; keys = 4096 })
  | "sim_churn" -> Some sim_churn
  | "check_explore" -> Some check_explore
  | _ -> None

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload from BENCHMARK.json");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let cat = catalog () in
  let run =
    match workload_runner !workload with
    | Some r when List.mem !workload cat.workloads && !seed >= 0 && !seconds > 0
                  && (!trace = 0 || !trace = 1) -> r
    | _ ->
      prerr_endline usage;
      exit 2
  in
  if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
  let traced = !trace = 1 in
  say "perfbench %s seed %d, %d s%s" !workload !seed !seconds (if traced then ", traced" else "");
  (* One span file per workload, replaced by each traced run. *)
  let spans_file = Printf.sprintf ".perfbench/spans-%s.jsonl" !workload in
  let o = run ~seed:!seed ~seconds:(float_of_int !seconds) ~traced ~spans_file in
  List.iter (fun p -> say "FAILED: %s" p) o.problems;
  let wanted = if traced then cat.per_layer else cat.end_to_end in
  let metric (name, unit_) =
    let value =
      match List.assoc_opt name o.metrics with
      | Some v -> v
      | None when traced -> 0.
      | None -> failwith ("metric not measured: " ^ name)
    in
    if not (Float.is_finite value) then failwith ("metric not finite: " ^ name);
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
  in
  let correct = o.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct); ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed); ("metrics", Json.Obj (List.map metric wanted)) ]));
  exit (if correct then 0 else 1)
