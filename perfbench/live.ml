(* The live workloads: a 3-node es keyed store served over loopback TCP
   from ONE forked server process (all three nodes share one Loop), and
   one generator -- this process -- driving it in a closed loop over two
   wire-v2 connections. A run therefore uses exactly two processes, one
   per vCPU of the small hosts this benchmark was tuned on, so neither
   competes with a sibling for a core. *)

open Dds_runtime_unix
module Metrics = Dds_sim.Metrics
module Rng = Dds_sim.Rng
module Wire = Dds_net.Wire
module Value = Dds_spec.Value
module Es = Dds_core.Es_register
module S = Store.Make (Es)

let nodes = 3
let shards = 2

(* Every node owns every shard, so node 0 -- the lowest owner -- is
   every shard's writer. *)
let placement = Placement.all ~nodes ~shards

(* 8 requests in flight per connection. *)
let slots_per_conn = 8

(* The fixed warm-up closing each set-up: enough round trips to fill
   the connections, queues and allocator before anything is timed. *)
let warmup_ops = 2000

(* Set-ups per run; set-up time is their median. *)
let setups = 5

type mix = { write_ratio : float; zipf_s : float; keys : int }

let now = Unix.gettimeofday

(* --- the server process ------------------------------------------ *)

type server = {
  pid : int;
  ctl : Unix.file_descr;  (** commands to the server: 's' snapshot, 'q' quit *)
  report : Unix.file_descr;  (** one line per command, "ready" first *)
  addrs : (string * int) array;
}

(* Counters from the nodes' Store.metrics, summed, plus the server's own
   allocation. *)
type snapshot = {
  transmit : int;
  dropped : int;
  malformed : int;
  misrouted : int;
  refused : int;
  minor_words : float;
  calibration : Host.calibration;  (** the server's reference work so far *)
}

let counter_names = [ "net.transmit"; "net.dropped"; "net.malformed"; "net.misrouted"; "net.refused" ]

let listen_ephemeral () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> (fd, port)
  | Unix.ADDR_UNIX _ -> assert false

let serve ~socks ~addrs ~ctl ~report =
  let loop = Loop.create () in
  let stores =
    Array.init nodes (fun self ->
        S.create ~loop
          {
            (Store.default_config ~self ~addrs) with
            Store.placement;
            events_enabled = false;
            listen_fd = Some socks.(self);
          }
          (fun _shard -> Es.default_params ~n:nodes))
  in
  let rec say line =
    let s = line ^ "\n" in
    match Unix.write_substring report s 0 (String.length s) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> say line
  in
  let snapshot () =
    let sum name = Array.fold_left (fun acc st -> acc + Metrics.get (S.metrics st) name) 0 stores in
    let k = Host.calibration () in
    say
      (String.concat " "
         (List.map (fun n -> string_of_int (sum n)) counter_names
         @ [ Printf.sprintf "%.0f %.9f %.9f %d" (Gc.minor_words ()) k.Host.ref_cpu_s k.Host.ref_wall_s
               k.Host.samples ]))
  in
  Host.calibrate true;
  let linked st = List.for_all (fun p -> p = S.self_i st || S.link_ready st p) [ 0; 1; 2 ] in
  let rec wait_ready () =
    if Array.for_all linked stores then say "ready"
    else ignore (Loop.after_ms loop 1 wait_ready : unit -> unit)
  in
  wait_ready ();
  let cmd = Bytes.create 1 in
  Loop.watch_read loop ctl (fun () ->
      let n = try Unix.read ctl cmd 0 1 with Unix.Unix_error _ -> 0 in
      if n = 1 && Bytes.get cmd 0 = 's' then snapshot ()
      else begin
        (* 'q', or the generator went away: report and leave. *)
        if n = 1 then snapshot ();
        Array.iter S.shutdown stores;
        Loop.unwatch_read loop ctl;
        Loop.stop loop
      end);
  Loop.run loop

(* Forks the server. Must happen before this process starts any domain:
   OCaml 5 forbids fork once domains exist. *)
let start () =
  let socks = Array.init nodes (fun _ -> listen_ephemeral ()) in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let ctl_r, ctl_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close ctl_w;
    Unix.close rep_r;
    let code =
      try
        serve ~socks:(Array.map fst socks) ~addrs ~ctl:ctl_r ~report:rep_w;
        0
      with e ->
        prerr_endline ("perfbench server: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    Unix.close ctl_r;
    Unix.close rep_w;
    Array.iter (fun (fd, _) -> Unix.close fd) socks;
    { pid; ctl = ctl_w; report = rep_r; addrs }

let read_line ?(timeout = 30.) fd =
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then failwith "server did not answer";
    match Unix.select [ fd ] [] [] left with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | [], _, _ -> go ()
    | _ -> (
      match Unix.read fd b 0 1 with
      | 0 -> failwith "server exited early"
      | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
      | _ ->
        Buffer.add_char buf (Bytes.get b 0);
        go ())
  in
  go ()

let command srv c =
  ignore (Unix.write_substring srv.ctl c 0 1);
  match List.map float_of_string (String.split_on_char ' ' (read_line srv.report)) with
  | [ t; d; m; mi; r; w; rc; rw; n ] ->
    {
      transmit = int_of_float t;
      dropped = int_of_float d;
      malformed = int_of_float m;
      misrouted = int_of_float mi;
      refused = int_of_float r;
      minor_words = w;
      calibration = { Host.ref_cpu_s = rc; ref_wall_s = rw; samples = int_of_float n };
    }
  | _ -> failwith "server snapshot unparsable"

let snapshot srv = command srv "s"

(* Quits the server and reaps it; returns its last counters. *)
let stop srv =
  let last = command srv "q" in
  ignore (Unix.waitpid [] srv.pid);
  Unix.close srv.ctl;
  Unix.close srv.report;
  last

(* --- the generator ------------------------------------------------ *)

type slot = {
  home : int;  (** the connection this slot's reads use *)
  mutable write : bool;
  mutable reg : int;  (** the shard, i.e. the register, of the op's key *)
  mutable datum : int;
  mutable read : Regcheck.read;
  mutable sent_at : float;
  mutable span : int;  (** op span id in the traced window, else -1 *)
}

type gen = {
  loop : Loop.t;
  mutable conns : Conn.t array;
  pending : (int, slot) Hashtbl.t array;  (** per connection, by req id *)
  rng : Rng.t;
  sampler : Dds_workload.Skew.sampler;
  mix : mix;
  check : Regcheck.t;
  mutable next_req : int;
  mutable next_datum : int;
  mutable issuing : bool;  (** false: let the in-flight ops drain *)
  mutable inflight : int;
  mutable closing : bool;
  mutable attempted : int;
  mutable answered : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable lost : bool;
  mutable first_answer : float;
  mutable recording : bool;
  mutable reads_us : Stats.samples;
  mutable writes_us : Stats.samples;
  mutable spans : Span.t option;
}

let fail g why =
  g.failed <- g.failed + 1;
  if g.first_failure = None then g.first_failure <- Some why

let issue g slot =
  let write = Rng.float g.rng 1.0 < g.mix.write_ratio in
  let key, _rank = Dds_workload.Skew.draw g.sampler in
  let reg = Placement.route placement ~key in
  let conn = if write then Placement.writer placement reg else slot.home in
  g.next_req <- g.next_req + 1;
  let req = g.next_req in
  slot.write <- write;
  slot.reg <- reg;
  if write then begin
    g.next_datum <- g.next_datum + 1;
    slot.datum <- g.next_datum;
    Regcheck.write_sent g.check reg slot.datum
  end
  else slot.read <- Regcheck.read_sent g.check reg;
  let t0 = now () in
  let frame =
    Wire.frame
      (if write then Frame.buf_write_req ~req ~key ~data:slot.datum ()
       else Frame.buf_read_req ~req ~key ())
  in
  (match g.spans with
  | Some sp ->
    slot.span <- Span.open_ sp "client.op" ~start:t0;
    Span.add sp ~parent:slot.span "net.encode" ~start:t0 ~stop:(now ())
  | None -> slot.span <- -1);
  slot.sent_at <- t0;
  Hashtbl.replace g.pending.(conn) req slot;
  g.attempted <- g.attempted + 1;
  Conn.write g.conns.(conn) frame

let complete g slot = if g.issuing then issue g slot else g.inflight <- g.inflight - 1

let on_frame g conn payload =
  let t0 = now () in
  match Frame.decode ~version:Wire.v2 payload with
  | exception (Wire.Truncated | Wire.Malformed _) -> fail g "malformed frame from the server"
  | Frame.Resp { req; value; key = _ } -> (
    let t1 = now () in
    match Hashtbl.find_opt g.pending.(conn) req with
    | None -> fail g (Printf.sprintf "response to unknown request %d" req)
    | Some slot ->
      Hashtbl.remove g.pending.(conn) req;
      let ok =
        if slot.write then Regcheck.write_acked g.check slot.reg slot.datum
        else Regcheck.read_ok g.check slot.read value.Value.data
      in
      if not ok then
        fail g
          (Printf.sprintf "%s on shard %d answered %d out of order or stale"
             (if slot.write then "write" else "read")
             slot.reg value.Value.data);
      g.answered <- g.answered + 1;
      if Float.is_nan g.first_answer then g.first_answer <- t1;
      if g.recording then
        Stats.push (if slot.write then g.writes_us else g.reads_us) ((t1 -. slot.sent_at) *. 1e6);
      (match g.spans with
      | Some sp when slot.span >= 0 ->
        Span.add sp ~parent:slot.span "net.decode" ~start:t0 ~stop:t1;
        Span.close sp slot.span ~stop:t1
      | Some _ | None -> ());
      complete g slot)
  | Frame.Err { req; reason } -> (
    fail g ("server error: " ^ reason);
    match Hashtbl.find_opt g.pending.(conn) req with
    | Some slot ->
      Hashtbl.remove g.pending.(conn) req;
      complete g slot
    | None ->
      g.lost <- true;
      Loop.stop g.loop)
  | Frame.Hello _ -> (* the server's version ack *) ()
  | Frame.Client_hello _ | Frame.Msg _ | Frame.Read_req _ | Frame.Write_req _ ->
    fail g "unexpected frame from the server"

let connect g srv node i =
  let host, port = srv.addrs.(node) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let conn =
    Conn.create ~loop:g.loop ~fd
      ~on_frame:(fun _ payload -> on_frame g i payload)
      ~on_close:(fun _ ->
        if not g.closing then begin
          for _ = 1 to Hashtbl.length g.pending.(i) do
            fail g "connection lost"
          done;
          g.lost <- true;
          Loop.stop g.loop
        end)
  in
  Conn.write_frame conn (Frame.buf_client_hello ());
  conn

let run_while g pred = Loop.run_while g.loop (fun () -> (not g.lost) && pred ())

(* Stop issuing, let the in-flight ops answer, close both connections. *)
let drain g =
  g.issuing <- false;
  let deadline = now () +. 10. in
  run_while g (fun () -> g.inflight > 0 && now () < deadline);
  if g.inflight > 0 && not g.lost then
    for _ = 1 to g.inflight do
      fail g "no answer within 10 s of the end"
    done;
  g.closing <- true;
  Array.iter Conn.close g.conns

type setup = {
  srv : server;
  gen : gen;
  setup_s : float;  (** start to the end of the warm-up *)
  scaled_setup_s : float;  (** the same at nominal speed of the server *)
  mesh_ready_s : float;  (** fork to the first answered op *)
}

(* Fork, mesh links and handshakes, client connections, warm-up. *)
let set_up ~mix ~seed =
  let t_start = now () in
  let srv = start () in
  if read_line srv.report <> "ready" then failwith "server did not report ready";
  let rng = Rng.create ~seed in
  let g =
    {
      loop = Loop.create ();
      conns = [||];
      pending = [| Hashtbl.create 64; Hashtbl.create 64 |];
      sampler = Dds_workload.Skew.sampler ~rng:(Rng.split rng) ~keys:mix.keys ~s:mix.zipf_s;
      rng;
      mix;
      check = Regcheck.create ~registers:shards ~initial:0;
      next_req = 0;
      next_datum = 0;
      issuing = true;
      inflight = 0;
      closing = false;
      attempted = 0;
      answered = 0;
      failed = 0;
      first_failure = None;
      lost = false;
      first_answer = nan;
      recording = false;
      reads_us = Stats.samples ();
      writes_us = Stats.samples ();
      spans = None;
    }
  in
  g.conns <- [| connect g srv 0 0; connect g srv 1 1 |];
  let slots =
    Array.init (2 * slots_per_conn) (fun i ->
        {
          home = i mod 2;
          write = false;
          reg = 0;
          datum = 0;
          read = Regcheck.read_sent g.check 0;
          sent_at = 0.;
          span = -1;
        })
  in
  g.inflight <- Array.length slots;
  Array.iter (issue g) slots;
  run_while g (fun () -> g.answered < warmup_ops);
  if g.lost then failwith "connection lost during warm-up";
  let setup_s = now () -. t_start in
  (* The server has run its reference work since it started, so its
     totals now cover the set-up. *)
  let slowed = Host.slowdown Host.origin (snapshot srv).calibration in
  {
    srv;
    gen = g;
    setup_s;
    scaled_setup_s = (if slowed.Host.n > 0 then setup_s /. slowed.Host.wall else setup_s);
    mesh_ready_s = g.first_answer -. t_start;
  }

type window = {
  wall_s : float;
  ops : int;
  server_cpu_s : float;
  client_cpu_s : float;
  server_slowdown : Host.slowdown;
  client_slowdown : Host.slowdown;
  server_minor_words : float;
  transmits : int;
  tcp_segs : float;
  wire_bytes : float;
  reads_us : float array;
  writes_us : float array;
  noise : Host.noise;
}

(* One timed window of the closed loop. The server's CPU, counters and
   reference work are read at both ends; this process runs its own
   reference work under the profiling timer while the window lasts. *)
let window s ~seconds =
  let g = s.gen in
  let snap0 = snapshot s.srv in
  let scpu0 = Host.cpu_s_of_pid s.srv.pid and ccpu0 = Host.self_cpu_s () in
  let st0 = Host.cpu_stat () and segs0 = Host.tcp_out_segs () and lo0 = Host.lo_bytes () in
  g.reads_us <- Stats.samples ();
  g.writes_us <- Stats.samples ();
  let answered0 = g.answered in
  Host.calibrate true;
  let k0 = Host.calibration () in
  g.recording <- true;
  let t0 = now () in
  run_while g (fun () -> now () -. t0 < seconds);
  let t1 = now () in
  g.recording <- false;
  let k1 = Host.calibration () in
  Host.calibrate false;
  let ops = g.answered - answered0 in
  let ccpu1 = Host.self_cpu_s () and scpu1 = Host.cpu_s_of_pid s.srv.pid in
  let st1 = Host.cpu_stat () and segs1 = Host.tcp_out_segs () and lo1 = Host.lo_bytes () in
  let snap1 = snapshot s.srv in
  let wall_s = t1 -. t0 in
  let server_cpu_s = scpu1 -. scpu0 and client_cpu_s = ccpu1 -. ccpu0 in
  {
    wall_s;
    ops;
    server_cpu_s;
    client_cpu_s;
    server_slowdown = Host.slowdown snap0.calibration snap1.calibration;
    client_slowdown = Host.slowdown k0 k1;
    server_minor_words = snap1.minor_words -. snap0.minor_words;
    transmits = snap1.transmit - snap0.transmit;
    tcp_segs = segs1 -. segs0;
    wire_bytes = lo1 -. lo0;
    reads_us = Stats.to_array g.reads_us;
    writes_us = Stats.to_array g.writes_us;
    noise =
      {
        Host.steal_frac = Host.steal_frac st0 st1;
        cpu_wall_ratio = (server_cpu_s +. client_cpu_s) /. wall_s;
        load = Host.loadavg ();
      };
  }

(* Several windows as one: sums, and every latency sample. *)
let merge = function
  | [] -> invalid_arg "Live.merge: no window"
  | w :: ws ->
    List.fold_left
      (fun a b ->
        let wall_s = a.wall_s +. b.wall_s in
        {
          wall_s;
          ops = a.ops + b.ops;
          server_cpu_s = a.server_cpu_s +. b.server_cpu_s;
          client_cpu_s = a.client_cpu_s +. b.client_cpu_s;
          server_slowdown = Host.merge a.server_slowdown b.server_slowdown;
          client_slowdown = Host.merge a.client_slowdown b.client_slowdown;
          server_minor_words = a.server_minor_words +. b.server_minor_words;
          transmits = a.transmits + b.transmits;
          tcp_segs = a.tcp_segs +. b.tcp_segs;
          wire_bytes = a.wire_bytes +. b.wire_bytes;
          reads_us = Array.append a.reads_us b.reads_us;
          writes_us = Array.append a.writes_us b.writes_us;
          noise =
            {
              Host.steal_frac =
                ((a.noise.Host.steal_frac *. a.wall_s) +. (b.noise.Host.steal_frac *. b.wall_s)) /. wall_s;
              cpu_wall_ratio = (a.server_cpu_s +. b.server_cpu_s +. a.client_cpu_s +. b.client_cpu_s) /. wall_s;
              load = b.noise.Host.load;
            };
        })
      w ws

(* CPU of both processes per op, and ops per second, at nominal host
   speed: each process's work is scaled by its own reference. The
   server is the bottleneck (one process hosts the whole mesh), so
   throughput is scaled by the server's wall-clock slowdown. *)
let scaled_cpu_us_per_op w =
  (Host.scaled_cpu w.server_slowdown w.server_cpu_s +. Host.scaled_cpu w.client_slowdown w.client_cpu_s)
  /. float_of_int w.ops *. 1e6

let scaled_ops_per_s w = float_of_int w.ops /. Host.scaled_wall w.server_slowdown w.wall_s

type teardown = { last : snapshot; server_rss_mb : float }

let tear_down s =
  let server_rss_mb = Host.peak_rss_mb s.srv.pid in
  drain s.gen;
  { last = stop s.srv; server_rss_mb }

let server_failures t = t.last.dropped + t.last.malformed + t.last.misrouted + t.last.refused
