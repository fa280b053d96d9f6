open Dds_sim

(** Closed-loop load generator for [dds load].

    [clients] concurrent clients each issue one operation, wait for its
    response, and immediately issue the next, for [duration] seconds.
    Every op is routed by the deployment's [placement] alone: it draws
    a key from a zipfian popularity curve ({!Dds_workload.Skew},
    exponent [skew] over [keys] keys), carries it on the wire, and
    lands on a node of the key's shard — a read on a random reachable
    owner, a write on the shard's designated writer, preserving the
    per-shard single-writer regime. [run] refuses to start when some
    shard has no reachable owner, or, with writes, when some shard's
    writer is unreachable. An op still unanswered {!straggler_ms} past
    the deadline counts as an error and its client is closed, so a
    shard that cannot reach its quorum ends the run instead of hanging
    it.

    Latencies are recorded in microseconds straight into histograms
    registered in one {!Dds_sim.Metrics.t} — [latency.read_us] and
    [latency.write_us] by op kind, [latency.hot_us] (top 1% of ranks)
    and [latency.cold_us] by key class — so [--metrics-out] renders
    the recorded sums and extremes the way the simulator's snapshots
    do. *)

type report = {
  ops : int;
  reads : int;
  writes : int;
  errors : int;
  elapsed_s : float;
  read_lat_us : Histogram.t;
  write_lat_us : Histogram.t;
  hot_lat_us : Histogram.t;  (** ops on hot keys *)
  cold_lat_us : Histogram.t;  (** ops on cold keys *)
  hot_keys : int;  (** size of the hot class *)
  metrics : Metrics.t;  (** the histograms above, [load.*] counters and the ops/s gauge *)
}

let ops_per_s r = if r.elapsed_s > 0. then float_of_int r.ops /. r.elapsed_s else 0.

(* 50 us .. ~1.6 s in x2 buckets — loopback round trips sit low in
   this range, a congested mesh stretches to the top. *)
let lat_edges = Array.init 15 (fun i -> 50. *. (2. ** float_of_int i))

(* The default synthetic key space; overridable with ~keys. Any span
   well above the shard count spreads fine. *)
let default_keys = 4096

(* How long past the deadline an op in flight may still be answered.
   A reachable owner of a shard with fewer live owners than its quorum
   never answers. A healthy mesh answers within milliseconds, so the
   grace only cuts off ops that were not going to finish. *)
let straggler_ms = 1000.

type client = {
  conns : Conn.t option array;  (** index = node; [None] iff unreachable *)
  mutable req : int;
  mutable issued_at : float;  (** ms, of the op in flight *)
  mutable writing : bool;  (** the op in flight is a write *)
  mutable hot : bool;  (** the op in flight addresses a hot key *)
  mutable dead : bool;  (** counted out of [t.live] already *)
}

type t = {
  loop : Loop.t;
  placement : Placement.t;
  readers : int array array;  (** shard -> its reachable owners *)
  sampler : Dds_workload.Skew.sampler;
  write_ratio : float;
  deadline_ms : float;
  rng : Rng.t;
  mutable live : int;  (** clients still draining *)
  mutable errors : int;
  mutable next_datum : int;
  read_lat : Histogram.t;
  write_lat : Histogram.t;
  hot_lat : Histogram.t;
  cold_lat : Histogram.t;
}

let count_out t st =
  if not st.dead then begin
    st.dead <- true;
    t.live <- t.live - 1;
    if t.live = 0 then Loop.stop t.loop
  end

(* Mark dead before closing: each close fires on_close, which must not
   count this client out a second time. *)
let retire t st =
  count_out t st;
  Array.iter (Option.iter Conn.close) st.conns

let issue t st =
  if Loop.now_ms () >= t.deadline_ms then retire t st
  else begin
    st.req <- st.req + 1;
    st.issued_at <- Loop.now_ms ();
    let write = Rng.float t.rng 1.0 < t.write_ratio in
    let key, rank = Dds_workload.Skew.draw t.sampler in
    let shard = Placement.route t.placement ~key in
    (* Writes funnel to the shard's designated writer; reads land on a
       random reachable owner — any replica of the shard serves them. *)
    let target =
      if write then Placement.writer t.placement shard
      else
        let owners = t.readers.(shard) in
        owners.(Rng.int t.rng (Array.length owners))
    in
    let conn = Option.get st.conns.(target) in
    st.writing <- write;
    st.hot <- rank < Dds_workload.Skew.hot_ranks t.sampler;
    if write then begin
      t.next_datum <- t.next_datum + 1;
      Conn.write_frame conn (Frame.buf_write_req ~req:st.req ~key ~data:t.next_datum ())
    end
    else Conn.write_frame conn (Frame.buf_read_req ~req:st.req ~key ())
  end

let on_frame t st payload =
  match Frame.decode payload with
  | Frame.Resp { req; _ } when req = st.req ->
    let lat_us = (Loop.now_ms () -. st.issued_at) *. 1000. in
    Histogram.add (if st.writing then t.write_lat else t.read_lat) lat_us;
    Histogram.add (if st.hot then t.hot_lat else t.cold_lat) lat_us;
    issue t st
  | Frame.Err { req; reason = _ } when req = st.req ->
    t.errors <- t.errors + 1;
    issue t st
  | _ -> ()

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let dial (host, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | exception Unix.Unix_error _ ->
    close_fd fd;
    None
  | () -> Some fd

let connect_client t fds =
  let st_ref = ref None in
  let attach fd =
    let conn =
      Conn.create ~loop:t.loop ~fd
        ~on_frame:(fun _ payload -> Option.iter (fun st -> on_frame t st payload) !st_ref)
        ~on_close:(fun _ ->
          (* A node died mid-run; count the client out. *)
          Option.iter (count_out t) !st_ref)
    in
    (* The server acks with its Hello, which [on_frame] skips (it only
       matches Resp/Err on the op in flight). Pipelining the first op
       behind the hello is safe: a server that refuses the hello
       answers with a connection-level Err and closes. *)
    Conn.write_frame conn (Frame.buf_client_hello ());
    conn
  in
  let st =
    {
      conns = Array.map (Option.map attach) fds;
      req = -1;
      issued_at = -1.;
      writing = false;
      hot = false;
      dead = false;
    }
  in
  st_ref := Some st;
  st

(* Why the placement cannot be served from the reachable nodes, if it
   cannot: a shard with no reachable owner, or — when the load writes —
   a shard whose writer is unreachable. *)
let unroutable ~placement ~readers ~up ~write_ratio =
  let rec go shard =
    if shard >= Placement.shards placement then None
    else
      let writer = Placement.writer placement shard in
      if readers.(shard) = [||] then
        Some (Printf.sprintf "load: shard %d has no reachable owner" shard)
      else if write_ratio > 0. && not up.(writer) then
        Some (Printf.sprintf "load: shard %d's writer, node %d, is unreachable" shard writer)
      else go (shard + 1)
  in
  go 0

let run ~placement ?(keys = default_keys) ?(skew = 0.0) ~addrs ~clients ~duration_s
    ~write_ratio ~seed () =
  if clients < 1 then failwith "load: needs at least one client";
  (* Every client dials every node. A node is reachable only if every
     client reached it, so all clients route alike. *)
  let dialed = Array.init clients (fun _ -> Array.map dial addrs) in
  let up =
    Array.init (Array.length addrs) (fun node ->
        Array.for_all (fun fds -> Option.is_some fds.(node)) dialed)
  in
  let fds =
    Array.map
      (Array.mapi (fun node fd ->
           if up.(node) then fd
           else begin
             Option.iter close_fd fd;
             None
           end))
      dialed
  in
  let readers =
    Array.init (Placement.shards placement) (fun shard ->
        Array.of_list (List.filter (fun node -> up.(node)) (Placement.owners placement shard)))
  in
  Option.iter
    (fun e ->
      Array.iter (Array.iter (Option.iter close_fd)) fds;
      failwith e)
    (unroutable ~placement ~readers ~up ~write_ratio);
  let loop = Loop.create () in
  let started = Loop.now_ms () in
  let rng = Rng.create ~seed in
  let metrics = Metrics.create () in
  let hist name = Metrics.histogram metrics name ~edges:lat_edges in
  let t =
    {
      loop;
      placement;
      readers;
      sampler = Dds_workload.Skew.sampler ~rng ~keys ~s:skew;
      write_ratio;
      deadline_ms = started +. (duration_s *. 1000.);
      rng;
      live = clients;
      errors = 0;
      next_datum = 1_000_000;  (* distinct from anything dds client writes by hand *)
      read_lat = hist "latency.read_us";
      write_lat = hist "latency.write_us";
      hot_lat = hist "latency.hot_us";
      cold_lat = hist "latency.cold_us";
    }
  in
  let clients = Array.map (connect_client t) fds in
  Array.iter (issue t) clients;
  ignore
    (Loop.after_ms loop
       (int_of_float (t.deadline_ms +. straggler_ms -. Loop.now_ms ()))
       (fun () ->
         Array.iter
           (fun st ->
             if not st.dead then begin
               t.errors <- t.errors + 1;
               retire t st
             end)
           clients)
      : unit -> unit);
  Loop.run loop;
  let reads = Histogram.count t.read_lat and writes = Histogram.count t.write_lat in
  let r =
    {
      ops = reads + writes;
      reads;
      writes;
      errors = t.errors;
      elapsed_s = (Loop.now_ms () -. started) /. 1000.;
      read_lat_us = t.read_lat;
      write_lat_us = t.write_lat;
      hot_lat_us = t.hot_lat;
      cold_lat_us = t.cold_lat;
      hot_keys = Dds_workload.Skew.hot_ranks t.sampler;
      metrics;
    }
  in
  Metrics.add metrics "load.ops" r.ops;
  Metrics.add metrics "load.reads" reads;
  Metrics.add metrics "load.writes" writes;
  Metrics.add metrics "load.errors" r.errors;
  Metrics.set_gauge metrics "load.ops_per_s" (ops_per_s r);
  r
