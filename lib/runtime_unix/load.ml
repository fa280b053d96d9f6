open Dds_sim

(** Closed-loop load generator for [dds load].

    [clients] concurrent clients each issue one operation, wait for its
    response, and immediately issue the next, for [duration] seconds.
    Where each operation lands is the routing policy:

    - [Fixed] (the default, the historical behavior): each client sits
      on one node; writes respect the single-writer regime the
      protocols' correctness arguments assume, so only the clients
      assigned to node 0 write (node 0 serializes concurrent client
      writes through its operation queue) and everyone else reads from
      their own node. Every op addresses key 0.
    - [Round_robin]: each client holds one connection per node and
      walks the mesh, op [k] to node [k mod n] — reads and writes
      alike, a uniform spread that deliberately exercises the
      multi-writer path. Every op addresses key 0.
    - [Key_hash]: real keyed traffic against the sharded store. Each
      op draws a key from a zipfian popularity curve ({!Dds_workload.Skew},
      exponent [skew] over [keys] keys), carries it on the wire, and
      lands on a node of the key's shard under [placement] — reads on
      any owner, writes on the shard's designated writer, preserving
      the per-shard single-writer regime. Latencies are additionally
      split into hot (top 1% of ranks) and cold key classes, so the
      report shows what skew does to the head of the popularity curve
      vs the tail.

    Latencies land in microsecond histograms and flow out through the
    same {!Dds_sim.Histogram} / {!Dds_sim.Metrics} pipeline the
    simulator's latency tables use. *)

type route = Fixed | Round_robin | Key_hash

let route_to_string = function
  | Fixed -> "fixed"
  | Round_robin -> "round-robin"
  | Key_hash -> "key-hash"

type report = {
  ops : int;
  reads : int;
  writes : int;
  errors : int;
  elapsed_s : float;
  read_lat_us : Histogram.t;
  write_lat_us : Histogram.t;
  hot_lat_us : Histogram.t;  (** ops on hot keys; empty off [Key_hash] *)
  cold_lat_us : Histogram.t;  (** ops on cold keys; empty off [Key_hash] *)
  hot_keys : int;  (** size of the hot class (0 off [Key_hash]) *)
}

let ops_per_s r = if r.elapsed_s > 0. then float_of_int r.ops /. r.elapsed_s else 0.

(* 50 us .. ~1.6 s in x2 buckets — loopback round trips sit low in
   this range, a congested mesh stretches to the top. *)
let lat_edges = Array.init 15 (fun i -> 50. *. (2. ** float_of_int i))

(* The default synthetic key space for Key_hash; overridable with
   ~keys. Any span well above the shard count spreads fine. *)
let default_keys = 4096

type client = {
  conns : Conn.t option array;  (** index = node; [Fixed] fills only [home] *)
  home : int;  (** this client's node under [Fixed] *)
  mutable req : int;
  mutable issued_at : float;  (** ms, of the op in flight *)
  mutable writing : bool;  (** the op in flight is a write *)
  mutable hot : bool;  (** the op in flight addresses a hot key *)
  mutable dead : bool;  (** counted out of [t.live] already *)
}

type t = {
  loop : Loop.t;
  addrs : (string * int) array;
  placement : Placement.t;
  sampler : Dds_workload.Skew.sampler option;  (** [Some] iff Key_hash *)
  write_ratio : float;
  route : route;
  deadline_ms : float;
  rng : Rng.t;
  mutable live : int;  (** clients still draining *)
  mutable ops : int;
  mutable reads : int;
  mutable writes : int;
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

let issue t st =
  if Loop.now_ms () >= t.deadline_ms then begin
    (* Mark dead before closing: each close fires on_close, which must
       not count this client out a second time. *)
    count_out t st;
    Array.iter (function Some c -> Conn.close c | None -> ()) st.conns
  end
  else begin
    st.req <- st.req + 1;
    st.issued_at <- Loop.now_ms ();
    let n = Array.length t.addrs in
    let want_write = Rng.float t.rng 1.0 < t.write_ratio in
    let key, target, write, hot =
      match t.route with
      | Fixed ->
        (* Fixed keeps the single-writer funnel: only node-0 clients
           write, everyone else falls back to a read (the historical
           behavior). *)
        (0, st.home, want_write && st.home = 0, false)
      | Round_robin -> (0, st.req mod n, want_write, false)
      | Key_hash ->
        let sm = Option.get t.sampler in
        let key, rank = Dds_workload.Skew.draw sm in
        let shard = Placement.route t.placement ~key in
        let owners = Placement.owners t.placement shard in
        (* Writes funnel to the shard's designated writer; reads land
           on a random owner — any replica of the shard serves them. *)
        let target =
          if want_write then Placement.writer t.placement shard
          else List.nth owners (Rng.int t.rng (List.length owners))
        in
        (key, target, want_write, rank < Dds_workload.Skew.hot_ranks sm)
    in
    let conn =
      match st.conns.(target) with
      | Some _ as c -> c
      | None ->
        (* That node was unreachable at start (or died): any live
           connection still measures a round trip. *)
        Array.fold_left
          (fun acc c -> match acc with Some _ -> acc | None -> c)
          None st.conns
    in
    match conn with
    | None -> count_out t st
    | Some conn ->
      st.writing <- write;
      st.hot <- hot;
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
    t.ops <- t.ops + 1;
    if st.writing then begin
      t.writes <- t.writes + 1;
      Histogram.add t.write_lat lat_us
    end
    else begin
      t.reads <- t.reads + 1;
      Histogram.add t.read_lat lat_us
    end;
    if t.route = Key_hash then
      Histogram.add (if st.hot then t.hot_lat else t.cold_lat) lat_us;
    issue t st
  | Frame.Err { req; reason = _ } when req = st.req ->
    t.errors <- t.errors + 1;
    issue t st
  | _ -> ()

let dial t node =
  let host, port = t.addrs.(node) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port)) with
  | exception Unix.Unix_error _ ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    None
  | () -> Some fd

let connect_client t i =
  let n = Array.length t.addrs in
  let home =
    match t.route with
    | Fixed ->
      (* Writes only happen on node 0 under Fixed, so bias assignment:
         the requested write_ratio share of clients sit on node 0, the
         rest round-robin over the whole mesh for reads. *)
      if t.write_ratio > 0. && i mod (Stdlib.max 1 (int_of_float (1. /. t.write_ratio))) = 0
      then 0
      else i mod n
    | Round_robin | Key_hash -> i mod n
  in
  let st_ref = ref None in
  let mk node =
    match dial t node with
    | None -> None
    | Some fd ->
      let conn =
        Conn.create ~loop:t.loop ~fd
          ~on_frame:(fun _ payload ->
            match !st_ref with Some st -> on_frame t st payload | None -> ())
          ~on_close:(fun _ ->
            match !st_ref with
            | Some st when st.issued_at >= 0. ->
              (* Node died mid-op; count the client out. *)
              count_out t st
            | _ -> ())
      in
      (* The server acks with its Hello, which [on_frame] skips (it
         only matches Resp/Err on the op in flight). Pipelining the
         first op behind the hello is safe: a server that refuses the
         hello answers with a connection-level Err and closes. *)
      Conn.write_frame conn (Frame.buf_client_hello ());
      Some conn
  in
  let conns = Array.make n None in
  (match t.route with
  | Fixed -> conns.(home) <- mk home
  | Round_robin | Key_hash ->
    for node = 0 to n - 1 do
      conns.(node) <- mk node
    done);
  if Array.for_all Option.is_none conns then None
  else begin
    let st =
      { conns; home; req = -1; issued_at = -1.; writing = false; hot = false; dead = false }
    in
    st_ref := Some st;
    Some st
  end

let run ?placement ?(keys = default_keys) ?(skew = 0.0) ~addrs ~clients ~duration_s
    ~write_ratio ~route ~seed () =
  let n = Array.length addrs in
  let placement =
    match placement with
    | Some p -> p
    (* Default for keyed routing: as many shards as nodes, everyone
       owning everything — the spread [Shard.route ~shards:n] gave
       before placements existed. *)
    | None -> Placement.all ~nodes:n ~shards:n
  in
  let loop = Loop.create () in
  let started = Loop.now_ms () in
  let rng = Rng.create ~seed in
  let t =
    {
      loop;
      addrs;
      placement;
      sampler =
        (match route with
        | Key_hash -> Some (Dds_workload.Skew.sampler ~rng ~keys ~s:skew)
        | Fixed | Round_robin -> None);
      write_ratio;
      route;
      deadline_ms = started +. (duration_s *. 1000.);
      rng;
      live = 0;
      ops = 0;
      reads = 0;
      writes = 0;
      errors = 0;
      next_datum = 1_000_000;  (* distinct from anything dds client writes by hand *)
      read_lat = Histogram.create ~edges:lat_edges;
      write_lat = Histogram.create ~edges:lat_edges;
      hot_lat = Histogram.create ~edges:lat_edges;
      cold_lat = Histogram.create ~edges:lat_edges;
    }
  in
  let states = List.filter_map (connect_client t) (List.init clients (fun i -> i)) in
  t.live <- List.length states;
  if t.live = 0 then failwith "load: no connection could be established";
  List.iter (fun st -> issue t st) states;
  Loop.run loop;
  {
    ops = t.ops;
    reads = t.reads;
    writes = t.writes;
    errors = t.errors;
    elapsed_s = (Loop.now_ms () -. started) /. 1000.;
    read_lat_us = t.read_lat;
    write_lat_us = t.write_lat;
    hot_lat_us = t.hot_lat;
    cold_lat_us = t.cold_lat;
    hot_keys =
      (match t.sampler with Some sm -> Dds_workload.Skew.hot_ranks sm | None -> 0);
  }

let metrics_of_report r =
  let m = Metrics.create () in
  let fill name src =
    (* Rebuild the latencies inside a Metrics.t histogram so the
       snapshot path (Export.metrics_to_json) renders them like every
       simulator latency; bucket midpoints stand in for the raw
       samples, which percentile extraction cannot tell apart. *)
    let dst = Metrics.histogram m name ~edges:lat_edges in
    Array.iteri
      (fun i count ->
        let v =
          if i = 0 then lat_edges.(0) /. 2.
          else lat_edges.(Stdlib.min (i - 1) (Array.length lat_edges - 1))
        in
        for _ = 1 to count do
          Histogram.add dst v
        done)
      (Histogram.counts src)
  in
  fill "latency.read_us" r.read_lat_us;
  fill "latency.write_us" r.write_lat_us;
  if r.hot_keys > 0 then begin
    fill "latency.hot_us" r.hot_lat_us;
    fill "latency.cold_us" r.cold_lat_us
  end;
  Metrics.add m "load.ops" r.ops;
  Metrics.add m "load.reads" r.reads;
  Metrics.add m "load.writes" r.writes;
  Metrics.add m "load.errors" r.errors;
  Metrics.set_gauge m "load.ops_per_s" (ops_per_s r);
  m
