open Dds_sim
open Dds_net
open Dds_runtime

(** A live keyed store node: one process hosting one protocol instance
    per owned shard, all served over a single TCP mesh.

    A store node {e hosts} registers rather than being one — shard [s]
    of a [Placement.t] is a full, independent instance of the protocol
    state machine (own event sink, own Lamport clock, own operation
    queue, own membership via the owners of [s]), and every client
    operation carries a 63-bit key that routes to
    [Placement.route ~key] — the same SplitMix64 placement hash the
    simulated sharded store uses, so a live mesh and a [dds run
    --shards] simulation spread one key-space identically.

    {b The mesh is shared, the registers are not.} Node [i] keeps one
    outgoing TCP link per peer exactly as before; a protocol message
    now travels in a [Msg] frame stamped with its shard id, and the
    receiver demultiplexes to that shard's instance (dropping frames
    for shards it does not own — a misrouted frame is a peer's
    placement bug, counted in [net.misrouted]). Per-shard sends go
    only to the shard's owners, so a heterogeneous placement really
    does confine each register's traffic to its replica set.

    {b One wire layout.} Every connection speaks {!Wire.v2}. Its first
    frame is a hello carrying a version byte: a [Client_hello] naming
    v2 or higher is acknowledged with a [Hello] naming v2 (a newer
    client is clamped down); a [Client_hello] below v2, or a peer
    [Hello] naming anything but v2, is refused with a typed [Err]
    ([req = -1]) and a close; a frame that does not decode, an
    unversioned hello included, counts [net.malformed] and closes the
    connection. Never a crash.

    {b Telemetry.} Each instance's span ids start at
    [(self * shards + shard) * 1_000_000] — the shard×10⁶ convention
    of the simulated store composed with the node×10⁶ convention of
    the single-register runtime (for [shards = 1] it degenerates to
    exactly the old per-node bases), so spans stay globally unique in
    a merged trace.
    With [shards > 1] the trace stream tags every line with its
    ["shard"] index — the PR 9 JSONL field — so [dds audit] groups the
    merged per-node traces back into independently checkable
    registers; a 1-shard store writes untagged traces. *)

let default_epoch_ms () =
  (* Midnight UTC today: processes of one deployment started the same
     day agree on it without coordination; cross-midnight deployments
     pass --epoch explicitly. *)
  let t = Unix.gettimeofday () in
  let tm = Unix.gmtime t in
  let midnight, _ = Unix.mktime { tm with tm_hour = 0; tm_min = 0; tm_sec = 0 } in
  (* mktime interprets in local time; correct by the difference between
     gmtime and localtime of the same instant. *)
  let local, _ = Unix.mktime (Unix.localtime t) in
  let gm_as_local, _ = Unix.mktime (Unix.gmtime t) in
  (midnight -. (gm_as_local -. local)) *. 1000.

let span_base ~self ~shards ~shard = ((self * shards) + shard) * 1_000_000

type config = {
  self : int;  (** index into [addrs] = this node's pid *)
  addrs : (string * int) array;  (** the whole mesh, index = pid *)
  placement : Placement.t;  (** the static shard map, shared mesh-wide *)
  join : bool;  (** enter via the protocol's join instead of founding *)
  initial_value : int;  (** founding members' initial register datum *)
  epoch_ms : float;  (** shared time origin (unix ms) *)
  events_enabled : bool;
  trace_path : string option;  (** stream events to this JSONL file *)
  listen_fd : Unix.file_descr option;
      (** pre-bound listening socket (in-process tests use ephemeral
          ports and need the port known before nodes dial each other) *)
}

let default_config ~self ~addrs =
  {
    self;
    addrs;
    placement = Placement.all ~nodes:(Array.length addrs) ~shards:1;
    join = false;
    initial_value = 0;
    epoch_ms = default_epoch_ms ();
    events_enabled = true;
    trace_path = None;
    listen_fd = None;
  }

module Make (P : Dds_core.Register_intf.PROTOCOL) = struct
  type link = {
    peer : int;
    mutable conn : Conn.t option;  (** established, hello sent *)
    mutable dialing : bool;
  }

  type client_op = Do_read | Do_write of int

  type pending = {
    p_conn : Conn.t;
    p_req : int;
    p_key : int;
    p_op : client_op;
  }

  type instance = {
    shard : int;
    sink : Event.sink;
    mutable lamport : int;
    mutable handler : (src:Pid.t -> P.msg -> unit) option;
    mutable node : P.node option;
    mutable left : bool;
    queue : pending Queue.t;
    mutable op_busy : bool;
  }

  type t = {
    cfg : config;
    loop : Loop.t;
    metrics : Metrics.t;
    links : link array;  (** outgoing, index = peer pid; [self] unused *)
    mutable listen : Unix.file_descr option;
    instances : instance option array;  (** index = shard; [Some] iff owned *)
    mutable left : bool;
    mutable trace_chan : out_channel option;
    mutable stop_flush : unit -> unit;
  }

  let self_i t = t.cfg.self
  let pid t = Pid.of_int t.cfg.self
  let metrics t = t.metrics
  let shards t = Placement.shards t.cfg.placement
  let owned_shards t = Placement.owned t.cfg.placement t.cfg.self

  let instance t shard =
    if shard < 0 || shard >= Array.length t.instances then None else t.instances.(shard)

  let instance_exn t shard =
    match instance t shard with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Store: shard %d not owned" shard)

  let sink t shard = (instance_exn t shard).sink
  let node t shard = match (instance_exn t shard).node with Some n -> n | None -> assert false

  let active t shard =
    match instance t shard with
    | Some { node = Some n; _ } -> P.is_active n
    | Some { node = None; _ } | None -> false

  (* --- clock ------------------------------------------------------- *)

  let now t =
    let ms = int_of_float (Loop.now_ms () -. t.cfg.epoch_ms) in
    Time.of_int (Stdlib.max 0 ms)

  let emit t inst ev =
    if Event.enabled inst.sink then Event.emit inst.sink ~at:(now t) ev

  let tick_send inst =
    inst.lamport <- inst.lamport + 1;
    inst.lamport

  let tick_recv inst ~sent =
    inst.lamport <- Stdlib.max inst.lamport sent + 1;
    inst.lamport

  (* --- transport --------------------------------------------------- *)

  let announce t inst ~bcast ~dst msg =
    Metrics.incr t.metrics "net.transmit";
    let lc = if Event.enabled inst.sink then tick_send inst else 0 in
    emit t inst
      (Event.Send
         { src = self_i t; dst; kind = P.msg_kind msg; broadcast = bcast; lamport = lc });
    lc

  (* A copy to ourselves: broadcasts include the sender, and the sync
     protocol's joiner answers its own INQUIRY queue through this
     path. Delivery is deferred to the next loop turn so a handler
     never re-enters itself — the simulator's >= 1 tick delay gives
     the same guarantee there. *)
  let after_ms_ignore loop d f = ignore (Loop.after_ms loop d f : unit -> unit)

  (* One protocol op per instance at a time. A write is its own round;
     a read at the head of the queue takes every read queued right
     behind it into the same round, stopping at the first write so no
     read overtakes one. Each batched read was invoked before the round
     started and is answered after it ended, so the round's interval
     lies inside every batched read's interval and its value is legal
     for each of them. *)
  let rec pump t inst =
    if (not inst.op_busy) && not (Queue.is_empty inst.queue) then
      match inst.node with
      | Some node when P.is_active node && not (P.busy node) -> (
        let p = Queue.pop inst.queue in
        inst.op_busy <- true;
        let k batch value =
          inst.op_busy <- false;
          List.iter
            (fun p ->
              Conn.write_frame p.p_conn
                (Frame.buf_resp ~req:p.p_req ~key:p.p_key value))
            batch;
          pump t inst
        in
        match p.p_op with
        | Do_write data -> P.write node data ~k:(k [ p ])
        | Do_read ->
          let rec take rev =
            match Queue.peek_opt inst.queue with
            | Some ({ p_op = Do_read; _ } as q) ->
              ignore (Queue.pop inst.queue : pending);
              take (q :: rev)
            | Some { p_op = Do_write _; _ } | None -> List.rev rev
          in
          let batch = take [ p ] in
          let size = List.length batch in
          if size > 1 then Metrics.add t.metrics "store.reads_coalesced" (size - 1);
          P.read node ~k:(k batch))
      | Some _ | None -> ()

  let deliver_local t inst ~sent_lc msg =
    after_ms_ignore t.loop 0 (fun () ->
        match inst.handler with
        | Some h when not inst.left ->
          Metrics.incr t.metrics "net.delivered";
          let recv_lc =
            if Event.enabled inst.sink then tick_recv inst ~sent:sent_lc else 0
          in
          emit t inst
            (Event.Deliver
               {
                 src = self_i t;
                 dst = self_i t;
                 kind = P.msg_kind msg;
                 lamport = recv_lc;
                 sent = sent_lc;
               });
          h ~src:(pid t) msg
        | Some _ | None ->
          Metrics.incr t.metrics "net.dropped";
          emit t inst
            (Event.Drop
               { src = self_i t; dst = self_i t; kind = P.msg_kind msg; reason = Event.Departed }))

  let link_ready t peer =
    peer <> self_i t
    && match t.links.(peer).conn with Some c -> not c.Conn.closed | None -> false

  let transmit t inst ~bcast dst msg =
    if dst = self_i t then begin
      let lc = announce t inst ~bcast ~dst msg in
      deliver_local t inst ~sent_lc:lc msg
    end
    else
      match t.links.(dst).conn with
      | Some conn when not conn.Conn.closed ->
        let lc = announce t inst ~bcast ~dst msg in
        let b = Frame.buf_msg_header ~src:(self_i t) ~lamport:lc ~shard:inst.shard () in
        P.put_msg b msg;
        Conn.write_frame conn b
      | Some _ | None -> Metrics.incr t.metrics "net.dropped"

  (* A shard's messages are confined to its owners: a send to a
     non-owner is a protocol bug surfaced as a dropped message, not a
     wire frame the peer would have to discard. *)
  let rt_send t inst ~src:_ ~dst msg =
    let dst = Pid.to_int dst in
    let owners = Placement.owners t.cfg.placement inst.shard in
    let attached =
      List.mem dst owners
      && ((dst = self_i t && inst.handler <> None) || link_ready t dst)
    in
    if attached then begin
      Metrics.incr t.metrics "net.sent";
      transmit t inst ~bcast:false dst msg
    end
    else Metrics.incr t.metrics "net.dropped"

  let rt_broadcast t inst ~src:_ msg =
    Metrics.incr t.metrics "net.broadcast";
    (* Present set = ourselves plus every owner of this shard our
       outgoing link reaches, in pid order — the wire analogue of the
       simulator's sorted attached snapshot, restricted to the shard's
       replica set. *)
    List.iter
      (fun dst ->
        if (dst = self_i t && inst.handler <> None) || link_ready t dst then
          transmit t inst ~bcast:true dst msg)
      (Placement.owners t.cfg.placement inst.shard)

  let runtime t inst : P.msg Runtime.t =
    {
      Runtime.now = (fun () -> now t);
      after = (fun ~who:_ d f -> Loop.after_ms t.loop d f);
      send = (fun ~src ~dst m -> rt_send t inst ~src ~dst m);
      broadcast = (fun ~src m -> rt_broadcast t inst ~src m);
      attach =
        (fun p h ->
          if not (Pid.equal p (pid t)) then invalid_arg "Store runtime: foreign attach";
          inst.handler <- Some h);
      detach =
        (fun p ->
          if Pid.equal p (pid t) then begin
            inst.handler <- None;
            inst.left <- true
          end);
      events = Some inst.sink;
      incr = (fun name -> Metrics.incr t.metrics name);
    }

  (* --- incoming frames --------------------------------------------- *)

  let on_peer_msg t inst ~src ~lamport rest =
    match
      let msg = P.get_msg rest in
      Wire.expect_end rest;
      msg
    with
    | exception (Wire.Truncated | Wire.Malformed _) ->
      Metrics.incr t.metrics "net.malformed"
    | msg -> (
      match inst.handler with
      | Some h when not inst.left ->
        Metrics.incr t.metrics "net.delivered";
        let recv_lc = if Event.enabled inst.sink then tick_recv inst ~sent:lamport else 0 in
        emit t inst
          (Event.Deliver
             { src; dst = self_i t; kind = P.msg_kind msg; lamport = recv_lc; sent = lamport });
        h ~src:(Pid.of_int src) msg;
        pump t inst
      | Some _ | None ->
        Metrics.incr t.metrics "net.dropped";
        emit t inst
          (Event.Drop { src; dst = self_i t; kind = P.msg_kind msg; reason = Event.Departed }))

  let err t conn ~req reason =
    Metrics.incr t.metrics "net.refused";
    Conn.write_frame conn (Frame.buf_err ~req reason)

  let enqueue_client_op t conn ~req ~key op =
    let shard = Placement.route t.cfg.placement ~key in
    match instance t shard with
    | None ->
      err t conn ~req
        (Printf.sprintf "shard %d (key %d) not owned by node %d (owned: %s)" shard key
           (self_i t)
           (String.concat "," (List.map string_of_int (owned_shards t))))
    | Some inst ->
      Queue.push { p_conn = conn; p_req = req; p_key = key; p_op = op } inst.queue

  (* Client ops decoded from one socket read are queued first and
     pumped once the read is drained, so a pipelined burst of reads
     forms one run even when its instance is idle — a protocol whose
     read answers synchronously (sync's local read) would otherwise
     never let a second read queue. *)
  let pump_all t = Array.iter (function Some inst -> pump t inst | None -> ()) t.instances

  let refuse t conn version =
    err t conn ~req:Frame.no_req (Printf.sprintf "unsupported wire version %d" version);
    Conn.close conn

  let on_incoming_frame t conn payload =
    match Frame.decode payload with
    | exception (Wire.Truncated | Wire.Malformed _) ->
      Metrics.incr t.metrics "net.malformed";
      Conn.close conn
    | Frame.Hello { pid = _; version } ->
      (* A dialing peer's Msg frames are only decodable at v2. *)
      if version <> Wire.v2 then refuse t conn version
    | Frame.Client_hello { version } ->
      (* A newer client is clamped down to v2 and told so by the ack. *)
      if version < Wire.v2 then refuse t conn version
      else Conn.write_frame conn (Frame.buf_hello (self_i t))
    | Frame.Msg { src; lamport; shard; rest } -> (
      match instance t shard with
      | Some inst -> on_peer_msg t inst ~src ~lamport rest
      | None -> Metrics.incr t.metrics "net.misrouted")
    | Frame.Read_req { req; key } -> enqueue_client_op t conn ~req ~key Do_read
    | Frame.Write_req { req; key; data } -> enqueue_client_op t conn ~req ~key (Do_write data)
    | Frame.Resp _ | Frame.Err _ -> Metrics.incr t.metrics "net.malformed"

  (* --- outgoing links ---------------------------------------------- *)

  let rec dial t link =
    if (not link.dialing) && (not t.left) && not (Loop.stopped t.loop) then begin
      link.dialing <- true;
      let host, port = t.cfg.addrs.(link.peer) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.set_nonblock fd;
      let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
      let finish ok =
        Loop.unwatch_write t.loop fd;
        if ok then begin
          Unix.clear_nonblock fd;
          let conn =
            Conn.create ~loop:t.loop ~fd
              ~on_frame:(fun _ _ -> (* the reply direction is unused *) ())
              ~on_close:(fun _ ->
                link.conn <- None;
                retry t link)
          in
          link.conn <- Some conn;
          link.dialing <- false;
          Conn.write_frame conn (Frame.buf_hello (self_i t))
        end
        else begin
          (try Unix.close fd with Unix.Unix_error _ -> ());
          link.dialing <- false;
          retry t link
        end
      in
      match Unix.connect fd addr with
      | () -> finish true
      | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) ->
        Loop.watch_write t.loop fd (fun () ->
            let ok = Unix.getsockopt_error fd = None in
            finish ok)
      | exception Unix.Unix_error _ -> finish false
    end

  and retry t link =
    if (not t.left) && not (Loop.stopped t.loop) then
      after_ms_ignore t.loop 250 (fun () -> dial t link)

  (* --- listener ---------------------------------------------------- *)

  let listen_socket cfg =
    match cfg.listen_fd with
    | Some fd -> fd
    | None ->
      let host, port = cfg.addrs.(cfg.self) in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen fd 512;
      fd

  let accept_loop t fd =
    Loop.watch_read t.loop fd (fun () ->
        match Unix.accept fd with
        | exception Unix.Unix_error _ -> ()
        | client_fd, _ ->
          let conn =
            Conn.create ~loop:t.loop ~fd:client_fd
              ~on_frame:(fun conn payload -> on_incoming_frame t conn payload)
              ~on_close:(fun _ -> ())
          in
          conn.Conn.on_drained <- (fun () -> pump_all t))

  (* --- trace streaming --------------------------------------------- *)

  let start_trace t =
    match t.cfg.trace_path with
    | None -> ()
    | Some path ->
      let chan = open_out path in
      t.trace_chan <- Some chan;
      let tag shard = if shards t > 1 then Some shard else None in
      Array.iter
        (function
          | None -> ()
          | Some inst ->
            Event.on_emit inst.sink (fun stamped ->
                output_string chan
                  (Json.to_string (Export.tagged_event_to_json (tag inst.shard) stamped));
                output_char chan '\n'))
        t.instances;
      (* Flush on a timer rather than per event: a SIGTERM'd process
         loses at most the last partial line, which the lenient JSONL
         readers tolerate. *)
      let rec flush_later () =
        t.stop_flush <-
          Loop.after_ms t.loop 200 (fun () ->
              flush chan;
              flush_later ())
      in
      flush_later ()

  (* --- lifecycle --------------------------------------------------- *)

  let start_instance t inst params =
    if t.cfg.join then begin
      emit t inst (Event.Node_join { node = self_i t });
      (* A joiner dialing a mesh that is already up must not broadcast
         its INQUIRY into the void: wait until the outgoing links reach
         a majority of this shard's owners (counting ourselves) before
         starting the protocol's join. *)
      let owners = Placement.owners t.cfg.placement inst.shard in
      let need_links = (List.length owners / 2) + 1 - 1 in
      let rec when_connected () =
        let ready =
          List.length (List.filter (fun peer -> link_ready t peer) owners)
        in
        if ready >= need_links then
          inst.node <-
            Some
              (P.create ~rt:(runtime t inst) ~params ~pid:(pid t) ~initial:None
                 ~on_active:(fun _ -> pump t inst))
        else after_ms_ignore t.loop 50 when_connected
      in
      when_connected ()
    end
    else begin
      (* Founding members are active from the origin of the
         deployment's shared time line. *)
      if Event.enabled inst.sink then
        Event.emit inst.sink ~at:Time.zero (Event.Node_join { node = self_i t });
      inst.node <-
        Some
          (P.create ~rt:(runtime t inst) ~params ~pid:(pid t)
             ~initial:(Some (Dds_spec.Value.initial t.cfg.initial_value))
             ~on_active:(fun _ -> pump t inst))
    end

  let create ~loop cfg params_of =
    let nshards = Placement.shards cfg.placement in
    let events_on = cfg.events_enabled || cfg.trace_path <> None in
    let owned = Placement.owned cfg.placement cfg.self in
    let instances =
      Array.init nshards (fun shard ->
          if List.mem shard owned then
            Some
              {
                shard;
                sink =
                  Event.create
                    ~first_span:(span_base ~self:cfg.self ~shards:nshards ~shard)
                    ~enabled:events_on ();
                lamport = 0;
                handler = None;
                node = None;
                left = false;
                queue = Queue.create ();
                op_busy = false;
              }
          else None)
    in
    let t =
      {
        cfg;
        loop;
        metrics = Metrics.create ();
        links =
          Array.init (Array.length cfg.addrs) (fun peer ->
              { peer; conn = None; dialing = false });
        listen = None;
        instances;
        left = false;
        trace_chan = None;
        stop_flush = ignore;
      }
    in
    start_trace t;
    let fd = listen_socket cfg in
    t.listen <- Some fd;
    accept_loop t fd;
    Array.iter (fun link -> if link.peer <> cfg.self then dial t link) t.links;
    Array.iter
      (function Some inst -> start_instance t inst (params_of inst.shard) | None -> ())
      t.instances;
    t

  let shutdown t =
    t.left <- true;
    Array.iter
      (function Some (inst : instance) -> inst.left <- true | None -> ())
      t.instances;
    (match t.listen with
    | Some fd ->
      Loop.unwatch_read t.loop fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.listen <- None
    | None -> ());
    Array.iter
      (fun link -> match link.conn with Some c -> Conn.close c | None -> ())
      t.links;
    t.stop_flush ();
    (match t.trace_chan with
    | Some chan ->
      flush chan;
      close_out_noerr chan;
      t.trace_chan <- None
    | None -> ())
end
