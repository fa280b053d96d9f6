(* Tests for the Unix runtime backend: wire-codec round trips for
   every protocol's messages, strict truncation behaviour, deframer
   chunking, the keyed frame envelope (round trips, strict-prefix
   rejection, byte fuzzing, the hello version checks against a live
   server), a connection's output leaving once per loop turn (and
   before EOF on close), and live loopback TCP deployments — a 3-node
   single register and a 3-node 2-shard keyed store — whose merged
   traces must audit to the same Regularity verdicts as equivalent
   simulated runs. *)

open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_workload
module Loop = Dds_runtime_unix.Loop
module Conn = Dds_runtime_unix.Conn
module Frame = Dds_runtime_unix.Frame
module Store = Dds_runtime_unix.Store
module Placement = Dds_runtime_unix.Placement
module Client = Dds_runtime_unix.Client
module Load = Dds_runtime_unix.Load
module Shard = Dds_shard.Shard
module Verdict = Dds_monitor.Verdict

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Generators *)

let value_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.bottom);
        (8, map2 (fun data sn -> { Value.data; sn }) int (map abs int));
      ])

let sync_msg_gen =
  QCheck.Gen.(
    oneof
      [
        return Sync_register.Inquiry;
        map (fun v -> Sync_register.Reply v) value_gen;
        map (fun v -> Sync_register.Write_msg v) value_gen;
      ])

let es_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r_sn -> Es_register.Inquiry { r_sn }) nat;
        map (fun r_sn -> Es_register.Read_req { r_sn }) nat;
        map2 (fun value r_sn -> Es_register.Reply { value; r_sn }) value_gen nat;
        map (fun value -> Es_register.Write_msg { value }) value_gen;
        map (fun sn -> Es_register.Ack { sn }) nat;
        map (fun r_sn -> Es_register.Dl_prev { r_sn }) nat;
      ])

let abd_msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun r_sn -> Abd_register.Read_req { r_sn }) nat;
        map2 (fun value r_sn -> Abd_register.Read_reply { value; r_sn }) value_gen nat;
        map2 (fun value wid -> Abd_register.Write_req { value; wid }) value_gen nat;
        map (fun wid -> Abd_register.Write_ack { wid }) nat;
      ])

let encode put msg =
  let b = Buffer.create 64 in
  put b msg;
  Buffer.contents b

let roundtrips (type m) (module P : Register_intf.PROTOCOL with type msg = m) eq pp gen =
  QCheck.Test.make ~count:500
    ~name:(Printf.sprintf "%s codec round-trips" P.name)
    (QCheck.make ~print:(Format.asprintf "%a" pp) gen)
    (fun msg ->
      let s = encode P.put_msg msg in
      let r = Wire.reader s in
      let back = P.get_msg r in
      Wire.expect_end r;
      eq msg back)

(* Every strict prefix of an encoding must raise Truncated — no prefix
   of a valid message is itself a valid message. *)
let rejects_truncation (type m) (module P : Register_intf.PROTOCOL with type msg = m) gen =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "%s codec rejects truncation" P.name)
    (QCheck.make gen)
    (fun msg ->
      let s = encode P.put_msg msg in
      let ok = ref true in
      for k = 0 to String.length s - 1 do
        let prefix = String.sub s 0 k in
        (match P.get_msg (Wire.reader prefix) with
        | _ -> ok := false
        | exception Wire.Truncated -> ()
        | exception Wire.Malformed _ -> ())
      done;
      !ok)

let codec_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      roundtrips (module Sync_register) ( = ) Sync_register.pp_msg sync_msg_gen;
      roundtrips (module Es_register) ( = ) Es_register.pp_msg es_msg_gen;
      roundtrips (module Abd_register) ( = ) Abd_register.pp_msg abd_msg_gen;
      rejects_truncation (module Sync_register) sync_msg_gen;
      rejects_truncation (module Es_register) es_msg_gen;
      rejects_truncation (module Abd_register) abd_msg_gen;
    ]

(* ------------------------------------------------------------------ *)
(* v2 keyed frame envelope *)

let key_gen = QCheck.Gen.(map abs int)  (* keys are 63-bit non-negative *)

(* A protocol message wrapped in a v2 Msg envelope survives the trip:
   src, lamport and shard come back exactly, and the remainder reader
   decodes to the original message with nothing left over. *)
let envelope_roundtrips (type m) (module P : Register_intf.PROTOCOL with type msg = m) eq gen =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "%s v2 Msg envelope round-trips" P.name)
    (QCheck.make QCheck.Gen.(pair (pair nat nat) (pair (int_bound 1023) gen)))
    (fun ((src, lamport), (shard, msg)) ->
      let b = Frame.buf_msg_header ~src ~lamport ~shard () in
      P.put_msg b msg;
      match Frame.decode (Buffer.contents b) with
      | Frame.Msg { src = s; lamport = lc; shard = sh; rest } ->
        let back = P.get_msg rest in
        Wire.expect_end rest;
        s = src && lc = lamport && sh = shard && eq msg back
      | _ -> false)

(* The keyed client frames: req, key and payload survive the trip. *)
let keyed_client_frames_roundtrip =
  QCheck.Test.make ~count:500 ~name:"v2 keyed client frames round-trip"
    (QCheck.make QCheck.Gen.(pair (pair nat key_gen) (pair int value_gen)))
    (fun ((req, key), (data, value)) ->
      let dec b = Frame.decode (Buffer.contents b) in
      (match dec (Frame.buf_read_req ~req ~key ()) with
      | Frame.Read_req { req = r; key = k } -> r = req && k = key
      | _ -> false)
      && (match dec (Frame.buf_write_req ~req ~key ~data ()) with
         | Frame.Write_req { req = r; key = k; data = d } -> r = req && k = key && d = data
         | _ -> false)
      &&
      match dec (Frame.buf_resp ~req ~key value) with
      | Frame.Resp { req = r; key = k; value = v } -> r = req && k = key && v = value
      | _ -> false)

(* Every strict prefix of an envelope encoding must raise — same
   discipline the protocol codecs already obey, extended to the keyed
   layouts and to the hellos, whose version byte is not optional. Msg
   needs the protocol codec applied to its remainder (the envelope
   defers payload decoding by design). *)
let envelope_rejects_truncation =
  QCheck.Test.make ~count:100 ~name:"v2 envelope rejects strict prefixes"
    (QCheck.make QCheck.Gen.(pair (pair nat key_gen) (pair int es_msg_gen)))
    (fun ((req, key), (data, msg)) ->
      let cases =
        [ (Buffer.contents (Frame.buf_hello req), false);
          (Buffer.contents (Frame.buf_client_hello ()), false);
          (Buffer.contents (Frame.buf_read_req ~req ~key ()), false);
          (Buffer.contents (Frame.buf_write_req ~req ~key ~data ()), false);
          (Buffer.contents (Frame.buf_resp ~req ~key Value.bottom), false);
          (Buffer.contents (Frame.buf_err ~req "refused"), false);
          ( (let b = Frame.buf_msg_header ~src:1 ~lamport:2 ~shard:3 () in
             Es_register.put_msg b msg;
             Buffer.contents b),
            true ) ]
      in
      List.for_all
        (fun (s, is_msg) ->
          let ok = ref true in
          for k = 0 to String.length s - 1 do
            let prefix = String.sub s 0 k in
            match Frame.decode prefix with
            | Frame.Msg { rest; _ } when is_msg -> (
              (* header may parse; the payload decode must then fail *)
              match Es_register.get_msg rest with
              | _ -> ok := false
              | exception Wire.Truncated -> ()
              | exception Wire.Malformed _ -> ())
            | _ -> ok := false
            | exception Wire.Truncated -> ()
            | exception Wire.Malformed _ -> ()
          done;
          !ok)
        cases)

let test_negative_key_rejected () =
  let b = Buffer.create 8 in
  match Wire.put_key b (-1) with
  | () -> Alcotest.fail "negative key accepted"
  | exception Wire.Malformed _ -> ()

let envelope_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      envelope_roundtrips (module Sync_register) ( = ) sync_msg_gen;
      envelope_roundtrips (module Es_register) ( = ) es_msg_gen;
      envelope_roundtrips (module Abd_register) ( = ) abd_msg_gen;
      keyed_client_frames_roundtrip;
      envelope_rejects_truncation;
    ]
  @ [ Alcotest.test_case "negative key rejected at encode" `Quick test_negative_key_rejected ]

(* ------------------------------------------------------------------ *)
(* Byte fuzzing *)

(* Decode a payload as a live node does: the envelope, then for a Msg
   the protocol codec over the remainder. A value, [Truncated] and
   [Malformed] are the only outcomes a node is prepared for; any other
   exception escapes and fails the property. *)
let decode_typed (type m) (module P : Register_intf.PROTOCOL with type msg = m) payload =
  try
    match Frame.decode payload with
    | Frame.Msg { rest; _ } ->
      ignore (P.get_msg rest : m);
      Wire.expect_end rest
    | _ -> ()
  with Wire.Truncated | Wire.Malformed _ -> ()

let decoders =
  [ decode_typed (module Sync_register);
    decode_typed (module Es_register);
    decode_typed (module Abd_register) ]

(* A valid encoding of any frame kind; Msg carries a [P] message. *)
let frame_gen (type m) (module P : Register_intf.PROTOCOL with type msg = m) msg_gen =
  QCheck.Gen.(
    map3
      (fun (req, key) (data, value) (kind, msg) ->
        let b =
          match kind with
          | 0 -> Frame.buf_hello req
          | 1 -> Frame.buf_client_hello ()
          | 2 ->
            let b = Frame.buf_msg_header ~src:req ~lamport:data ~shard:key () in
            P.put_msg b msg;
            b
          | 3 -> Frame.buf_read_req ~req ~key ()
          | 4 -> Frame.buf_write_req ~req ~key ~data ()
          | 5 -> Frame.buf_resp ~req ~key value
          | _ -> Frame.buf_err ~req "refused"
        in
        Buffer.contents b)
      (pair nat key_gen) (pair int value_gen)
      (pair (int_bound 6) msg_gen))

(* Arbitrary bytes, half of them led by a valid envelope tag so the
   field decoders behind the tag see garbage too. *)
let garbage_gen =
  QCheck.Gen.(
    let body = string_size ~gen:char (int_range 0 64) in
    oneof [ body; map2 (fun tag rest -> String.make 1 (Char.chr tag) ^ rest) (int_bound 6) body ])

(* One byte of [s] replaced, inserted or deleted. *)
let edit s (kind, pos, byte) =
  let n = String.length s in
  let c = String.make 1 (Char.chr byte) in
  match kind with
  | 0 ->
    let i = pos mod n in
    String.sub s 0 i ^ c ^ String.sub s (i + 1) (n - i - 1)
  | 1 ->
    let i = pos mod (n + 1) in
    String.sub s 0 i ^ c ^ String.sub s i (n - i)
  | _ ->
    let i = pos mod n in
    String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)

let edit_gen = QCheck.Gen.(triple (int_bound 2) nat (int_bound 255))

let fuzz_garbage (type m) (module P : Register_intf.PROTOCOL with type msg = m) =
  QCheck.Test.make ~count:1000
    ~name:(Printf.sprintf "%s decode fuzz: arbitrary bytes" P.name)
    (QCheck.make ~print:String.escaped garbage_gen)
    (fun s ->
      decode_typed (module P) s;
      true)

let fuzz_edits (type m) (module P : Register_intf.PROTOCOL with type msg = m) msg_gen =
  QCheck.Test.make ~count:1000
    ~name:(Printf.sprintf "%s decode fuzz: one-byte edits of valid frames" P.name)
    (QCheck.make
       ~print:(fun (s, _) -> String.escaped s)
       QCheck.Gen.(pair (frame_gen (module P) msg_gen) edit_gen))
    (fun (s, e) ->
      decode_typed (module P) (edit s e);
      true)

(* A stream of framed payloads — valid envelopes and garbage alike,
   with at most one byte edited anywhere, length prefixes included —
   fed to a deframer in arbitrary chunk sizes. Feeding stops at the
   first [Malformed] from [feed] or [next_frame], as a connection
   closes; every popped payload goes through each protocol's
   decoder. *)
let fuzz_deframer =
  QCheck.Test.make ~count:500 ~name:"deframer fuzz: chunked frame streams"
    QCheck.(
      make
        Gen.(
          triple
            (list_size (int_range 0 6)
               (oneof [ frame_gen (module Es_register) es_msg_gen; garbage_gen ]))
            (option edit_gen)
            (list_size (int_range 1 40) (int_range 1 17))))
    (fun (payloads, corruption, chunks) ->
      let stream =
        String.concat ""
          (List.map
             (fun p ->
               let b = Buffer.create 64 in
               Buffer.add_string b p;
               Wire.frame b)
             payloads)
      in
      let stream =
        match corruption with Some e when stream <> "" -> edit stream e | _ -> stream
      in
      let d = Wire.deframer () in
      (* Pops every buffered payload; false once the stream is rejected. *)
      let rec pop () =
        match Wire.next_frame d with
        | Some p ->
          List.iter (fun decode -> decode p) decoders;
          pop ()
        | None -> true
        | exception Wire.Malformed _ -> false
      in
      let rec go pos sizes =
        if pos >= String.length stream then true
        else
          let size, sizes = match sizes with s :: rest -> (s, rest @ [ s ]) | [] -> (1, []) in
          let len = Stdlib.min size (String.length stream - pos) in
          match Wire.feed d (Bytes.of_string (String.sub stream pos len)) len with
          | exception Wire.Malformed _ -> true
          | () -> (not (pop ())) || go (pos + len) sizes
      in
      go 0 chunks)

let fuzz_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      fuzz_garbage (module Sync_register);
      fuzz_garbage (module Es_register);
      fuzz_garbage (module Abd_register);
      fuzz_edits (module Sync_register) sync_msg_gen;
      fuzz_edits (module Es_register) es_msg_gen;
      fuzz_edits (module Abd_register) abd_msg_gen;
      fuzz_deframer;
    ]

(* ------------------------------------------------------------------ *)
(* Wire primitives *)

let test_int_extremes () =
  List.iter
    (fun v ->
      let b = Buffer.create 8 in
      Wire.put_int b v;
      check_int "int round-trip" v (Wire.get_int (Wire.reader (Buffer.contents b))))
    [ 0; 1; -1; max_int; min_int; 42; -9_999_999_999 ]

let test_bottom_value_roundtrip () =
  let b = Buffer.create 16 in
  Value.put b Value.bottom;
  let back = Value.get (Wire.reader (Buffer.contents b)) in
  check_bool "bottom survives" true (Value.is_bottom back)

let test_expect_end () =
  let b = Buffer.create 8 in
  Wire.put_int b 7;
  Wire.put_u8 b 9;
  let r = Wire.reader (Buffer.contents b) in
  check_int "int" 7 (Wire.get_int r);
  (match Wire.expect_end r with
  | () -> Alcotest.fail "trailing byte not rejected"
  | exception Wire.Malformed _ -> ());
  check_int "trailing" 9 (Wire.get_u8 r);
  Wire.expect_end r

(* Frame several payloads, feed the concatenation to a deframer in
   arbitrary chunk sizes: the same payloads must pop out, in order,
   regardless of how the bytes were sliced. *)
let deframer_chunking =
  QCheck.Test.make ~count:300 ~name:"deframer reassembles across arbitrary chunking"
    QCheck.(
      make
        Gen.(
          pair
            (list_size (int_range 0 8) (string_size ~gen:char (int_range 0 64)))
            (list_size (int_range 1 40) (int_range 1 17))))
    (fun (payloads, chunks) ->
      let stream =
        String.concat ""
          (List.map
             (fun p ->
               let b = Buffer.create 64 in
               Buffer.add_string b p;
               Wire.frame b)
             payloads)
      in
      let d = Wire.deframer () in
      let out = ref [] in
      let pos = ref 0 in
      let sizes = ref chunks in
      while !pos < String.length stream do
        let size =
          match !sizes with
          | s :: rest ->
            sizes := rest @ [ s ];
            s
          | [] -> 1
        in
        let len = Stdlib.min size (String.length stream - !pos) in
        Wire.feed d (Bytes.of_string (String.sub stream !pos len)) len;
        pos := !pos + len;
        let continue = ref true in
        while !continue do
          match Wire.next_frame d with
          | Some p -> out := p :: !out
          | None -> continue := false
        done
      done;
      Wire.pending_bytes d = 0 && List.rev !out = payloads)

(* Thousands of small frames arriving in one read come back whole and
   in order: popping a frame must not copy the unread remainder. *)
let test_deframer_many_frames_one_chunk () =
  let payloads = List.init 2500 (fun i -> string_of_int i) in
  let stream =
    String.concat ""
      (List.map
         (fun p ->
           let b = Buffer.create 8 in
           Buffer.add_string b p;
           Wire.frame b)
         payloads)
  in
  let d = Wire.deframer () in
  Wire.feed d (Bytes.of_string stream) (String.length stream);
  let rec drain acc = match Wire.next_frame d with Some p -> drain (p :: acc) | None -> acc in
  check (Alcotest.list Alcotest.string) "every frame, in order" payloads (List.rev (drain []));
  check Alcotest.int "nothing pending" 0 (Wire.pending_bytes d)

let test_oversized_frame_rejected () =
  let d = Wire.deframer () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_frame + 1));
  match Wire.feed d b 4 with
  | () -> Alcotest.fail "oversized length accepted"
  | exception Wire.Malformed _ -> ()

(* Regression, found by the deframer fuzz: [feed] checks only the
   first buffered length prefix, so an oversized one arriving in the
   same chunk as a complete frame surfaces from [next_frame] once that
   frame is popped — as a typed [Malformed], which [Conn] must turn
   into a close rather than let escape the event loop. *)
let hello_then_oversized_prefix () =
  let b = Buffer.create 16 in
  Buffer.add_string b (Wire.frame (Frame.buf_client_hello ()));
  Buffer.add_int32_be b (Int32.of_int (Wire.max_frame + 1));
  Buffer.contents b

let test_oversized_prefix_behind_frame () =
  let s = hello_then_oversized_prefix () in
  let d = Wire.deframer () in
  Wire.feed d (Bytes.of_string s) (String.length s);
  check (Alcotest.option Alcotest.string) "frame ahead of the prefix"
    (Some (Buffer.contents (Frame.buf_client_hello ())))
    (Wire.next_frame d);
  match Wire.next_frame d with
  | _ -> Alcotest.fail "oversized length behind a frame accepted"
  | exception Wire.Malformed _ -> ()

(* ------------------------------------------------------------------ *)
(* Corking: a connection's output leaves once per loop turn *)

(* A [Conn] on one end of a socketpair; the test reads the other end
   directly. *)
let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let loop = Loop.create () in
  let closed = ref 0 in
  let conn =
    Conn.create ~loop ~fd:a ~on_frame:(fun _ _ -> ()) ~on_close:(fun _ -> incr closed)
  in
  Unix.set_nonblock b;
  Fun.protect
    ~finally:(fun () ->
      Conn.close conn;
      Unix.close b)
    (fun () -> f loop conn b closed)

let readable fd =
  match Unix.select [ fd ] [] [] 0. with [], _, _ -> false | _ :: _, _, _ -> true

(* Everything the peer can read right now: the frames, and whether EOF
   followed them. *)
let drain_peer fd =
  let d = Wire.deframer () and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
    | 0 -> true
    | n ->
      Wire.feed d chunk n;
      go ()
  in
  let eof = go () in
  let rec frames acc =
    match Wire.next_frame d with Some p -> frames (p :: acc) | None -> List.rev acc
  in
  (frames [], eof)

let cork_frames = List.map (fun req -> Frame.buf_read_req ~req ~key:req ()) [ 1; 2; 3 ]
let cork_payloads = List.map Buffer.contents cork_frames

let test_cork_holds_until_turn_end () =
  with_socketpair (fun loop conn peer _ ->
      let early = ref true in
      ignore
        (Loop.after_ms loop 0 (fun () ->
             List.iter (Conn.write_frame conn) cork_frames;
             early := readable peer;
             Loop.stop loop)
          : unit -> unit);
      Loop.run loop;
      check_bool "nothing at the peer during the turn" false !early;
      let frames, eof = drain_peer peer in
      check (Alcotest.list Alcotest.string) "every frame after the turn" cork_payloads frames;
      check_bool "connection still open" false eof)

(* [Load.run] and the benchmark's generator write their first requests
   before the loop runs; those must leave on the first turn, or a
   closed-loop client waits forever for answers to requests it never
   sent. *)
let test_cork_outside_turn_flushes_first () =
  with_socketpair (fun loop conn peer _ ->
      List.iter (Conn.write_frame conn) cork_frames;
      check_bool "nothing at the peer before the loop runs" false (readable peer);
      (* Bound the first turn's select. *)
      ignore (Loop.after_ms loop 5 ignore : unit -> unit);
      let turns = ref 0 in
      Loop.run_while loop (fun () ->
          incr turns;
          !turns <= 1);
      let frames, _ = drain_peer peer in
      check (Alcotest.list Alcotest.string) "every frame after one turn" cork_payloads frames)

(* A server answers a refused hello with an [Err] frame and closes in
   the same turn: [close] must send what is buffered before EOF. *)
let test_cork_close_drains () =
  with_socketpair (fun loop conn peer closed ->
      ignore
        (Loop.after_ms loop 0 (fun () ->
             Conn.write_frame conn (List.hd cork_frames);
             Conn.close conn;
             Loop.stop loop)
          : unit -> unit);
      Loop.run loop;
      check_int "on_close fired once" 1 !closed;
      let frames, eof = drain_peer peer in
      check (Alcotest.list Alcotest.string) "the frame written before close"
        [ List.hd cork_payloads ] frames;
      check_bool "then EOF" true eof)

(* ------------------------------------------------------------------ *)
(* Live loopback deployment *)

module S_es = Store.Make (Es_register)

let bind_ephemeral () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 64;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  (fd, port)

(* Whether `dds audit --proto es` passes [evs]: clean monitors (ES
   churn bound, standing majority, liveness at the default k = 10) and
   a REGULAR history. delta is in the trace's tick unit — simulator
   ticks for a simulated trace, milliseconds for a wire trace. *)
let audit_ok ~n ~delta evs =
  Verdict.is_ok
    (Harness.audit (Harness.monitor_config (Protocol.find_exn "es") ~n ~delta) ~initial:0 evs)

let read_tagged_trace path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Export.events_of_jsonl text with
  | Ok (tagged, _) -> tagged
  | Error e -> Alcotest.failf "%s: %s" path e

(* Every node's trace merged on the shared timeline, tags dropped. *)
let merged_trace paths = List.map snd (Export.merge_tagged (List.map read_tagged_trace paths))

(* A counter from a metrics JSON file, as [--metrics-out] writes it. *)
let metrics_counter path name =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok j ->
    Option.value ~default:0
      (Option.bind (Json.member "counters" j) (fun c ->
           Option.bind (Json.member name c) Json.to_int_opt))

(* The traffic identities a simulated trace obeys (test_obs), held to
   a live node's own trace and counters: one Send per net.transmit, one
   Deliver per net.delivered, and no more Drops than net.dropped. *)
let check_traffic_identities ~node ~trace ~metrics =
  let evs = List.map (fun (_, st) -> st.Event.ev) (read_tagged_trace trace) in
  let count pred = List.length (List.filter pred evs) in
  let counter = metrics_counter metrics in
  let name what = Printf.sprintf "node %d: %s" node what in
  check_int (name "Send events = net.transmit") (counter "net.transmit")
    (count (function Event.Send _ -> true | _ -> false));
  check_int (name "Deliver events = net.delivered") (counter "net.delivered")
    (count (function Event.Deliver _ -> true | _ -> false));
  check_bool (name "Drop events <= net.dropped") true
    (count (function Event.Drop _ -> true | _ -> false) <= counter "net.dropped")

(* Every Deliver's [sent] stamp is the Lamport stamp of a Send from its
   source to its destination in the merged trace. *)
let check_deliveries_paired merged =
  let sends = Hashtbl.create 1024 in
  List.iter
    (fun st ->
      match st.Event.ev with
      | Event.Send { src; dst; lamport; _ } -> Hashtbl.replace sends (src, dst, lamport) ()
      | _ -> ())
    merged;
  let unpaired =
    List.filter
      (fun st ->
        match st.Event.ev with
        | Event.Deliver { src; dst; sent; _ } -> not (Hashtbl.mem sends (src, dst, sent))
        | _ -> false)
      merged
  in
  check_int "Deliver events without their Send" 0 (List.length unpaired)

let test_loopback_deployment () =
  let n = 3 in
  let socks = Array.init n (fun _ -> bind_ephemeral ()) in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let traces =
    Array.init n (fun i -> Filename.temp_file (Printf.sprintf "dds-node%d-" i) ".jsonl")
  in
  let metrics =
    Array.init n (fun i -> Filename.temp_file (Printf.sprintf "dds-node%d-" i) ".json")
  in
  let epoch_ms = Store.default_epoch_ms () in
  let children =
    Array.init n (fun i ->
        let ctl_r, ctl_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          (* Child: run node i until the parent writes to the control
             pipe, then shut down cleanly (flushing the trace) and
             write its counters. *)
          Unix.close ctl_w;
          (try
             let loop = Loop.create () in
             let cfg =
               {
                 (Store.default_config ~self:i ~addrs) with
                 Store.epoch_ms;
                 trace_path = Some traces.(i);
                 listen_fd = Some (fst socks.(i));
               }
             in
             let node = S_es.create ~loop cfg (fun _shard -> Es_register.default_params ~n) in
             Loop.watch_read loop ctl_r (fun () ->
                 S_es.shutdown node;
                 Out_channel.with_open_bin metrics.(i) (fun oc ->
                     output_string oc
                       (Json.to_string
                          (Export.metrics_to_json (Metrics.snapshot (S_es.metrics node)))));
                 Loop.stop loop);
             Loop.run loop
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.close ctl_r;
          (pid, ctl_w))
  in
  Array.iter (fun (fd, _) -> Unix.close fd) socks;
  (* Scripted ops through the blocking client: two writes on node 0,
     then reads through two different nodes must observe the last
     write (no concurrent writer => regularity pins the value). *)
  let c0 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(0)) () in
  (match Client.write c0 11 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write 11: %s" e);
  (match Client.write c0 22 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write 22: %s" e);
  (match Client.read c0 with
  | Ok v -> check_int "read-own-write via node 0" 22 v.Value.data
  | Error e -> Alcotest.failf "read node 0: %s" e);
  let c1 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(1)) () in
  (match Client.read c1 with
  | Ok v -> check_int "read via node 1" 22 v.Value.data
  | Error e -> Alcotest.failf "read node 1: %s" e);
  Client.close c0;
  Client.close c1;
  (* A burst of keyed closed-loop load over the one-shard placement the
     nodes serve: every write goes to shard 0's writer, node 0, so the
     single-register audit below covers them, and every op completes. *)
  let report =
    Load.run ~placement:(Placement.all ~nodes:n ~shards:1) ~addrs ~clients:6 ~duration_s:0.6
      ~write_ratio:0.2 ~seed:7 ()
  in
  check_bool "load did work" true (report.Load.ops > 50);
  check_int "load errors" 0 report.Load.errors;
  check_bool "load wrote" true (report.Load.writes > 0);
  (* The metrics snapshot behind --metrics-out carries the recorded
     extremes, not bucket edges. *)
  let snap = Metrics.snapshot report.Load.metrics in
  let read_snap = List.assoc "latency.read_us" snap.Metrics.histogram_values in
  check (Alcotest.float 0.) "metrics read max is the recorded max"
    (Histogram.max_value report.Load.read_lat_us)
    read_snap.Metrics.max;
  check_int "metrics ops counter" report.Load.ops (Metrics.get report.Load.metrics "load.ops");
  (* Tear the mesh down and collect the traces. *)
  Array.iter (fun (_, ctl_w) -> ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1)) children;
  Array.iter
    (fun (pid, ctl_w) ->
      ignore (Unix.waitpid [] pid);
      Unix.close ctl_w)
    children;
  Array.iteri
    (fun node trace -> check_traffic_identities ~node ~trace ~metrics:metrics.(node))
    traces;
  let merged = merged_trace (Array.to_list traces) in
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (Array.append traces metrics);
  check_bool "merged trace non-trivial" true (List.length merged > 100);
  check_deliveries_paired merged;
  (* The wire trace must audit exactly like a simulated deployment:
     clean monitors, REGULAR verdict. delta = 30 ms on the wire (1
     tick = 1 ms), delta = 3 ticks in the simulator. *)
  let wire_ok = audit_ok ~n ~delta:30 merged in
  let module Es_d = Deployment.Make (Es_register) in
  let sim_cfg =
    {
      (Deployment.default_config ~seed:5 ~n ~delay:(Delay.synchronous ~delta:3)
         ~churn_rate:0.0)
      with
      Deployment.events_enabled = true;
    }
  in
  let d = Es_d.create sim_cfg (Es_register.default_params ~n) in
  let module G = Generator.Make (Es_d) in
  G.run d
    {
      Generator.read_rate = 0.5;
      write_every = 15;
      start = Time.of_int 1;
      until = Time.of_int 300;
    };
  let sim_ok = audit_ok ~n ~delta:3 (Event.events (Es_d.events d)) in
  check_bool "sim verdict clean" true sim_ok;
  check_bool "wire verdict matches sim" sim_ok wire_ok

(* ------------------------------------------------------------------ *)
(* Hello version checks against a live server *)

(* Fork a single-node es server and hand its port to [f]; teardown is
   unconditional so a failing probe cannot leak the child. *)
let with_single_node_server f =
  let sock, port = bind_ephemeral () in
  let addrs = [| ("127.0.0.1", port) |] in
  let ctl_r, ctl_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close ctl_w;
    (try
       let loop = Loop.create () in
       let cfg =
         {
           (Store.default_config ~self:0 ~addrs) with
           Store.events_enabled = false;
           listen_fd = Some sock;
         }
       in
       let node = S_es.create ~loop cfg (fun _shard -> Es_register.default_params ~n:1) in
       Loop.watch_read loop ctl_r (fun () ->
           S_es.shutdown node;
           Loop.stop loop);
       Loop.run loop
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close ctl_r;
    Unix.close sock;
    Fun.protect
      ~finally:(fun () ->
        (* EPIPE here means the server already died; [f] reports why. *)
        (try ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1) with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Unix.close ctl_w)
      (fun () -> f port)

let raw_dial port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let raw_send fd b =
  let s = Wire.frame b in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* The next [count] frames on [fd], decoded, in arrival order. *)
let raw_recv_frames fd count =
  let d = Wire.deframer () in
  let buf = Bytes.create 4096 in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Wire.next_frame d with
      | Some payload -> go (Frame.decode payload :: acc) (k - 1)
      | None ->
        let n = Unix.read fd buf 0 4096 in
        if n = 0 then Alcotest.fail "server closed without answering";
        Wire.feed d buf n;
        go acc k
  in
  go [] count

let raw_recv_frame fd = List.hd (raw_recv_frames fd 1)

(* A raw client hello: tag 1, then the given version byte, if any. *)
let raw_client_hello fd version =
  let b = Buffer.create 4 in
  Wire.put_u8 b 1;
  Option.iter (Wire.put_u8 b) version;
  raw_send fd b

(* A hello the server refuses must come back as a typed
   connection-level Err, not a crash and not silence. *)
let expect_refused what fd =
  match raw_recv_frame fd with
  | Frame.Err { req; _ } -> check_int (what ^ " err is connection-level") Frame.no_req req
  | _ -> Alcotest.failf "%s not refused with Err" what

let test_negotiation_matrix () =
  with_single_node_server (fun port ->
      (* v2 client: handshakes, then addresses keys. On a 1-shard
         server every key routes to shard 0, so keys 0 and 9000 name
         one register. *)
      let c2 = Client.connect ~host:"127.0.0.1" ~port () in
      (match Client.write c2 41 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "v2 write: %s" e);
      (match Client.read ~key:9000 c2 with
      | Ok v -> check_int "keyed read via 1-shard server" 41 v.Value.data
      | Error e -> Alcotest.failf "v2 keyed read: %s" e);
      (match Client.write ~key:9000 c2 52 with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "v2 keyed write: %s" e);
      Client.close c2;
      (* A client from the future (v3) is clamped to what we speak:
         the hello ack names v2, not an error. *)
      let fd = raw_dial port in
      raw_client_hello fd (Some 3);
      (match raw_recv_frame fd with
      | Frame.Hello { pid = 0; version } -> check_int "clamped to v2" Wire.v2 version
      | _ -> Alcotest.fail "v3 client hello not acked with a hello");
      Unix.close fd;
      (* Versions 0 and 1 are below the one layout this server speaks. *)
      List.iter
        (fun v ->
          let fd = raw_dial port in
          raw_client_hello fd (Some v);
          expect_refused (Printf.sprintf "version-%d" v) fd;
          Unix.close fd)
        [ 0; 1 ];
      (* Same for a peer hello announcing a version we cannot decode. *)
      let fd = raw_dial port in
      let b = Buffer.create 8 in
      Wire.put_u8 b 0;
      Wire.put_int b 1;
      Wire.put_u8 b 9;
      raw_send fd b;
      expect_refused "peer-v9" fd;
      Unix.close fd;
      (* A hello without its version byte is a malformed frame: the
         server closes the connection without sending anything. *)
      let fd = raw_dial port in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      raw_client_hello fd None;
      check_int "unversioned hello: closed, no frame" 0 (Unix.read fd (Bytes.create 64) 0 64);
      Unix.close fd;
      (* None of that disturbed the server: a v2 client still gets the
         last write back. *)
      let c = Client.connect ~host:"127.0.0.1" ~port () in
      (match Client.read c with
      | Ok v -> check_int "server still answers a v2 client" 52 v.Value.data
      | Error e -> Alcotest.failf "read after refusals: %s" e);
      Client.close c)

(* Regression for two inputs that used to kill a live server with an
   uncaught [Malformed]: a frame followed, in the same write, by an
   oversized length prefix; and a [Msg] whose protocol message is
   followed by a stray byte. The first closes its connection after the
   ack, the second counts as malformed and leaves its connection open,
   and the server goes on serving. *)
let test_hostile_frames () =
  with_single_node_server (fun port ->
      let fd = raw_dial port in
      let s = hello_then_oversized_prefix () in
      ignore (Unix.write_substring fd s 0 (String.length s));
      (match raw_recv_frame fd with
      | Frame.Hello _ -> ()
      | _ -> Alcotest.fail "client hello not acked");
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      check_int "oversized prefix: closed" 0 (Unix.read fd (Bytes.create 64) 0 64);
      Unix.close fd;
      let fd = raw_dial port in
      raw_send fd (Frame.buf_hello 0);
      let b = Frame.buf_msg_header ~src:0 ~lamport:1 ~shard:0 () in
      Es_register.put_msg b (Es_register.Inquiry { r_sn = 5 });
      Wire.put_u8 b 7;
      raw_send fd b;
      (* Same connection, so the ack proves the Msg was handled first. *)
      raw_send fd (Frame.buf_client_hello ());
      (match raw_recv_frame fd with
      | Frame.Hello _ -> ()
      | _ -> Alcotest.fail "connection dropped after a malformed Msg");
      Unix.close fd;
      (* A well-formed payload from a negative source, which no pid is:
         the frame is malformed, so the connection closes. *)
      let fd = raw_dial port in
      raw_send fd (Frame.buf_hello 0);
      let b = Frame.buf_msg_header ~src:(-1) ~lamport:1 ~shard:0 () in
      Es_register.put_msg b (Es_register.Inquiry { r_sn = 5 });
      raw_send fd b;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      check_int "negative source: closed" 0 (Unix.read fd (Bytes.create 64) 0 64);
      Unix.close fd;
      let c = Client.connect ~host:"127.0.0.1" ~port () in
      (match Client.write c 8 with
      | Ok v -> check_int "server still serving" 8 v.Value.data
      | Error e -> Alcotest.failf "write after hostile frames: %s" e);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Live multi-shard deployment *)

(* The smallest key that lands on [shard] — scripted ops need one key
   per shard, and the placement hash is a pure function so searching
   the low key space is deterministic. *)
let key_on ~shards shard =
  let rec go k =
    if k > 10_000 then Alcotest.failf "no key below 10000 routes to shard %d" shard
    else if Shard.route ~shards ~key:k = shard then k
    else go (k + 1)
  in
  go 0

(* Three nodes hosting two shards under the placement "0;0,1;0,1":
   shard 0 lives on everyone (writer = node 0), shard 1 only on nodes
   1 and 2 (writer = node 1). Scripted keyed ops pin a value into each
   shard, a zipfian keyed load exercises the mesh, and the merged
   tagged traces must audit REGULAR per shard — matching an equivalent
   simulated sharded run. *)
let test_sharded_loopback () =
  let n = 3 and shards = 2 in
  let placement =
    match Placement.make ~nodes:n ~shards ~spec:(Some "0;0,1;0,1") with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let socks = Array.init n (fun _ -> bind_ephemeral ()) in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let traces =
    Array.init n (fun i -> Filename.temp_file (Printf.sprintf "dds-store%d-" i) ".jsonl")
  in
  let epoch_ms = Store.default_epoch_ms () in
  let children =
    Array.init n (fun i ->
        let ctl_r, ctl_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close ctl_w;
          (try
             let loop = Loop.create () in
             let cfg =
               {
                 Store.self = i;
                 addrs;
                 placement;
                 join = false;
                 initial_value = 0;
                 epoch_ms;
                 events_enabled = true;
                 trace_path = Some traces.(i);
                 listen_fd = Some (fst socks.(i));
               }
             in
             let store =
               S_es.create ~loop cfg (fun shard ->
                   Es_register.default_params
                     ~n:(List.length (Placement.owners placement shard)))
             in
             Loop.watch_read loop ctl_r (fun () ->
                 S_es.shutdown store;
                 Loop.stop loop);
             Loop.run loop
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.close ctl_r;
          (pid, ctl_w))
  in
  Array.iter (fun (fd, _) -> Unix.close fd) socks;
  let k0 = key_on ~shards 0 and k1 = key_on ~shards 1 in
  (* Scripted keyed ops through each shard's writer, then cross-checked
     through node 2 (an owner of both shards). *)
  let c0 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(0)) () in
  (match Client.write ~key:k0 c0 111 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write shard 0: %s" e);
  let c1 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(1)) () in
  (match Client.write ~key:k1 c1 222 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "write shard 1: %s" e);
  let c2 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(2)) () in
  (match Client.read ~key:k0 c2 with
  | Ok v -> check_int "shard-0 read via node 2" 111 v.Value.data
  | Error e -> Alcotest.failf "read shard 0: %s" e);
  (match Client.read ~key:k1 c2 with
  | Ok v -> check_int "shard-1 read via node 2" 222 v.Value.data
  | Error e -> Alcotest.failf "read shard 1: %s" e);
  (* Node 0 does not own shard 1: the op must come back as a typed Err
     naming the misroute, not hang or crash the node. *)
  (match Client.read ~key:k1 c0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "node 0 served a shard it does not own");
  Client.close c0;
  Client.close c1;
  Client.close c2;
  (* Keyed zipfian load with the real placement: writes funnel to each
     shard's writer, reads spread over its owners, every op lands. *)
  let report =
    Load.run ~placement ~keys:64 ~skew:1.1 ~addrs ~clients:6 ~duration_s:0.6
      ~write_ratio:0.2 ~seed:9 ()
  in
  check_bool "keyed load did work" true (report.Load.ops > 50);
  check_int "keyed load errors" 0 report.Load.errors;
  check_bool "keyed load wrote" true (report.Load.writes > 0);
  check_int "hot class is top 1% (min 1)" 1 report.Load.hot_keys;
  check_int "hot + cold partition the ops" report.Load.ops
    (Histogram.count report.Load.hot_lat_us + Histogram.count report.Load.cold_lat_us);
  (* Tear down, merge the tagged traces, audit per shard. *)
  Array.iter (fun (_, ctl_w) -> ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1)) children;
  Array.iter
    (fun (pid, ctl_w) ->
      ignore (Unix.waitpid [] pid);
      Unix.close ctl_w)
    children;
  let merged = Export.merge_tagged (List.map read_tagged_trace (Array.to_list traces)) in
  Array.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) traces;
  let tags = List.sort_uniq compare (List.filter_map fst merged) in
  check (Alcotest.list Alcotest.int) "both shards tagged in the merged trace" [ 0; 1 ] tags;
  let slice tagged shard =
    List.filter_map (fun (tag, ev) -> if tag = Some shard then Some ev else None) tagged
  in
  let shard_verdict shard =
    let evs = slice merged shard in
    check_bool
      (Printf.sprintf "shard %d trace non-trivial" shard)
      true
      (List.length evs > 20);
    audit_ok ~n:(List.length (Placement.owners placement shard)) ~delta:30 evs
  in
  let wire_verdicts = List.map shard_verdict [ 0; 1 ] in
  (* The simulated twin: same shard count, key space and skew, one
     judged run per shard. Its per-shard verdicts are the reference the
     live ones must match. *)
  let sim =
    Harness.run_shards
      (Harness.instance_exn (Protocol.find_exn "es") ~n ~delta:3)
      {
        (Deployment.default_config ~seed:9 ~n ~delay:(Delay.synchronous ~delta:3)
           ~churn_rate:0.0)
        with
        Deployment.events_enabled = true;
      }
      ~shards
      {
        Harness.horizon = 300;
        drain = 100;
        workload =
          Harness.Plan
            (Skew.plan ~rng:(Rng.create ~seed:9)
               { (Skew.default ~keys:64 ~s:1.1 ~until:(Time.of_int 300)) with
                 Skew.read_rate = 0.5;
                 write_every = 10 });
        monitor = None;
      }
      []
  in
  check_bool "sim sharded store regular" true
    (List.for_all (fun (_, r) -> Verdict.is_ok r.Harness.verdict) sim);
  let sim_tagged = Harness.tagged_events sim in
  List.iteri
    (fun shard wire_ok ->
      let sim_ok = audit_ok ~n ~delta:3 (slice sim_tagged shard) in
      check_bool (Printf.sprintf "sim shard %d verdict clean" shard) true sim_ok;
      check_bool (Printf.sprintf "shard %d verdict matches sim" shard) sim_ok wire_ok)
    wire_verdicts

(* Three addresses under the placement "0;0,1;0,1" (shard 0 on every
   node, writer node 0; shard 1 on nodes 1 and 2, writer node 1), where
   node 2's address has no listener. Sync reads are local and its
   writes wait out delta, so both shards still serve on nodes 0 and 1.
   The load must send shard 1's reads to node 1 — never to node 0,
   which would answer each with a typed Err — and finish clean. A
   placement the live nodes cannot serve fails at start, naming the
   shard. *)
let test_load_skips_unreachable_node () =
  let module S_sync = Store.Make (Sync_register) in
  let placement spec =
    match Placement.make ~nodes:3 ~shards:2 ~spec:(Some spec) with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let served = placement "0;0,1;0,1" in
  let socks = Array.init 2 (fun _ -> bind_ephemeral ()) in
  (* Bound but not listening: a connect is refused. *)
  let dead = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let dead_port =
    match Unix.getsockname dead with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let addrs =
    Array.append (Array.map (fun (_, port) -> ("127.0.0.1", port)) socks) [| ("127.0.0.1", dead_port) |]
  in
  let children =
    Array.init 2 (fun i ->
        let ctl_r, ctl_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close ctl_w;
          (try
             let loop = Loop.create () in
             let cfg =
               {
                 (Store.default_config ~self:i ~addrs) with
                 Store.placement = served;
                 events_enabled = false;
                 listen_fd = Some (fst socks.(i));
               }
             in
             let store = S_sync.create ~loop cfg (fun _shard -> Sync_register.default_params ~delta:5) in
             Loop.watch_read loop ctl_r (fun () ->
                 S_sync.shutdown store;
                 Loop.stop loop);
             Loop.run loop
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.close ctl_r;
          (pid, ctl_w))
  in
  Array.iter (fun (fd, _) -> Unix.close fd) socks;
  Fun.protect
    ~finally:(fun () ->
      Unix.close dead;
      Array.iter (fun (_, ctl_w) -> ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1)) children;
      Array.iter
        (fun (pid, ctl_w) ->
          ignore (Unix.waitpid [] pid);
          Unix.close ctl_w)
        children)
    (fun () ->
      let load ?(addrs = addrs) ~write_ratio placement =
        Load.run ~placement ~keys:64 ~addrs ~clients:4 ~duration_s:0.4 ~write_ratio ~seed:3 ()
      in
      let report = load ~write_ratio:0.2 served in
      check_bool "load did work" true (report.Load.ops > 50);
      check_int "no op reached a non-owner" 0 report.Load.errors;
      check_bool "load wrote" true (report.Load.writes > 0);
      Alcotest.check_raises "a shard with no reachable owner"
        (Failure "load: shard 1 has no reachable owner") (fun () ->
          ignore (load ~write_ratio:0.0 (placement "0;0;0,1")));
      (* With the dead address first, it is node 0: the writer of
         both shards under an everyone-owns-everything placement. *)
      let dead_first = [| addrs.(2); addrs.(0); addrs.(1) |] in
      Alcotest.check_raises "an unreachable writer"
        (Failure "load: shard 0's writer, node 0, is unreachable") (fun () ->
          ignore (load ~addrs:dead_first ~write_ratio:0.2 (placement "0,1"))))

(* One es founder serving a shard whose other two owners have no
   listener: node 0 is reachable and owns the shard, so [Load.run]
   starts, but no op can gather a quorum of two. The run must still
   return, counting every op left in flight as an error. *)
let test_load_deadline_without_quorum () =
  let listen, port = bind_ephemeral () in
  (* Bound but not listening: a connect is refused. *)
  let dead =
    Array.init 2 (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let port_of fd =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  let addrs =
    Array.append [| ("127.0.0.1", port) |] (Array.map (fun fd -> ("127.0.0.1", port_of fd)) dead)
  in
  let ctl_r, ctl_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close ctl_w;
    (try
       let loop = Loop.create () in
       let cfg =
         {
           (Store.default_config ~self:0 ~addrs) with
           Store.events_enabled = false;
           listen_fd = Some listen;
         }
       in
       let store = S_es.create ~loop cfg (fun _shard -> Es_register.default_params ~n:3) in
       Loop.watch_read loop ctl_r (fun () ->
           S_es.shutdown store;
           Loop.stop loop);
       Loop.run loop
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close ctl_r;
    Unix.close listen;
    Fun.protect
      ~finally:(fun () ->
        ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1);
        ignore (Unix.waitpid [] pid);
        Unix.close ctl_w;
        Array.iter Unix.close dead)
      (fun () ->
        let report =
          Load.run ~placement:(Placement.all ~nodes:3 ~shards:1) ~addrs ~clients:2
            ~duration_s:0.2 ~write_ratio:0.5 ~seed:3 ()
        in
        check_int "no op answered" 0 report.Load.ops;
        check_int "every op in flight counted as an error" 2 report.Load.errors;
        check_int "errors counter" 2 (Metrics.get report.Load.metrics "load.errors"))

(* ------------------------------------------------------------------ *)
(* Coalescing *)

type coalesced = { reads : int; writes : int }

(* Fork a 3-node, 1-shard loopback store running protocol [p] (delta =
   50 ms, the `dds serve` default), run [f] against its addresses,
   then shut it down. Returns [f]'s result, whether the merged trace
   audits clean (monitors and regularity), and the nodes' summed
   [store.reads_coalesced] and [store.writes_coalesced]. *)
let with_protocol_store (p : Protocol.t) f =
  let n = 3 and delta = 50 in
  let module R = (val p.Protocol.runner : Protocol.RUNNER) in
  let module S = Store.Make (R.D.Protocol) in
  let params =
    match R.params { Protocol.n; delta; quorum = None } with
    | Ok params -> params
    | Error e -> Alcotest.fail e
  in
  let socks = Array.init n (fun _ -> bind_ephemeral ()) in
  let addrs = Array.map (fun (_, port) -> ("127.0.0.1", port)) socks in
  let temp i suffix = Filename.temp_file (Printf.sprintf "dds-%s%d-" p.Protocol.name i) suffix in
  let traces = Array.init n (fun i -> temp i ".jsonl") in
  let counts = Array.init n (fun i -> temp i ".count") in
  let epoch_ms = Store.default_epoch_ms () in
  let children =
    Array.init n (fun i ->
        let ctl_r, ctl_w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          Unix.close ctl_w;
          (try
             let loop = Loop.create () in
             let cfg =
               {
                 (Store.default_config ~self:i ~addrs) with
                 Store.epoch_ms;
                 trace_path = Some traces.(i);
                 listen_fd = Some (fst socks.(i));
               }
             in
             let store = S.create ~loop cfg (fun _shard -> params) in
             Loop.watch_read loop ctl_r (fun () ->
                 S.shutdown store;
                 let oc = open_out counts.(i) in
                 let count name = Metrics.get (S.metrics store) name in
                 Printf.fprintf oc "%d %d" (count "store.reads_coalesced")
                   (count "store.writes_coalesced");
                 close_out oc;
                 Loop.stop loop);
             Loop.run loop
           with _ -> ());
          Unix._exit 0
        | pid ->
          Unix.close ctl_r;
          (pid, ctl_w))
  in
  Array.iter (fun (fd, _) -> Unix.close fd) socks;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun (_, ctl_w) -> ignore (Unix.write ctl_w (Bytes.make 1 'q') 0 1)) children;
        Array.iter
          (fun (pid, ctl_w) ->
            ignore (Unix.waitpid [] pid);
            Unix.close ctl_w)
          children)
      (fun () -> f addrs)
  in
  let merged = merged_trace (Array.to_list traces) in
  let coalesced =
    Array.fold_left
      (fun acc path ->
        let ic = open_in path in
        let reads, writes = Scanf.sscanf (input_line ic) "%d %d" (fun r w -> (r, w)) in
        close_in ic;
        { reads = acc.reads + reads; writes = acc.writes + writes })
      { reads = 0; writes = 0 } counts
  in
  Array.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) (Array.append traces counts);
  let v = Harness.audit (Harness.monitor_config p ~n ~delta) ~initial:0 merged in
  check_bool "audited trace holds reads" true (v.Verdict.regularity.Regularity.checked_reads > 0);
  (result, Verdict.is_ok v, coalesced)

(* A v2 client connection on a raw socket: negotiate, then send a
   whole pipeline of frames in a single write and collect replies. *)
let raw_client port =
  let fd = raw_dial port in
  raw_send fd (Frame.buf_client_hello ());
  (match raw_recv_frame fd with
  | Frame.Hello _ -> ()
  | _ -> Alcotest.fail "client hello not acked");
  fd

let raw_pipeline fd frames =
  let s = String.concat "" (List.map Wire.frame frames) in
  check_int "pipeline sent in one write" (String.length s)
    (Unix.write_substring fd s 0 (String.length s))

let resp_exn = function
  | Frame.Resp { req; value; key = _ } -> (req, value)
  | Frame.Err { reason; _ } -> Alcotest.failf "server refused: %s" reason
  | _ -> Alcotest.fail "expected a Resp"

(* Eight reads pipelined in one write to a non-writer share protocol
   rounds: every request is answered exactly once, with the value the
   writer last completed, and the trace still audits clean. *)
let test_pipelined_reads name () =
  let p = Protocol.find_exn name in
  let reqs = List.init 8 (fun i -> i + 1) in
  let resps, audits_clean, coalesced =
    with_protocol_store p (fun addrs ->
        let c0 = Client.connect ~host:"127.0.0.1" ~port:(snd addrs.(0)) () in
        (match Client.write c0 5 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "write 5: %s" e);
        Client.close c0;
        let fd = raw_client (snd addrs.(1)) in
        raw_pipeline fd (List.map (fun req -> Frame.buf_read_req ~req ~key:0 ()) reqs);
        let resps = List.map resp_exn (raw_recv_frames fd (List.length reqs)) in
        Unix.close fd;
        resps)
  in
  check (Alcotest.list Alcotest.int) "each read answered exactly once" reqs
    (List.sort compare (List.map fst resps));
  List.iter (fun (req, v) -> check_int (Printf.sprintf "read %d value" req) 5 v.Value.data) resps;
  check_bool "some reads coalesced" true (coalesced.reads >= 1);
  check_bool "merged trace audits clean" true audits_clean

(* R, R, W(77), R pipelined to the writer: the two leading reads may
   share a round, the last one must wait for the write — responses come
   back in request order and the last read sees 77 or newer. *)
let test_no_read_overtakes_write name () =
  let p = Protocol.find_exn name in
  let resps, audits_clean, _ =
    with_protocol_store p (fun addrs ->
        let fd = raw_client (snd addrs.(0)) in
        raw_pipeline fd
          [
            Frame.buf_read_req ~req:1 ~key:0 ();
            Frame.buf_read_req ~req:2 ~key:0 ();
            Frame.buf_write_req ~req:3 ~key:0 ~data:77 ();
            Frame.buf_read_req ~req:4 ~key:0 ();
          ];
        let resps = List.map resp_exn (raw_recv_frames fd 4) in
        Unix.close fd;
        resps)
  in
  check (Alcotest.list Alcotest.int) "responses in request order" [ 1; 2; 3; 4 ]
    (List.map fst resps);
  let written = List.assoc 3 resps and last = List.assoc 4 resps in
  check_int "write acked 77" 77 written.Value.data;
  check_bool "last read sees the write or newer" true (last.Value.sn >= written.Value.sn);
  check_bool "merged trace audits clean" true audits_clean

let write_req req data = Frame.buf_write_req ~req ~key:0 ~data ()

(* W(1), W(2), W(3), R pipelined to the writer: the three writes share
   one round of the last datum, so every write is answered with the
   value the register holds after it — 3 and the sn the protocol gave
   it, never an absorbed 1 or 2, which got no sn of their own — and the
   read that follows returns exactly that value. *)
let test_pipelined_writes name () =
  let p = Protocol.find_exn name in
  let resps, audits_clean, coalesced =
    with_protocol_store p (fun addrs ->
        let fd = raw_client (snd addrs.(0)) in
        raw_pipeline fd
          [ write_req 1 1; write_req 2 2; write_req 3 3; Frame.buf_read_req ~req:4 ~key:0 () ];
        let resps = List.map resp_exn (raw_recv_frames fd 4) in
        Unix.close fd;
        resps)
  in
  check (Alcotest.list Alcotest.int) "each op answered once, in request order" [ 1; 2; 3; 4 ]
    (List.map fst resps);
  let last = List.assoc 3 resps in
  check_int "last write acked 3" 3 last.Value.data;
  List.iter
    (fun req ->
      let v = List.assoc req resps in
      check_int (Printf.sprintf "write %d answered with the round's datum" req) 3 v.Value.data;
      check_int (Printf.sprintf "write %d answered with the round's sn" req) last.Value.sn
        v.Value.sn)
    [ 1; 2 ];
  let read = List.assoc 4 resps in
  check_int "read returns the last write" 3 read.Value.data;
  check_int "read returns the round's sn" last.Value.sn read.Value.sn;
  check_bool "some writes coalesced" true (coalesced.writes >= 1);
  check_bool "merged trace audits clean" true audits_clean

(* W(1), W(2), R, W(4) pipelined to the writer: the write run stops at
   the read, which sees the second write or newer, and the last write
   runs its own round. *)
let test_write_run_stops_at_read name () =
  let p = Protocol.find_exn name in
  let resps, audits_clean, coalesced =
    with_protocol_store p (fun addrs ->
        let fd = raw_client (snd addrs.(0)) in
        raw_pipeline fd
          [ write_req 1 1; write_req 2 2; Frame.buf_read_req ~req:3 ~key:0 (); write_req 4 4 ];
        let resps = List.map resp_exn (raw_recv_frames fd 4) in
        Unix.close fd;
        resps)
  in
  check (Alcotest.list Alcotest.int) "responses in request order" [ 1; 2; 3; 4 ]
    (List.map fst resps);
  let second = List.assoc 2 resps and read = List.assoc 3 resps and fourth = List.assoc 4 resps in
  check_int "second write acked 2" 2 second.Value.data;
  check_bool "first write answered with the run's value" true
    (Value.equal second (List.assoc 1 resps));
  check_bool "read sees the second write or newer" true (read.Value.sn >= second.Value.sn);
  check_int "last write acked with its own datum" 4 fourth.Value.data;
  check_bool "last write got a newer sn" true (fourth.Value.sn > second.Value.sn);
  check_int "only the run before the read coalesced" 1 coalesced.writes;
  check_bool "merged trace audits clean" true audits_clean

let () =
  (* A server that dies mid-test must fail the test, not kill the
     runner with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "runtime"
    [
      ("codec", codec_tests);
      ("envelope", envelope_tests);
      ("fuzz", fuzz_tests);
      ( "wire",
        [
          Alcotest.test_case "int extremes round-trip" `Quick test_int_extremes;
          Alcotest.test_case "bottom value round-trips" `Quick test_bottom_value_roundtrip;
          Alcotest.test_case "expect_end rejects trailing bytes" `Quick test_expect_end;
          QCheck_alcotest.to_alcotest deframer_chunking;
          Alcotest.test_case "many frames in one chunk" `Quick
            test_deframer_many_frames_one_chunk;
          Alcotest.test_case "oversized frame rejected" `Quick test_oversized_frame_rejected;
          Alcotest.test_case "oversized prefix behind a frame rejected" `Quick
            test_oversized_prefix_behind_frame;
        ] );
      ( "cork",
        [
          Alcotest.test_case "frames written in a turn wait for its end" `Quick
            test_cork_holds_until_turn_end;
          Alcotest.test_case "writes before the loop leave on its first turn" `Quick
            test_cork_outside_turn_flushes_first;
          Alcotest.test_case "close sends buffered frames before EOF" `Quick
            test_cork_close_drains;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "3-node es over TCP audits REGULAR" `Quick
            test_loopback_deployment;
          Alcotest.test_case "v1/v2 negotiation matrix against a live server" `Quick
            test_negotiation_matrix;
          Alcotest.test_case "hostile frames leave a live server serving" `Quick
            test_hostile_frames;
          Alcotest.test_case "2-shard keyed store over TCP audits REGULAR per shard" `Quick
            test_sharded_loopback;
          Alcotest.test_case "load routes around an unreachable node" `Quick
            test_load_skips_unreachable_node;
          Alcotest.test_case "load ends when a shard cannot reach its quorum" `Quick
            test_load_deadline_without_quorum;
        ] );
      ( "coalesce",
        List.concat_map
          (fun name ->
            [
              Alcotest.test_case
                (Printf.sprintf "%s: pipelined reads share rounds" name)
                `Quick (test_pipelined_reads name);
              Alcotest.test_case
                (Printf.sprintf "%s: no read overtakes a write" name)
                `Quick (test_no_read_overtakes_write name);
              Alcotest.test_case
                (Printf.sprintf "%s: pipelined writes share one round" name)
                `Quick (test_pipelined_writes name);
              Alcotest.test_case
                (Printf.sprintf "%s: a write run stops at a read" name)
                `Quick (test_write_run_stops_at_read name);
            ])
          Protocol.names );
    ]
