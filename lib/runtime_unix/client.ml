open Dds_net
open Dds_spec

(** Blocking one-shot client for [dds client]: connect, send one
    request frame, wait for the response. Scripting convenience — the
    load generator has its own non-blocking connections.

    The connect handshake sends a [Client_hello] and waits for the
    server's [Hello] ack before any operation goes out; every
    operation carries a key (default 0). *)

type t = { fd : Unix.file_descr; df : Wire.deframer; mutable next_req : int }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send_frame t b =
  let s = Wire.frame b in
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring t.fd s off (String.length s - off))
  in
  go 0

let chunk = Bytes.create 65536

let rec wait_frame t =
  match Wire.next_frame t.df with
  | Some payload -> payload
  | None -> (
    match Unix.read t.fd chunk 0 (Bytes.length chunk) with
    | 0 -> failwith "connection closed by node"
    | n ->
      Wire.feed t.df chunk n;
      wait_frame t)

let connect ~host ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  let t = { fd; df = Wire.deframer (); next_req = 0 } in
  send_frame t (Frame.buf_client_hello ());
  (match Frame.decode (wait_frame t) with
  | Frame.Hello { version; _ } when version = Wire.v2 -> ()
  | Frame.Err { reason; _ } ->
    close t;
    failwith (Printf.sprintf "server refused handshake: %s" reason)
  | _ ->
    close t;
    failwith "server did not ack the handshake with a v2 Hello");
  t

let rec wait_resp t req =
  match Frame.decode (wait_frame t) with
  | Frame.Resp { req = r; value; _ } when r = req -> Ok value
  | Frame.Err { req = r; reason } when r = req || r = Frame.no_req -> Error reason
  | _ -> wait_resp t req

let request t ~key op =
  let req = t.next_req in
  t.next_req <- req + 1;
  (match op with
  | `Read -> send_frame t (Frame.buf_read_req ~req ~key ())
  | `Write data -> send_frame t (Frame.buf_write_req ~req ~key ~data ()));
  wait_resp t req

let read ?(key = 0) t : (Value.t, string) result = request t ~key `Read
let write ?(key = 0) t data : (Value.t, string) result = request t ~key (`Write data)
