open Dds_net
open Dds_spec

(** Node-level envelope inside each {!Wire} frame.

    The protocol message codec ([put_msg]/[get_msg]) only knows how to
    encode its own constructors; the envelope adds who is speaking and
    why — a peer introducing itself, a stamped protocol message, or a
    client request/response. Decoding is deferred for [Msg]: the
    envelope hands back the raw remainder reader so the node can apply
    its protocol's [get_msg] (the envelope layer stays
    protocol-agnostic).

    The envelope has one layout, wire {!Wire.v2}: [Read_req],
    [Write_req] and [Resp] carry a key, [Msg] carries a shard id, and
    [Hello]/[Client_hello] end with a version byte. Every frame,
    hellos included, is exactly its fields, so a strict prefix of any
    encoding is rejected ([Msg]'s by its protocol codec). [req = -1]
    on an [Err] marks a connection-level error such as a version the
    server refuses to speak. *)

type 'r t =
  | Hello of { pid : int; version : int }
      (** outgoing peer link introduces its sender and wire version *)
  | Client_hello of { version : int }
  | Msg of { src : int; lamport : int; shard : int; rest : 'r }
      (** a protocol message, Lamport-stamped at send time; [rest] is
          the still-encoded payload (a {!Wire.reader} on decode) *)
  | Read_req of { req : int; key : int }
  | Write_req of { req : int; key : int; data : int }
  | Resp of { req : int; key : int; value : Value.t }
  | Err of { req : int; reason : string }

(* A connection-level [Err] (version refused, shard not owned) answers
   no particular request; clients must fail every pending op on it. *)
let no_req = -1

let buf_hello pid =
  let b = Buffer.create 16 in
  Wire.put_u8 b 0;
  Wire.put_int b pid;
  Wire.put_u8 b Wire.v2;
  b

let buf_client_hello () =
  let b = Buffer.create 4 in
  Wire.put_u8 b 1;
  Wire.put_u8 b Wire.v2;
  b

(* The caller appends the protocol payload with its own [put_msg]. *)
let buf_msg_header ~src ~lamport ~shard () =
  let b = Buffer.create 64 in
  Wire.put_u8 b 2;
  Wire.put_int b src;
  Wire.put_int b lamport;
  Wire.put_int b shard;
  b

let buf_read_req ~req ~key () =
  let b = Buffer.create 24 in
  Wire.put_u8 b 3;
  Wire.put_int b req;
  Wire.put_key b key;
  b

let buf_write_req ~req ~key ~data () =
  let b = Buffer.create 32 in
  Wire.put_u8 b 4;
  Wire.put_int b req;
  Wire.put_key b key;
  Wire.put_int b data;
  b

let buf_resp ~req ~key value =
  let b = Buffer.create 40 in
  Wire.put_u8 b 5;
  Wire.put_int b req;
  Wire.put_key b key;
  Value.put b value;
  b

let buf_err ~req reason =
  let b = Buffer.create 32 in
  Wire.put_u8 b 6;
  Wire.put_int b req;
  Wire.put_string b reason;
  b

(* Every branch but [Msg] checks [expect_end]: a frame is exactly one
   message, so a length mismatch is a typed [Malformed], never a
   silently misread field. [Msg] hands its remainder to the protocol
   codec, which runs its own [expect_end] after [get_msg].

   [?version] stays only because an outside caller (the benchmark's
   live client) still names [Wire.v2]; any other value is refused. *)
let decode ?(version = Wire.v2) payload =
  if version <> Wire.v2 then
    raise (Wire.Malformed (Printf.sprintf "cannot decode wire version %d" version));
  let r = Wire.reader payload in
  let finish frame =
    Wire.expect_end r;
    frame
  in
  match Wire.get_u8 r with
  | 0 ->
    let pid = Wire.get_int r in
    finish (Hello { pid; version = Wire.get_u8 r })
  | 1 -> finish (Client_hello { version = Wire.get_u8 r })
  | 2 ->
    let src = Wire.get_int r in
    let lamport = Wire.get_int r in
    let shard = Wire.get_int r in
    Msg { src; lamport; shard; rest = r }
  | 3 ->
    let req = Wire.get_int r in
    finish (Read_req { req; key = Wire.get_key r })
  | 4 ->
    let req = Wire.get_int r in
    let key = Wire.get_key r in
    finish (Write_req { req; key; data = Wire.get_int r })
  | 5 ->
    let req = Wire.get_int r in
    let key = Wire.get_key r in
    finish (Resp { req; key; value = Value.get r })
  | 6 ->
    let req = Wire.get_int r in
    finish (Err { req; reason = Wire.get_string r })
  | t -> raise (Wire.Malformed (Printf.sprintf "envelope tag %d" t))

(* Introspection table for [dds list]: one row per frame kind with its
   field layout. Kept next to the codec so the two cannot drift
   silently without a reviewer noticing. *)
let catalog =
  [ ("Hello", 0, "pid:int64 version:u8");
    ("Client_hello", 1, "version:u8");
    ("Msg", 2, "src:int64 lamport:int64 shard:int64 payload...");
    ("Read_req", 3, "req:int64 key:int63");
    ("Write_req", 4, "req:int64 key:int63 data:int64");
    ("Resp", 5, "req:int64 key:int63 value");
    ("Err", 6, "req:int64 reason:string") ]
