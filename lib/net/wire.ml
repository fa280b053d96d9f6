exception Truncated
exception Malformed of string

let max_frame = 16 * 1024 * 1024

(* --- wire protocol version ------------------------------------------ *)

let v2 = 2

(* --- writers -------------------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_int b v =
  (* 8 bytes big-endian two's complement: OCaml ints are 63-bit, so an
     Int64 round-trip is exact, and min_int sentinels survive. *)
  Buffer.add_int64_be b (Int64.of_int v)

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_string b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_key b k =
  if k < 0 then raise (Malformed (Printf.sprintf "key %d negative" k));
  put_int b k

(* --- readers -------------------------------------------------------- *)

type reader = { buf : string; mutable pos : int }

let reader s = { buf = s; pos = 0 }
let remaining r = String.length r.buf - r.pos

let need r n = if remaining r < n then raise Truncated

let get_u8 r =
  need r 1;
  let v = Char.code r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let get_bool r =
  match get_u8 r with
  | 0 -> false
  | 1 -> true
  | v -> raise (Malformed (Printf.sprintf "bool byte %d" v))

let get_string r =
  let len = get_int r in
  if len < 0 || len > max_frame then raise (Malformed (Printf.sprintf "string length %d" len));
  need r len;
  let s = String.sub r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let get_key r =
  let k = get_int r in
  if k < 0 then raise (Malformed (Printf.sprintf "key %d negative" k));
  k

let expect_end r =
  if remaining r <> 0 then
    raise (Malformed (Printf.sprintf "%d trailing bytes after message" (remaining r)))

(* --- framing -------------------------------------------------------- *)

let frame b =
  let len = Buffer.length b in
  if len > max_frame then raise (Malformed (Printf.sprintf "frame length %d" len));
  let out = Buffer.create (len + 4) in
  Buffer.add_int32_be out (Int32.of_int len);
  Buffer.add_buffer out b;
  Buffer.contents out

(* Unread bytes are [buf.[start .. stop - 1]]. Popping a frame only
   advances [start]; [feed] moves the unread tail to the front once per
   chunk, so a chunk of many small frames is deframed in linear time. *)
type deframer = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let deframer () = { buf = Bytes.create 4096; start = 0; stop = 0 }

let peek_len d =
  if d.stop - d.start < 4 then None
  else begin
    let len = Int32.to_int (Bytes.get_int32_be d.buf d.start) in
    if len < 0 || len > max_frame then raise (Malformed (Printf.sprintf "frame length %d" len));
    Some len
  end

let feed d chunk len =
  let unread = d.stop - d.start in
  let need = unread + len in
  let dst =
    if need > Bytes.length d.buf then Bytes.create (Stdlib.max need (2 * Bytes.length d.buf))
    else d.buf
  in
  Bytes.blit d.buf d.start dst 0 unread;
  Bytes.blit chunk 0 dst unread len;
  d.buf <- dst;
  d.start <- 0;
  d.stop <- need;
  (* Validate the prefix eagerly so a hostile length kills the
     connection before it makes us buffer toward it. *)
  ignore (peek_len d)

let next_frame d =
  match peek_len d with
  | Some len when d.stop - d.start >= 4 + len ->
    let payload = Bytes.sub_string d.buf (d.start + 4) len in
    d.start <- d.start + 4 + len;
    Some payload
  | Some _ | None -> None

let pending_bytes d = d.stop - d.start
