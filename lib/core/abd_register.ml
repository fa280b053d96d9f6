open Dds_sim
open Dds_net
open Dds_runtime
open Dds_spec

type params = { group_size : int; read_write_back : bool }

let default_params ~group_size = { group_size; read_write_back = true }
let majority p = (p.group_size / 2) + 1

type msg =
  | Read_req of { r_sn : int }
  | Read_reply of { value : Value.t; r_sn : int }
  | Write_req of { value : Value.t; wid : int }
  | Write_ack of { wid : int }

let name = "abd"

let pp_msg ppf = function
  | Read_req { r_sn } -> Format.fprintf ppf "READ(r_sn=%d)" r_sn
  | Read_reply { value; r_sn } -> Format.fprintf ppf "READ_REPLY(%a,r_sn=%d)" Value.pp value r_sn
  | Write_req { value; wid } -> Format.fprintf ppf "WRITE(%a,wid=%d)" Value.pp value wid
  | Write_ack { wid } -> Format.fprintf ppf "WRITE_ACK(wid=%d)" wid

let msg_kind = function
  | Read_req _ -> "READ"
  | Read_reply _ -> "READ_REPLY"
  | Write_req _ -> "WRITE"
  | Write_ack _ -> "WRITE_ACK"

let put_msg b = function
  | Read_req { r_sn } ->
    Wire.put_u8 b 0;
    Wire.put_int b r_sn
  | Read_reply { value; r_sn } ->
    Wire.put_u8 b 1;
    Value.put b value;
    Wire.put_int b r_sn
  | Write_req { value; wid } ->
    Wire.put_u8 b 2;
    Value.put b value;
    Wire.put_int b wid
  | Write_ack { wid } ->
    Wire.put_u8 b 3;
    Wire.put_int b wid

let get_msg r =
  match Wire.get_u8 r with
  | 0 -> Read_req { r_sn = Wire.get_int r }
  | 1 ->
    let value = Value.get r in
    Read_reply { value; r_sn = Wire.get_int r }
  | 2 ->
    let value = Value.get r in
    Write_req { value; wid = Wire.get_int r }
  | 3 -> Write_ack { wid = Wire.get_int r }
  | t -> raise (Wire.Malformed (Printf.sprintf "abd message tag %d" t))

type pending =
  | Idle
  | Query of { k : Value.t -> unit; then_write : int option }
      (** phase 1: collect a majority of read replies. [then_write]
          carries the datum when the query belongs to a write. *)
  | Propagate of { k : Value.t -> unit; value : Value.t }
      (** phase 2: write-back (read) or dissemination (write). *)

type node = {
  rt : msg Runtime.t;
  params : params;
  pid : Pid.t;
  server : bool;
  mutable register : Value.t option;
  mutable active : bool;
  mutable left : bool;
  mutable r_sn : int;
  mutable wid : int;
  replies : Value.t Pid.Table.t;
  mutable acks : Pid.Set.t;
  mutable pending : pending;
  span : Op_span.t;
}

let pid t = t.pid
let is_active t = t.active
let busy t = match t.pending with Idle -> false | _ -> true
let snapshot t = t.register
let quorum t = majority t.params
let current_sn t = match t.register with Some v -> v.Value.sn | None -> -1
let send t dst msg = Runtime.send t.rt ~src:t.pid ~dst msg
let current_span t = Op_span.current t.span

let span_start ?value t op = Op_span.start ?value t.span ~rt:t.rt ~pid:t.pid op
let span_phase t name = Op_span.phase t.span ~rt:t.rt ~pid:t.pid name
let span_quorum ?from t ~have =
  Op_span.quorum ?from t.span ~rt:t.rt ~pid:t.pid ~have ~need:(quorum t)
let span_finish ?value t = Op_span.finish ?value t.span ~rt:t.rt ~pid:t.pid

let best_reply t =
  Pid.Table.fold
    (fun _ v acc -> match acc with None -> Some v | Some b -> Some (Value.newer b v))
    t.replies None

let start_propagate t value k =
  t.wid <- t.wid + 1;
  t.acks <- Pid.Set.empty;
  t.pending <- Propagate { k; value };
  span_phase t "write-back-sent";
  Runtime.broadcast t.rt ~src:t.pid (Write_req { value; wid = t.wid })

let check_completion t =
  match t.pending with
  | Idle -> ()
  | Query { k; then_write } ->
    if Pid.Table.length t.replies >= quorum t then begin
      span_phase t "query-quorum-met";
      let best = match best_reply t with Some v -> v | None -> assert false in
      if best.Value.sn > current_sn t then t.register <- Some best;
      let latest = match t.register with Some v -> v | None -> assert false in
      match then_write with
      | Some data ->
        (* Write phase 2 with a fresh sequence number. *)
        let value = Value.make ~data ~sn:(latest.Value.sn + 1) in
        t.register <- Some value;
        start_propagate t value k
      | None ->
        if t.params.read_write_back then start_propagate t latest k
        else begin
          t.pending <- Idle;
          span_finish ~value:latest t;
          k latest
        end
    end
  | Propagate { k; value } ->
    if Pid.Set.cardinal t.acks >= quorum t then begin
      t.pending <- Idle;
      span_finish ~value t;
      k value
    end

let handle t ~src msg =
  if not t.left then
    match msg with
    | Read_req { r_sn } ->
      (* Only founding members serve. *)
      if t.server then begin
        let value =
          match t.register with Some v -> v | None -> Value.initial 0 (* unreachable *)
        in
        send t src (Read_reply { value; r_sn })
      end
    | Read_reply { value; r_sn } ->
      if r_sn = t.r_sn then begin
        Pid.Table.replace t.replies src value;
        (match t.pending with
        | Query _ -> span_quorum t ~from:(Pid.to_int src) ~have:(Pid.Table.length t.replies)
        | Idle | Propagate _ -> ());
        check_completion t
      end
    | Write_req { value; wid } ->
      if t.server then begin
        if value.Value.sn > current_sn t then t.register <- Some value;
        send t src (Write_ack { wid })
      end
    | Write_ack { wid } ->
      if wid = t.wid then begin
        t.acks <- Pid.Set.add src t.acks;
        (match t.pending with
        | Propagate _ -> span_quorum t ~from:(Pid.to_int src) ~have:(Pid.Set.cardinal t.acks)
        | Idle | Query _ -> ());
        check_completion t
      end

let start_query t ~then_write k =
  t.r_sn <- t.r_sn + 1;
  Pid.Table.reset t.replies;
  t.pending <- Query { k; then_write };
  span_phase t "query-sent";
  Runtime.broadcast t.rt ~src:t.pid (Read_req { r_sn = t.r_sn })

let create ~rt ~params ~pid ~initial ~on_active =
  let t =
    {
      rt;
      params;
      pid;
      server = (match initial with Some _ -> true | None -> false);
      register = initial;
      active = false;
      left = false;
      r_sn = 0;
      wid = 0;
      replies = Pid.Table.create 16;
      acks = Pid.Set.empty;
      pending = Idle;
      span = Op_span.make ();
    }
  in
  Runtime.attach rt pid (fun ~src msg -> handle t ~src msg);
  (match initial with
  | Some v ->
    t.active <- true;
    on_active v
  | None ->
    (* A late arrival joins by performing a client read against the
       founding group — ABD has no membership change, so this is the
       best a static protocol can offer. *)
    span_start t Event.Join;
    start_query t ~then_write:None (fun value ->
        t.active <- true;
        span_finish t;
        on_active value));
  t

let read t ~k =
  if not t.active then invalid_arg "Abd_register.read: node is not active";
  if busy t then invalid_arg "Abd_register.read: node is busy";
  span_start t Event.Read;
  start_query t ~then_write:None k

let write t data ~k =
  if not t.active then invalid_arg "Abd_register.write: node is not active";
  if busy t then invalid_arg "Abd_register.write: node is busy";
  (* Sequence number fixed after the query phase; the Op_start carries
     the local guess, the Op_end the disseminated value. *)
  span_start t ~value:(Value.make ~data ~sn:(current_sn t + 1)) Event.Write;
  start_query t ~then_write:(Some data) k

let leave t =
  t.left <- true;
  Runtime.detach t.rt t.pid
