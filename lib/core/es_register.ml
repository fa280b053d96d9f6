open Dds_sim
open Dds_net
open Dds_runtime
open Dds_spec

type params = { n : int; quorum_override : int option; read_repair : bool }

let default_params ~n = { n; quorum_override = None; read_repair = false }

let majority p =
  match p.quorum_override with Some q -> q | None -> (p.n / 2) + 1

type msg =
  | Inquiry of { r_sn : int }
  | Read_req of { r_sn : int }
  | Reply of { value : Value.t; r_sn : int }
  | Write_msg of { value : Value.t }
  | Ack of { sn : int }
  | Dl_prev of { r_sn : int }

let name = "es"

let pp_msg ppf = function
  | Inquiry { r_sn } -> Format.fprintf ppf "INQUIRY(r_sn=%d)" r_sn
  | Read_req { r_sn } -> Format.fprintf ppf "READ(r_sn=%d)" r_sn
  | Reply { value; r_sn } -> Format.fprintf ppf "REPLY(%a,r_sn=%d)" Value.pp value r_sn
  | Write_msg { value } -> Format.fprintf ppf "WRITE(%a)" Value.pp value
  | Ack { sn } -> Format.fprintf ppf "ACK(sn=%d)" sn
  | Dl_prev { r_sn } -> Format.fprintf ppf "DL_PREV(r_sn=%d)" r_sn

let msg_kind = function
  | Inquiry _ -> "INQUIRY"
  | Read_req _ -> "READ"
  | Reply _ -> "REPLY"
  | Write_msg _ -> "WRITE"
  | Ack _ -> "ACK"
  | Dl_prev _ -> "DL_PREV"

let put_msg b = function
  | Inquiry { r_sn } ->
    Wire.put_u8 b 0;
    Wire.put_int b r_sn
  | Read_req { r_sn } ->
    Wire.put_u8 b 1;
    Wire.put_int b r_sn
  | Reply { value; r_sn } ->
    Wire.put_u8 b 2;
    Value.put b value;
    Wire.put_int b r_sn
  | Write_msg { value } ->
    Wire.put_u8 b 3;
    Value.put b value
  | Ack { sn } ->
    Wire.put_u8 b 4;
    Wire.put_int b sn
  | Dl_prev { r_sn } ->
    Wire.put_u8 b 5;
    Wire.put_int b r_sn

let get_msg r =
  match Wire.get_u8 r with
  | 0 -> Inquiry { r_sn = Wire.get_int r }
  | 1 -> Read_req { r_sn = Wire.get_int r }
  | 2 ->
    let value = Value.get r in
    Reply { value; r_sn = Wire.get_int r }
  | 3 -> Write_msg { value = Value.get r }
  | 4 -> Ack { sn = Wire.get_int r }
  | 5 -> Dl_prev { r_sn = Wire.get_int r }
  | t -> raise (Wire.Malformed (Printf.sprintf "es message tag %d" t))

type pending =
  | Idle
  | Joining of { k : Value.t -> unit }
  | Reading of { k : Value.t -> unit }
  | Write_read of { data : int; k : Value.t -> unit }
      (** Figure 6 line 01: the read embedded in a write *)
  | Write_collect of { value : Value.t; k : Value.t -> unit }
  | Repairing of { value : Value.t; k : Value.t -> unit }
      (** read-repair: re-disseminating the adopted value before the
          read returns (regular-to-atomic transformation) *)

type node = {
  rt : msg Runtime.t;
  params : params;
  pid : Pid.t;
  mutable register : Value.t option;
  mutable active : bool;
  mutable reading : bool;
  mutable read_sn : int;  (** 0 identifies the join (footnote 7) *)
  mutable left : bool;
  replies : Value.t Pid.Table.t;  (** distinct repliers, current phase *)
  mutable reply_to : (Pid.t * int) list;
  mutable dl_prev : (Pid.t * int) list;
  mutable write_ack : Pid.Set.t;
  mutable write_sn : int;  (** sequence number of the in-flight write *)
  mutable pending : pending;
  span : Op_span.t;
}

let pid t = t.pid
let is_active t = t.active
let busy t = match t.pending with Idle -> false | _ -> true
let snapshot t = t.register
let is_reading t = t.reading
let read_sn t = t.read_sn
let replies_gathered t = Pid.Table.length t.replies
let current_sn t = match t.register with Some v -> v.Value.sn | None -> -1
let quorum t = majority t.params
let current_span t = Op_span.current t.span

let span_start ?value t op = Op_span.start ?value t.span ~rt:t.rt ~pid:t.pid op
let span_phase t name = Op_span.phase t.span ~rt:t.rt ~pid:t.pid name
let span_quorum ?from t ~have =
  Op_span.quorum ?from t.span ~rt:t.rt ~pid:t.pid ~have ~need:(quorum t)
let span_finish ?value t = Op_span.finish ?value t.span ~rt:t.rt ~pid:t.pid

let send t dst msg = Runtime.send t.rt ~src:t.pid ~dst msg

let add_once assoc entry =
  if List.exists (fun e -> e = entry) assoc then assoc else entry :: assoc

(* Figure 4 lines 05-06 / Figure 5 lines 05-06: adopt the newest value
   among the gathered replies if it beats the local copy. *)
let adopt_best t =
  let folded =
    Pid.Table.fold
      (fun _ v acc -> match acc with None -> Some v | Some b -> Some (Value.newer b v))
      t.replies None
  in
  match folded with
  | Some v when v.Value.sn > current_sn t -> t.register <- Some v
  | Some _ | None -> ()

(* Figure 4 lines 07-10: switch to active mode and release the replies
   promised to concurrent joiners (reply_to) and to the processes whose
   DL_PREV we recorded. *)
let activate t k =
  t.active <- true;
  t.pending <- Idle;
  let value = match t.register with Some v -> v | None -> assert false in
  let targets = List.rev_append t.reply_to (List.rev t.dl_prev) in
  t.reply_to <- [];
  t.dl_prev <- [];
  List.iter (fun (j, r_sn) -> send t j (Reply { value; r_sn })) targets;
  span_finish ~value t;
  k value

(* Figure 6 lines 02-05: the write proper, entered once the embedded
   read phase has fixed the latest sequence number. *)
let start_write_collect t data k =
  let sn = current_sn t + 1 in
  let value = Value.make ~data ~sn in
  t.register <- Some value;
  t.write_sn <- sn;
  t.write_ack <- Pid.Set.empty;
  t.pending <- Write_collect { value; k };
  span_phase t "write-broadcast";
  Runtime.broadcast t.rt ~src:t.pid (Write_msg { value })

let check_completion t =
  match t.pending with
  | Idle -> ()
  | Joining { k } ->
    if Pid.Table.length t.replies >= quorum t then begin
      span_phase t "quorum-met";
      adopt_best t;
      activate t k
    end
  | Reading { k } ->
    if Pid.Table.length t.replies >= quorum t then begin
      span_phase t "quorum-met";
      adopt_best t;
      t.reading <- false;
      let value = match t.register with Some v -> v | None -> assert false in
      if t.params.read_repair then begin
        (* Regular-to-atomic: make a majority hold the value we are
           about to return, so no later read can come back older. *)
        t.write_sn <- value.Value.sn;
        t.write_ack <- Pid.Set.empty;
        t.pending <- Repairing { value; k };
        span_phase t "repair-broadcast";
        Runtime.broadcast t.rt ~src:t.pid (Write_msg { value })
      end
      else begin
        t.pending <- Idle;
        span_finish ~value t;
        k value
      end
    end
  | Repairing { value; k } ->
    if Pid.Set.cardinal t.write_ack >= quorum t then begin
      t.pending <- Idle;
      span_finish ~value t;
      k value
    end
  | Write_read { data; k } ->
    if Pid.Table.length t.replies >= quorum t then begin
      span_phase t "read-quorum-met";
      adopt_best t;
      t.reading <- false;
      start_write_collect t data k
    end
  | Write_collect { value; k } ->
    if Pid.Set.cardinal t.write_ack >= quorum t then begin
      t.pending <- Idle;
      span_finish ~value t;
      k value
    end

let handle t ~src msg =
  if not t.left then
    match msg with
    | Inquiry { r_sn } ->
      (* Figure 4 lines 12-17. *)
      if t.active then begin
        let value = match t.register with Some v -> v | None -> assert false in
        send t src (Reply { value; r_sn });
        if t.reading then send t src (Dl_prev { r_sn = t.read_sn })
      end
      else begin
        t.reply_to <- add_once t.reply_to (src, r_sn);
        send t src (Dl_prev { r_sn = t.read_sn })
      end
    | Read_req { r_sn } ->
      (* Figure 5 lines 08-11. *)
      if t.active then begin
        let value = match t.register with Some v -> v | None -> assert false in
        send t src (Reply { value; r_sn })
      end
      else t.reply_to <- add_once t.reply_to (src, r_sn)
    | Reply { value; r_sn } ->
      (* Figure 4 lines 18-21; the ACK carries the replied value's
         sequence number (see the interface note on Lemma 7). *)
      if r_sn = t.read_sn then begin
        Pid.Table.replace t.replies src value;
        (match t.pending with
        | Joining _ | Reading _ | Write_read _ ->
          span_quorum t ~from:(Pid.to_int src) ~have:(Pid.Table.length t.replies)
        | Idle | Repairing _ | Write_collect _ -> ());
        send t src (Ack { sn = value.Value.sn });
        check_completion t
      end
    | Write_msg { value } ->
      (* Figure 6 lines 06-08. *)
      if value.Value.sn > current_sn t then t.register <- Some value;
      send t src (Ack { sn = value.Value.sn })
    | Ack { sn } ->
      (* Figure 6 lines 09-10 (and the read-repair's ack wait). *)
      (match t.pending with
      | (Write_collect _ | Repairing _) when sn = t.write_sn ->
        t.write_ack <- Pid.Set.add src t.write_ack;
        span_quorum t ~from:(Pid.to_int src) ~have:(Pid.Set.cardinal t.write_ack);
        check_completion t
      | _ -> ())
    | Dl_prev { r_sn } ->
      (* Figure 4 line 22 — plus the completion the listing leaves
         implicit: a DL_PREV can arrive after we already activated
         (its sender's REPLY may be the very message that completed
         our join), in which case the promised reply goes out now
         rather than rotting in a set nobody flushes again. *)
      if t.active then begin
        let value = match t.register with Some v -> v | None -> assert false in
        send t src (Reply { value; r_sn })
      end
      else t.dl_prev <- add_once t.dl_prev (src, r_sn)

let create ~rt ~params ~pid ~initial ~on_active =
  let t =
    {
      rt;
      params;
      pid;
      register = initial;
      active = false;
      reading = false;
      read_sn = 0;
      left = false;
      replies = Pid.Table.create 16;
      reply_to = [];
      dl_prev = [];
      write_ack = Pid.Set.empty;
      write_sn = -1;
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
    (* Figure 4 lines 01-03: read_sn = 0 marks the join's inquiry. *)
    t.pending <- Joining { k = on_active };
    span_start t Event.Join;
    span_phase t "inquiry-sent";
    Runtime.broadcast rt ~src:pid (Inquiry { r_sn = 0 }));
  t

(* Figure 5 lines 01-03 — shared by reads and by the write's embedded
   read phase. *)
let start_read_phase t pending =
  t.read_sn <- t.read_sn + 1;
  Pid.Table.reset t.replies;
  t.reading <- true;
  t.pending <- pending;
  span_phase t "read-req-sent";
  Runtime.broadcast t.rt ~src:t.pid (Read_req { r_sn = t.read_sn })

let read t ~k =
  if not t.active then invalid_arg "Es_register.read: node is not active";
  if busy t then invalid_arg "Es_register.read: node is busy";
  span_start t Event.Read;
  start_read_phase t (Reading { k })

let write t data ~k =
  if not t.active then invalid_arg "Es_register.write: node is not active";
  if busy t then invalid_arg "Es_register.write: node is busy";
  (* The final sequence number is fixed only after the embedded read
     phase; the Op_start carries the local guess (what the node host's
     history also records at invocation), the Op_end the true value. *)
  span_start t ~value:(Value.make ~data ~sn:(current_sn t + 1)) Event.Write;
  start_read_phase t (Write_read { data; k })

let leave t =
  t.left <- true;
  Runtime.detach t.rt t.pid
