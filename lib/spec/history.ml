open Dds_sim
open Dds_net

type op_id = int

type kind = Read of Value.t option | Write of Value.t | Join of Value.t option

(* Internal mutable record; frozen into [op] on export. *)
type cell = {
  id : op_id;
  pid : Pid.t;
  mutable kind : kind;
  invoked : Time.t;
  mutable responded : Time.t option;
  mutable aborted : bool;
}

type op = {
  id : op_id;
  pid : Pid.t;
  kind : kind;
  invoked : Time.t;
  responded : Time.t option;
  aborted : bool;
}

type t = {
  initial : Value.t;
  mutable cells : cell list; (* newest first *)
  mutable by_id : cell array;  (** indexed by id; grows by doubling *)
  mutable next_id : int;
}

let create ~initial = { initial; cells = []; by_id = [||]; next_id = 0 }
let initial t = t.initial

let register t pid ~now kind =
  let cell : cell =
    { id = t.next_id; pid; kind; invoked = now; responded = None; aborted = false }
  in
  t.next_id <- t.next_id + 1;
  t.cells <- cell :: t.cells;
  if cell.id = Array.length t.by_id then begin
    let grown = Array.make (Stdlib.max 8 (2 * cell.id)) cell in
    Array.blit t.by_id 0 grown 0 cell.id;
    t.by_id <- grown
  end;
  t.by_id.(cell.id) <- cell;
  cell.id

let cell t id =
  if id < 0 || id >= t.next_id then invalid_arg "History: unknown operation id";
  t.by_id.(id)

let respond t id ~now update =
  let c = cell t id in
  if c.responded <> None then invalid_arg "History: operation already responded";
  if c.aborted then invalid_arg "History: operation was aborted";
  (* Validate (and patch) the kind first: a failed call must leave the
     record untouched, not half-responded. *)
  update c;
  c.responded <- Some now

let begin_read t pid ~now = register t pid ~now (Read None)

let end_read t id ~now value =
  respond t id ~now (fun c ->
      match c.kind with
      | Read None -> c.kind <- Read (Some value)
      | Read (Some _) | Write _ | Join _ -> invalid_arg "History.end_read: not a pending read")

let begin_write t pid ~now value = register t pid ~now (Write value)

let end_write t id ~now value =
  respond t id ~now (fun c ->
      match c.kind with
      | Write _ -> c.kind <- Write value
      | Read _ | Join _ -> invalid_arg "History.end_write: not a write")

let begin_join t pid ~now = register t pid ~now (Join None)

let end_join t id ~now value =
  respond t id ~now (fun c ->
      match c.kind with
      | Join None -> c.kind <- Join (Some value)
      | Join (Some _) | Read _ | Write _ -> invalid_arg "History.end_join: not a pending join")

let abort t id =
  let c = cell t id in
  if c.responded <> None then invalid_arg "History.abort: operation already responded";
  c.aborted <- true

let freeze (c : cell) =
  {
    id = c.id;
    pid = c.pid;
    kind = c.kind;
    invoked = c.invoked;
    responded = c.responded;
    aborted = c.aborted;
  }

let ops t = List.rev_map freeze t.cells
let fold_right f t init = List.fold_left (fun acc c -> f (freeze c) acc) init t.cells

let filter_ops t pred = List.filter pred (ops t)

let completed_reads t =
  filter_ops t (fun o ->
      (not o.aborted) && o.responded <> None
      && match o.kind with Read _ -> true | Write _ | Join _ -> false)

let completed_writes t =
  filter_ops t (fun o ->
      (not o.aborted) && o.responded <> None
      && match o.kind with Write _ -> true | Read _ | Join _ -> false)

let all_writes t =
  filter_ops t (fun o ->
      (not o.aborted) && match o.kind with Write _ -> true | Read _ | Join _ -> false)

let disseminated_writes t =
  filter_ops t (fun o -> match o.kind with Write _ -> true | Read _ | Join _ -> false)

let completed_joins t =
  filter_ops t (fun o ->
      (not o.aborted) && o.responded <> None
      && match o.kind with Join _ -> true | Read _ | Write _ -> false)

let pending t = filter_ops t (fun o -> (not o.aborted) && o.responded = None)
let aborted t = filter_ops t (fun o -> o.aborted)
let count t = t.next_id

let pp_kind ppf = function
  | Read None -> Format.pp_print_string ppf "read:?"
  | Read (Some v) -> Format.fprintf ppf "read:%a" Value.pp v
  | Write v -> Format.fprintf ppf "write:%a" Value.pp v
  | Join None -> Format.pp_print_string ppf "join:?"
  | Join (Some v) -> Format.fprintf ppf "join:%a" Value.pp v

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "id,pid,kind,data,sn,invoked,responded,aborted\n";
  let value_cells = function
    | Some (v : Value.t) -> (string_of_int v.Value.data, string_of_int v.Value.sn)
    | None -> ("", "")
  in
  List.iter
    (fun o ->
      let kind, (data, sn) =
        match o.kind with
        | Read v -> ("read", value_cells v)
        | Write v -> ("write", value_cells (Some v))
        | Join v -> ("join", value_cells v)
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%s,%s,%d,%s,%b\n" o.id
           (Pid.to_int o.pid)
           kind data sn
           (Time.to_int o.invoked)
           (match o.responded with Some r -> string_of_int (Time.to_int r) | None -> "")
           o.aborted))
    (ops t);
  Buffer.contents buf

let put b t =
  let value (v : Value.t) =
    Wire.put_int b v.Value.data;
    Wire.put_int b v.Value.sn
  in
  List.iter
    (fun (c : cell) ->
      (match c.kind with
      | Read None -> Wire.put_u8 b 0
      | Read (Some _) -> Wire.put_u8 b 1
      | Write _ -> Wire.put_u8 b 2
      | Join None -> Wire.put_u8 b 3
      | Join (Some _) -> Wire.put_u8 b 4);
      Wire.put_int b c.id;
      Wire.put_int b (Pid.to_int c.pid);
      (match c.kind with
      | Read (Some v) | Write v | Join (Some v) -> value v
      | Read None | Join None -> ());
      Wire.put_int b (Time.to_int c.invoked);
      (match c.responded with
      | Some r ->
        Wire.put_u8 b 1;
        Wire.put_int b (Time.to_int r)
      | None -> Wire.put_u8 b 0);
      Wire.put_bool b c.aborted)
    t.cells

let pp_op ppf o =
  Format.fprintf ppf "[%a %a %a..%s%s]" Pid.pp o.pid pp_kind o.kind Time.pp o.invoked
    (match o.responded with Some r -> Format.asprintf "%a" Time.pp r | None -> "pending")
    (if o.aborted then " aborted" else "")
