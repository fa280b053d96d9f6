open Event

(* ------------------------------------------------------------------ *)
(* JSONL *)

(* Payload fields are flattened into the event object (["data"], ["sn"])
   and simply absent when the event carries no value, so traces from
   before the payload extension still parse. *)
let payload_fields = function
  | Some { Event.data; sn } -> [ ("data", Json.Int data); ("sn", Json.Int sn) ]
  | None -> []

let event_to_json { at; ev } =
  let t = ("t", Json.Int (Time.to_int at)) in
  match ev with
  | Node_join { node } -> Json.Obj [ t; ("e", String "node_join"); ("node", Int node) ]
  | Node_leave { node } -> Json.Obj [ t; ("e", String "node_leave"); ("node", Int node) ]
  | Node_crash { node } -> Json.Obj [ t; ("e", String "node_crash"); ("node", Int node) ]
  | Send { src; dst; kind; broadcast; lamport } ->
    Json.Obj
      [
        t; ("e", String "send"); ("src", Int src); ("dst", Int dst); ("kind", String kind);
        ("bcast", Bool broadcast); ("lc", Int lamport);
      ]
  | Deliver { src; dst; kind; lamport; sent } ->
    Json.Obj
      [
        t; ("e", String "deliver"); ("src", Int src); ("dst", Int dst); ("kind", String kind);
        ("lc", Int lamport); ("slc", Int sent);
      ]
  | Drop { src; dst; kind; reason } ->
    Json.Obj
      [
        t; ("e", String "drop"); ("src", Int src); ("dst", Int dst); ("kind", String kind);
        ("reason", String (drop_reason_to_string reason));
      ]
  | Op_start { span; node; op; value } ->
    Json.Obj
      ([
         t; ("e", String "op_start"); ("span", Int span); ("node", Int node);
         ("op", String (op_kind_to_string op));
       ]
      @ payload_fields value)
  | Op_phase { span; node; phase } ->
    Json.Obj
      [
        t; ("e", String "op_phase"); ("span", Int span); ("node", Int node);
        ("phase", String phase);
      ]
  | Op_end { span; node; op; outcome; value } ->
    Json.Obj
      ([
         t; ("e", String "op_end"); ("span", Int span); ("node", Int node);
         ("op", String (op_kind_to_string op));
         ("outcome", String (outcome_to_string outcome));
       ]
      @ payload_fields value)
  | Quorum_progress { span; node; have; need; from } ->
    Json.Obj
      ([
         t; ("e", String "quorum"); ("span", Int span); ("node", Int node); ("have", Int have);
         ("need", Int need);
       ]
      @ if from >= 0 then [ ("from", Json.Int from) ] else [])
  | Gst_reached -> Json.Obj [ t; ("e", String "gst") ]
  | Violation { monitor; detail } ->
    Json.Obj
      [ t; ("e", String "violation"); ("monitor", String monitor); ("detail", String detail) ]
  | Fault_injected { fault; src; dst; kind } ->
    Json.Obj
      [
        t; ("e", String "fault"); ("fault", String fault); ("src", Int src); ("dst", Int dst);
        ("kind", String kind);
      ]

let event_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let int name = field name Json.to_int_opt in
  let str name = field name Json.to_string_opt in
  (* Absent on traces that predate the field; 0 is the neutral stamp. *)
  let int_default name d =
    match Option.bind (Json.member name j) Json.to_int_opt with Some v -> v | None -> d
  in
  let payload =
    match (Option.bind (Json.member "data" j) Json.to_int_opt,
           Option.bind (Json.member "sn" j) Json.to_int_opt)
    with
    | Some data, Some sn -> Some { Event.data; sn }
    | _, _ -> None
  in
  let* tick = int "t" in
  if tick < 0 then Error "negative timestamp"
  else begin
    let at = Time.of_int tick in
    let* tag = str "e" in
    let* ev =
      match tag with
      | "node_join" ->
        let* node = int "node" in
        Ok (Node_join { node })
      | "node_leave" ->
        let* node = int "node" in
        Ok (Node_leave { node })
      | "node_crash" ->
        let* node = int "node" in
        Ok (Node_crash { node })
      | "send" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        let broadcast =
          match Option.map (fun v -> v = Json.Bool true) (Json.member "bcast" j) with
          | Some b -> b
          | None -> false
        in
        Ok (Send { src; dst; kind; broadcast; lamport = int_default "lc" 0 })
      | "deliver" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        Ok (Deliver { src; dst; kind; lamport = int_default "lc" 0; sent = int_default "slc" 0 })
      | "drop" ->
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        let* reason_s = str "reason" in
        (match drop_reason_of_string reason_s with
        | Some reason -> Ok (Drop { src; dst; kind; reason })
        | None -> Error (Printf.sprintf "unknown drop reason %S" reason_s))
      | "op_start" ->
        let* span = int "span" in
        let* node = int "node" in
        let* op_s = str "op" in
        (match op_kind_of_string op_s with
        | Some op -> Ok (Op_start { span; node; op; value = payload })
        | None -> Error (Printf.sprintf "unknown op kind %S" op_s))
      | "op_phase" ->
        let* span = int "span" in
        let* node = int "node" in
        let* phase = str "phase" in
        Ok (Op_phase { span; node; phase })
      | "op_end" ->
        let* span = int "span" in
        let* node = int "node" in
        let* op_s = str "op" in
        let* outcome_s = str "outcome" in
        (match (op_kind_of_string op_s, outcome_of_string outcome_s) with
        | Some op, Some outcome -> Ok (Op_end { span; node; op; outcome; value = payload })
        | None, _ -> Error (Printf.sprintf "unknown op kind %S" op_s)
        | _, None -> Error (Printf.sprintf "unknown outcome %S" outcome_s))
      | "quorum" ->
        let* span = int "span" in
        let* node = int "node" in
        let* have = int "have" in
        let* need = int "need" in
        Ok (Quorum_progress { span; node; have; need; from = int_default "from" (-1) })
      | "gst" -> Ok Gst_reached
      | "violation" ->
        let* monitor = str "monitor" in
        let* detail = str "detail" in
        Ok (Violation { monitor; detail })
      | "fault" ->
        let* fault = str "fault" in
        let* src = int "src" in
        let* dst = int "dst" in
        let* kind = str "kind" in
        Ok (Fault_injected { fault; src; dst; kind })
      | other -> Error (Printf.sprintf "unknown event tag %S" other)
    in
    Ok { at; ev }
  end

let merge_tagged streams =
  List.stable_sort
    (fun ((_, a) : _ * Event.stamped) (_, b) -> Time.compare a.at b.at)
    (List.concat streams)

(* Shard-tagged JSONL: the same per-line encoding with one extra
   ["shard"] field. [event_of_json] never looks at unknown fields, so
   tagged traces stay readable by every untagged consumer; the tags
   the reader below returns are what [dds audit] uses to split a
   merged multi-shard trace back into independently checkable
   registers. *)
let tagged_event_to_json shard e =
  match (shard, event_to_json e) with
  | Some s, Json.Obj fields -> Json.Obj (fields @ [ ("shard", Json.Int s) ])
  | (None | Some _), j -> j

let jsonl_of_tagged_events evs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (shard, e) ->
      Json.to_buffer buf (tagged_event_to_json shard e);
      Buffer.add_char buf '\n')
    evs;
  Buffer.contents buf

let jsonl_of_events evs = jsonl_of_tagged_events (List.map (fun e -> (None, e)) evs)

(* The one reader, for plain and shard-tagged traces alike. A
   malformed *final* line is the signature of a process that died
   mid-write, so it is skipped with a warning; a malformed line
   anywhere else still aborts the parse (that is corruption, not
   truncation). Strict callers reject any warning. *)
let events_of_jsonl text =
  let lines = String.split_on_char '\n' text in
  let last_nonblank =
    List.fold_left
      (fun (i, last) line -> (i + 1, if String.trim line = "" then last else i))
      (1, 0) lines
    |> snd
  in
  let rec go lineno acc warnings = function
    | [] -> Ok (List.rev acc, List.rev warnings)
    | line :: rest ->
      if String.trim line = "" then go (lineno + 1) acc warnings rest
      else begin
        let parsed =
          Result.bind (Json.parse line) (fun j ->
              Result.map
                (fun ev -> (Option.bind (Json.member "shard" j) Json.to_int_opt, ev))
                (event_of_json j))
        in
        match parsed with
        | Ok tagged -> go (lineno + 1) (tagged :: acc) warnings rest
        | Error e when lineno = last_nonblank ->
          let w =
            Printf.sprintf "line %d: partial final line skipped (truncated run?): %s" lineno e
          in
          go (lineno + 1) acc (w :: warnings) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
      end
  in
  go 1 [] [] lines

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  id : int;
  node : int;
  op : Event.op_kind;
  started : Time.t;
  ended : Time.t;
  outcome : Event.outcome;
  phases : (string * Time.t) list;
}

type partial = {
  p_node : int;
  p_op : Event.op_kind;
  p_started : Time.t;
  mutable p_phases : (string * Time.t) list;  (* reversed *)
}

let spans_of_events evs =
  let open_tbl : (int, partial) Hashtbl.t = Hashtbl.create 64 in
  let done_rev = ref [] in
  List.iter
    (fun { at; ev } ->
      match ev with
      | Op_start { span; node; op; _ } ->
        Hashtbl.replace open_tbl span { p_node = node; p_op = op; p_started = at; p_phases = [] }
      | Op_phase { span; phase; _ } -> (
        match Hashtbl.find_opt open_tbl span with
        | Some p -> p.p_phases <- (phase, at) :: p.p_phases
        | None -> ())
      | Op_end { span; outcome; _ } -> (
        match Hashtbl.find_opt open_tbl span with
        | Some p ->
          Hashtbl.remove open_tbl span;
          done_rev :=
            {
              id = span;
              node = p.p_node;
              op = p.p_op;
              started = p.p_started;
              ended = at;
              outcome;
              phases = List.rev p.p_phases;
            }
            :: !done_rev
        | None -> ())
      | _ -> ())
    evs;
  let orphans =
    Hashtbl.fold (fun span _ acc -> span :: acc) open_tbl [] |> List.sort Int.compare
  in
  let completed =
    List.rev !done_rev
    |> List.stable_sort (fun a b -> Time.compare a.started b.started)
  in
  (completed, orphans)

let phase_durations s =
  let rec go prev = function
    | [] -> [ ("end", Time.diff s.ended prev) ]
    | (name, at) :: rest -> (name, Time.diff at prev) :: go at rest
  in
  go s.started s.phases

(* ------------------------------------------------------------------ *)
(* Chrome trace_event *)

let chrome_of_events evs =
  let spans, _orphans = spans_of_events evs in
  let nodes = Hashtbl.create 32 in
  let note_node n = if not (Hashtbl.mem nodes n) then Hashtbl.add nodes n () in
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Node_join { node } | Node_leave { node } | Node_crash { node } -> note_node node
      | Op_start { node; _ } | Op_end { node; _ } -> note_node node
      | Send { src; dst; _ } | Deliver { src; dst; _ } | Drop { src; dst; _ } ->
        note_node src;
        note_node dst
      | Op_phase _ | Quorum_progress _ | Gst_reached | Violation _ | Fault_injected _ -> ())
    evs;
  let metadata =
    Hashtbl.fold (fun n () acc -> n :: acc) nodes []
    |> List.sort Int.compare
    |> List.map (fun n ->
           Json.Obj
             [
               ("ph", Json.String "M"); ("pid", Int n); ("tid", Int 0);
               ("name", String "process_name");
               ("args", Obj [ ("name", String (Printf.sprintf "node p%d" n)) ]);
             ])
  in
  let span_events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("ph", Json.String "X");
            ("pid", Int s.node);
            ("tid", Int 0);
            ("ts", Int (Time.to_int s.started));
            ("dur", Int (Time.diff s.ended s.started));
            ("name", String (op_kind_to_string s.op));
            ("cat", String "op");
            ( "args",
              Obj
                [
                  ("span", Int s.id);
                  ("outcome", String (outcome_to_string s.outcome));
                  ( "phases",
                    Obj (List.map (fun (p, at) -> (p, Json.Int (Time.to_int at))) s.phases) );
                ] );
          ])
      spans
  in
  let instant ~pid ~ts ~name ~cat ~scope =
    Json.Obj
      [
        ("ph", Json.String "i"); ("pid", Int pid); ("tid", Int 0); ("ts", Int ts);
        ("name", String name); ("cat", String cat); ("s", String scope);
      ]
  in
  let instants =
    List.filter_map
      (fun { at; ev } ->
        let ts = Time.to_int at in
        match ev with
        | Node_join { node } -> Some (instant ~pid:node ~ts ~name:"enter" ~cat:"churn" ~scope:"p")
        | Node_leave { node } -> Some (instant ~pid:node ~ts ~name:"leave" ~cat:"churn" ~scope:"p")
        | Node_crash { node } -> Some (instant ~pid:node ~ts ~name:"crash" ~cat:"churn" ~scope:"p")
        | Fault_injected { fault; kind; src; _ } ->
          Some
            (instant
               ~pid:(Stdlib.max src 0)
               ~ts
               ~name:(if kind = "" then fault else Printf.sprintf "%s %s" fault kind)
               ~cat:"fault" ~scope:"p")
        | Drop { dst; kind; reason; _ } ->
          Some
            (instant ~pid:dst ~ts
               ~name:(Printf.sprintf "drop %s (%s)" kind (drop_reason_to_string reason))
               ~cat:"net" ~scope:"p")
        | Gst_reached -> Some (instant ~pid:0 ~ts ~name:"GST" ~cat:"model" ~scope:"g")
        | _ -> None)
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metadata @ span_events @ instants));
      ("displayTimeUnit", String "ms");
    ]

(* The chrome rendering keeps every span (id, outcome, phase marks in
   its [args]) and the churn/GST instants, so those reconstruct
   exactly; Send/Deliver are rendered only in aggregate and are gone.
   Net drop instants are also skipped on readback: their src is not
   recoverable from the instant's label. *)
let events_of_chrome json =
  let ( let* ) r f = Result.bind r f in
  let int name j =
    match Option.bind (Json.member name j) Json.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let str name j =
    match Option.bind (Json.member name j) Json.to_string_opt with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  match Json.member "traceEvents" json with
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.concat (List.rev acc))
      | item :: rest ->
        let* evs =
          match Json.member "ph" item with
          | Some (Json.String "X") ->
            let* node = int "pid" item in
            let* ts = int "ts" item in
            let* dur = int "dur" item in
            let* op_s = str "name" item in
            let* op =
              match op_kind_of_string op_s with
              | Some op -> Ok op
              | None -> Error (Printf.sprintf "unknown op kind %S" op_s)
            in
            let* args =
              match Json.member "args" item with
              | Some a -> Ok a
              | None -> Error "span event without args"
            in
            let* span = int "span" args in
            let* outcome_s = str "outcome" args in
            let* outcome =
              match outcome_of_string outcome_s with
              | Some o -> Ok o
              | None -> Error (Printf.sprintf "unknown outcome %S" outcome_s)
            in
            let phases =
              match Json.member "phases" args with
              | Some (Json.Obj fields) ->
                List.filter_map
                  (fun (p, v) -> Option.map (fun t -> (p, t)) (Json.to_int_opt v))
                  fields
              | Some _ | None -> []
            in
            Ok
              (({ at = Time.of_int ts; ev = Op_start { span; node; op; value = None } }
               :: List.map
                    (fun (phase, t) ->
                      { at = Time.of_int t; ev = Op_phase { span; node; phase } })
                    phases)
              @ [
                  {
                    at = Time.of_int (ts + dur);
                    ev = Op_end { span; node; op; outcome; value = None };
                  };
                ])
          | Some (Json.String "i") -> (
            match (Json.member "cat" item, Json.member "name" item) with
            | Some (Json.String "churn"), Some (Json.String nm) -> (
              let* node = int "pid" item in
              let* ts = int "ts" item in
              match nm with
              | "enter" -> Ok [ { at = Time.of_int ts; ev = Node_join { node } } ]
              | "leave" -> Ok [ { at = Time.of_int ts; ev = Node_leave { node } } ]
              | "crash" -> Ok [ { at = Time.of_int ts; ev = Node_crash { node } } ]
              | _ -> Ok [])
            | Some (Json.String "model"), _ ->
              let* ts = int "ts" item in
              Ok [ { at = Time.of_int ts; ev = Gst_reached } ]
            | _ -> Ok [])
          | _ -> Ok []
        in
        go (evs :: acc) rest
    in
    let* all = go [] items in
    (* Per-span events are emitted start → phases → end with
       nondecreasing stamps, so a stable sort by time recovers a valid
       emission order. *)
    Ok (List.stable_sort (fun a b -> Time.compare a.at b.at) all)
  | Some _ | None -> Error "missing traceEvents array"

(* ------------------------------------------------------------------ *)
(* Causal message graph (DOT) *)

(* Each Send/Deliver is a vertex named [p<proc>_<lamport>] — unique
   because a process's Lamport clock strictly increases on both kinds
   of step. Edges: the process order (consecutive stamps on one
   process, drawn solid) and the message order (Send -> its Deliver,
   matched on the receiver's echoed [sent] stamp, drawn dashed). *)
let dot_of_events evs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph causality {\n";
  Buffer.add_string buf "  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  (* Per-process chains, in emission order. *)
  let chains : (int, (int * string) list ref) Hashtbl.t = Hashtbl.create 32 in
  let push proc lamport label =
    let cell =
      match Hashtbl.find_opt chains proc with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add chains proc c;
        c
    in
    cell := (lamport, label) :: !cell
  in
  List.iter
    (fun { at; ev } ->
      match ev with
      | Send { src; dst; kind; lamport; _ } ->
        push src lamport (Printf.sprintf "t=%d snd %s to p%d" (Time.to_int at) kind dst)
      | Deliver { src; dst; kind; lamport; _ } ->
        push dst lamport (Printf.sprintf "t=%d rcv %s from p%d" (Time.to_int at) kind src)
      | _ -> ())
    evs;
  let procs =
    Hashtbl.fold (fun p _ acc -> p :: acc) chains [] |> List.sort Int.compare
  in
  List.iter
    (fun p ->
      let entries = List.rev !(Hashtbl.find chains p) in
      List.iter
        (fun (lc, label) ->
          Buffer.add_string buf
            (Printf.sprintf "  p%d_%d [label=\"p%d.%d %s\"];\n" p lc p lc label))
        entries;
      let rec link = function
        | (a, _) :: ((b, _) :: _ as rest) ->
          Buffer.add_string buf (Printf.sprintf "  p%d_%d -> p%d_%d;\n" p a p b);
          link rest
        | [ _ ] | [] -> ()
      in
      link entries)
    procs;
  (* Message edges: a Deliver's (src, sent) names its Send vertex. *)
  List.iter
    (fun { ev; _ } ->
      match ev with
      | Deliver { src; dst; kind; lamport; sent } ->
        Buffer.add_string buf
          (Printf.sprintf "  p%d_%d -> p%d_%d [style=dashed, label=\"%s\", fontsize=8];\n" src
             sent dst lamport kind)
      | _ -> ())
    evs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Metrics *)

let metrics_to_json (s : Metrics.snapshot) =
  let hist (h : Metrics.histogram_snapshot) =
    Json.Obj
      [
        ("edges", Json.List (Array.to_list (Array.map (fun e -> Json.Float e) h.edges)));
        ("counts", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) h.counts)));
        ("count", Int h.count);
        ("sum", Float h.sum);
        ("min", Float h.min);
        ("max", Float h.max);
      ]
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauge_values));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist h)) s.histogram_values) );
    ]
