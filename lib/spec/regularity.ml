open Dds_sim

type violation = { op : History.op; returned : Value.t; allowed : Value.t list }

type report = {
  checked_reads : int;
  checked_joins : int;
  violations : violation list;
  writes_sequential : bool;
  distinct_data : bool;
}

(* The initial value behaves as a write that completed before time 0. *)
type write_span = { value : Value.t; invoked : Time.t option; responded : Time.t option }

let of_write_op (o : History.op) =
  match o.kind with
  | History.Write v ->
    (* An aborted write stopped at an unknown instant but may have
       disseminated: treat it as never responding (concurrent with
       everything after its invocation). *)
    let responded = if o.aborted then None else o.responded in
    { value = v; invoked = Some o.invoked; responded }
  | History.Read _ | History.Join _ -> assert false

let write_spans history =
  let initial = { value = History.initial history; invoked = None; responded = None } in
  (* [initial.responded = None] would mean "never completed"; encode the
     virtual initial write as completed-before-everything instead. *)
  let spans = List.map of_write_op (History.disseminated_writes history) in
  (initial, List.sort (fun a b -> Value.compare_sn a.value b.value) spans)

(* Sequentiality is judged on non-aborted writes only. *)
let sequential_spans history = List.map of_write_op (History.all_writes history)

let writes_sequential spans =
  let rec loop = function
    | a :: (b :: _ as rest) ->
      let ok =
        match (a.responded, b.invoked) with
        | Some ra, Some ib -> Time.(ra <= ib)
        | None, Some _ -> false (* a never finished yet b started: overlap *)
        | _, None -> false
      in
      ok && loop rest
    | [ _ ] | [] -> true
  in
  loop spans

(* Strictly-before: the write's response precedes the op's invocation. *)
let completed_before span ~invoked =
  match span.responded with Some r -> Time.(r < invoked) | None -> false

(* Closed-interval overlap, inclusive at both boundaries. *)
let concurrent_with span ~invoked ~responded =
  let starts_before_end =
    match span.invoked with Some i -> Time.(i <= responded) | None -> false
  in
  let ends_after_start =
    match span.responded with Some r -> Time.(r >= invoked) | None -> true
  in
  starts_before_end && ends_after_start

let allowed_of_spans (initial, spans) ~invoked ~responded =
  let last_completed =
    List.fold_left
      (fun best span -> if completed_before span ~invoked then span.value else best)
      initial.value spans
  in
  let concurrents =
    List.filter_map
      (fun span ->
        if concurrent_with span ~invoked ~responded then Some span.value else None)
      spans
  in
  last_completed :: concurrents

let distinct_data (initial, spans) =
  let data = initial.value.Value.data :: List.map (fun s -> s.value.Value.data) spans in
  let sorted = List.sort Int.compare data in
  let rec no_dup = function
    | a :: (b :: _ as rest) -> a <> b && no_dup rest
    | [ _ ] | [] -> true
  in
  no_dup sorted

let check ?(include_joins = true) history =
  let spans = write_spans history in
  let sequential = writes_sequential (sequential_spans history) in
  let distinct = distinct_data spans in
  let check_op (o : History.op) returned =
    match o.responded with
    | None -> None
    | Some responded ->
      let allowed = allowed_of_spans spans ~invoked:o.invoked ~responded in
      if List.exists (Value.same_data returned) allowed then None
      else Some { op = o; returned; allowed }
  in
  let reads = History.completed_reads history in
  let joins = if include_joins then History.completed_joins history else [] in
  let violations =
    List.filter_map
      (fun (o : History.op) ->
        match o.kind with
        | History.Read (Some v) | History.Join (Some v) -> check_op o v
        | History.Read None | History.Join None | History.Write _ -> None)
      (reads @ joins)
  in
  {
    checked_reads = List.length reads;
    checked_joins = List.length joins;
    violations;
    writes_sequential = sequential;
    distinct_data = distinct;
  }

let is_ok r = r.writes_sequential && r.distinct_data && r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf "%a returned %a, allowed {%a}" History.pp_op v.op Value.pp v.returned
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
    v.allowed

let pp_report ppf r =
  Format.fprintf ppf "reads=%d joins=%d violations=%d writes_sequential=%b distinct_data=%b"
    r.checked_reads r.checked_joins (List.length r.violations) r.writes_sequential
    r.distinct_data;
  List.iter (fun v -> Format.fprintf ppf "@.  %a" pp_violation v) r.violations
