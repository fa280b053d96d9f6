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

(* The disseminated writes' spans, sorted by sn, and the initial value's. *)
let write_spans history spans =
  let initial = { value = History.initial history; invoked = None; responded = None } in
  (* [initial.responded = None] would mean "never completed"; encode the
     virtual initial write as completed-before-everything instead. *)
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

(* The fold: every read and join scans every write span, O(R x W).
   The tests keep it as the oracle [check] must agree with. *)
let check_by_fold ?(include_joins = true) history =
  let spans =
    write_spans history (List.map of_write_op (History.disseminated_writes history))
  in
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

(* One pass over the history, newest operation first, so each list
   comes out in invocation order. [next_invoked] is the invocation of
   the next non-aborted write, for [writes_sequential]'s pairwise rule. *)
type collected = {
  reads : History.op list;
  joins : History.op list;
  disseminated : write_span list;
  sequential : bool;
  next_invoked : Time.t option;
}

let collect ~include_joins history =
  let step (o : History.op) acc =
    let completed = (not o.aborted) && o.responded <> None in
    match o.kind with
    | History.Read _ -> if completed then { acc with reads = o :: acc.reads } else acc
    | History.Join _ ->
      if completed && include_joins then { acc with joins = o :: acc.joins } else acc
    | History.Write _ ->
      let disseminated = of_write_op o :: acc.disseminated in
      if o.aborted then { acc with disseminated }
      else
        let ok =
          match (o.responded, acc.next_invoked) with
          | _, None -> true
          | Some r, Some next -> Time.(r <= next)
          | None, Some _ -> false
        in
        {
          acc with
          disseminated;
          sequential = acc.sequential && ok;
          next_invoked = Some o.invoked;
        }
  in
  History.fold_right step history
    { reads = []; joins = []; disseminated = []; sequential = true; next_invoked = None }

module Datum = Hashtbl.Make (Int)

(* The sn-sorted spans indexed for one lookup per read: each datum's
   spans, in sn order (-1 for the initial value), and the completed
   spans sorted by response, with [last.(k)] the highest sn index among
   the first k + 1 of them. The spans completed before an instant are
   then a prefix of [responses], and the last of them in sn order is
   one binary search away, whatever the order of responses in sn
   order and however often a datum repeats. *)
type index = {
  spans : write_span array;
  by_datum : int list Datum.t;
  responses : Time.t array;
  last : int array;
  distinct : bool;
}

let index (initial, spans) =
  let spans = Array.of_list spans in
  let by_datum = Datum.create (Array.length spans + 1) in
  let distinct = ref true in
  let add d i =
    match Datum.find by_datum d with
    | js ->
      distinct := false;
      Datum.replace by_datum d (i :: js)
    | exception Not_found -> Datum.add by_datum d [ i ]
  in
  let completed = ref [] in
  for i = Array.length spans - 1 downto 0 do
    add spans.(i).value.Value.data i;
    if spans.(i).responded <> None then completed := i :: !completed
  done;
  add initial.value.Value.data (-1);
  let response i = Option.get spans.(i).responded in
  let last = Array.of_list !completed in
  Array.stable_sort (fun i j -> Time.compare (response i) (response j)) last;
  let responses = Array.map response last in
  for k = 1 to Array.length last - 1 do
    last.(k) <- Stdlib.max last.(k) last.(k - 1)
  done;
  { spans; by_datum; responses; last; distinct = !distinct }

(* [allowed_of_spans]'s verdict without building the list: one of the
   datum's spans is the last completed one or concurrent with the op. *)
let allows idx ~invoked ~responded (returned : Value.t) =
  match Datum.find_opt idx.by_datum returned.Value.data with
  | None -> false
  | Some js ->
    let k = Time.count_before idx.responses invoked in
    let last = if k = 0 then -1 else idx.last.(k - 1) in
    List.exists
      (fun j -> j = last || (j >= 0 && concurrent_with idx.spans.(j) ~invoked ~responded))
      js

let check ?(include_joins = true) history =
  let c = collect ~include_joins history in
  let spans = write_spans history c.disseminated in
  let idx = index spans in
  let verdict (o : History.op) =
    match (o.kind, o.responded) with
    | (History.Read (Some returned) | History.Join (Some returned)), Some responded ->
      if allows idx ~invoked:o.invoked ~responded returned then None
      else
        let allowed = allowed_of_spans spans ~invoked:o.invoked ~responded in
        Some { op = o; returned; allowed }
    | _ -> None
  in
  let violations = List.filter_map verdict c.reads @ List.filter_map verdict c.joins in
  {
    checked_reads = List.length c.reads;
    checked_joins = List.length c.joins;
    violations;
    writes_sequential = c.sequential;
    distinct_data = idx.distinct;
  }

let is_ok r = r.writes_sequential && r.distinct_data && r.violations = []

let pp_violation ppf v =
  Format.fprintf ppf "%a returned %a, allowed {%a}" History.pp_op v.op Value.pp v.returned
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") Value.pp)
    v.allowed
