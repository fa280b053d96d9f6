(* In-memory span recorder for the traced run. Spans are recorded from
   the benchmark's own code around calls into each layer, kept in
   arrays, and written out once the run ends. *)

type t = {
  mutable names : string array;
  mutable starts : float array;  (** seconds *)
  mutable stops : float array;
  mutable parents : int array;  (** -1: a root span *)
  mutable n : int;
}

let create () =
  let cap = 4096 in
  { names = Array.make cap ""; starts = Array.make cap 0.; stops = Array.make cap 0.;
    parents = Array.make cap (-1); n = 0 }

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0.;
  t.stops <- ext t.stops 0.;
  t.parents <- ext t.parents (-1)

(* Opens a span and returns its id; [close] sets its end. *)
let open_ t ?(parent = -1) name ~start =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.names.(id) <- name;
  t.starts.(id) <- start;
  t.stops.(id) <- start;
  t.parents.(id) <- parent;
  t.n <- id + 1;
  id

let close t id ~stop = t.stops.(id) <- stop

let add t ?parent name ~start ~stop = close t (open_ t ?parent name ~start) ~stop

type row = { name : string; calls : int; total_s : float; self_s : float }

(* Self time: a span's duration minus its children's. Children of one
   span never overlap here (one thread records them in order). *)
let table t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stops.(i) -. t.starts.(i))
  done;
  let rows = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let d = t.stops.(i) -. t.starts.(i) in
    let calls, total, self =
      Option.value (Hashtbl.find_opt rows t.names.(i)) ~default:(0, 0., 0.)
    in
    Hashtbl.replace rows t.names.(i) (calls + 1, total +. d, self +. d -. child.(i))
  done;
  Hashtbl.fold
    (fun name (calls, total_s, self_s) acc -> { name; calls; total_s; self_s } :: acc)
    rows []
  |> List.sort (fun a b -> compare a.name b.name)

(* Mean duration of the spans called [name]: spans of a microsecond or
   less are below the clock's resolution one by one, not on average. *)
let mean t name =
  let total = ref 0. and calls = ref 0 in
  for i = 0 to t.n - 1 do
    if t.names.(i) = name then begin
      total := !total +. (t.stops.(i) -. t.starts.(i));
      incr calls
    end
  done;
  if !calls = 0 then 0. else !total /. float_of_int !calls

let pp_table ppf rows =
  Format.fprintf ppf "  %-22s %9s %12s %12s %10s@." "span" "calls" "total ms" "self ms"
    "self/call";
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-22s %9d %12.2f %12.2f %8.2fus@." r.name r.calls (r.total_s *. 1e3)
        (r.self_s *. 1e3)
        (r.self_s *. 1e6 /. float_of_int (Stdlib.max 1 r.calls)))
    rows

(* One JSON object per line, times in microseconds from the first span. *)
let write_jsonl t path =
  let origin = if t.n > 0 then t.starts.(0) else 0. in
  Out_channel.with_open_bin path (fun oc ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_us\":%.1f,\"dur_us\":%.3f}\n"
          i t.names.(i) t.parents.(i)
          ((t.starts.(i) -. origin) *. 1e6)
          ((t.stops.(i) -. t.starts.(i)) *. 1e6)
      done)
