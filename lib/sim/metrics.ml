type t = {
  counters : (string, int ref) Hashtbl.t;
  gauge_tbl : (string, float ref) Hashtbl.t;
  hist_tbl : (string, Histogram.t) Hashtbl.t;
  mutable generation : int;  (** bumped by [reset]; handles resolved earlier are stale *)
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauge_tbl = Hashtbl.create 8;
    hist_tbl = Hashtbl.create 8;
    generation = 0;
  }

(* One lookup, and no [Some] box: [incr] and every handle's first bump
   resolve their cell here. *)
let cell t name =
  match Hashtbl.find t.counters name with
  | r -> r
  | exception Not_found ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

let add t name v =
  let r = cell t name in
  r := !r + v

let incr t name = add t name 1

(* A handle keeps the cell it resolved and the registry generation it
   resolved it in; [-1] means not resolved yet, so an unbumped handle
   registers nothing. Unresolved handles share [unresolved], which is
   never written: the first bump replaces it. *)
type counter = { reg : t; name : string; mutable cell : int ref; mutable gen : int }

let unresolved = ref 0
let counter t name = { reg = t; name; cell = unresolved; gen = -1 }

let bump_by c v =
  if c.gen <> c.reg.generation then begin
    c.cell <- cell c.reg c.name;
    c.gen <- c.reg.generation
  end;
  c.cell := !(c.cell) + v

let bump c = bump_by c 1

let get t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let sorted_bindings fold extract tbl =
  fold (fun k v acc -> (k, extract v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_list t = sorted_bindings Hashtbl.fold (fun r -> !r) t.counters

let set_gauge t name v =
  match Hashtbl.find_opt t.gauge_tbl name with
  | Some r -> r := v
  | None -> Hashtbl.add t.gauge_tbl name (ref v)

let gauge t name = Option.map ( ! ) (Hashtbl.find_opt t.gauge_tbl name)
let gauges t = sorted_bindings Hashtbl.fold (fun r -> !r) t.gauge_tbl

let histogram t name ~edges =
  match Hashtbl.find_opt t.hist_tbl name with
  | Some h -> h
  | None ->
    let h = Histogram.create ~edges in
    Hashtbl.add t.hist_tbl name h;
    h

let observe t name ~edges x = Histogram.add (histogram t name ~edges) x
let histograms t = sorted_bindings Hashtbl.fold (fun h -> h) t.hist_tbl

type histogram_snapshot = {
  edges : float array;
  counts : int array;
  count : int;
  sum : float;
  min : float;
  max : float;
}

type snapshot = {
  counters : (string * int) list;
  gauge_values : (string * float) list;
  histogram_values : (string * histogram_snapshot) list;
}

let snapshot_histogram h =
  {
    edges = Histogram.edges h;
    counts = Histogram.counts h;
    count = Histogram.count h;
    sum = Histogram.total h;
    min = Histogram.min_value h;
    max = Histogram.max_value h;
  }

let snapshot t =
  {
    counters = to_list t;
    gauge_values = gauges t;
    histogram_values = List.map (fun (k, h) -> (k, snapshot_histogram h)) (histograms t);
  }

let reset (t : t) =
  t.generation <- t.generation + 1;
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauge_tbl;
  Hashtbl.reset t.hist_tbl

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-24s %d@." k v) (to_list t);
  List.iter (fun (k, v) -> Format.fprintf ppf "%-24s %g@." k v) (gauges t);
  List.iter
    (fun (k, h) -> Format.fprintf ppf "%-24s %a@." k Histogram.pp_summary h)
    (histograms t)
