type t = {
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
  data : (string * Dds_sim.Json.t) option;
}

let make ~title ~headers ?(notes = []) rows = { title; headers; rows; notes; data = None }
let with_data name json t = { t with data = Some (name, json) }
let cell_int = string_of_int

let cell_float ?(decimals = 2) x =
  if Float.is_nan x then "-" else Printf.sprintf "%.*f" decimals x

let cell_bool b = if b then "yes" else "no"

let widths t =
  let all = t.headers :: t.rows in
  let cols = List.fold_left (fun acc row -> Stdlib.max acc (List.length row)) 0 all in
  let w = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> w.(i) <- Stdlib.max w.(i) (String.length cell)) row)
    all;
  w

let pp ppf t =
  let w = widths t in
  let pp_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Format.fprintf ppf "  ";
        Format.fprintf ppf "%-*s" w.(i) cell)
      row;
    Format.fprintf ppf "@."
  in
  let rule () =
    let total = Array.fold_left (fun acc x -> acc + x + 2) (-2) w in
    Format.fprintf ppf "%s@." (String.make (Stdlib.max total 4) '-')
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  rule ();
  pp_row t.headers;
  rule ();
  List.iter pp_row t.rows;
  rule ();
  List.iter (fun n -> Format.fprintf ppf "  %s@." n) t.notes

let print t = pp Format.std_formatter t

let to_json t =
  let module J = Dds_sim.Json in
  let strings l = J.List (List.map (fun s -> J.String s) l) in
  J.Obj
    [
      ("title", J.String t.title);
      ("headers", strings t.headers);
      ("rows", J.List (List.map strings t.rows));
      ("notes", strings t.notes);
    ]
