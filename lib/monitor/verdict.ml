open Dds_spec

type t = {
  regularity : Regularity.report;
  inversions : Atomicity.inversion list option;
  findings : Monitor.violation list option;
}

let make ?inversions ?findings regularity = { regularity; inversions; findings }

(* One judged part: its block label and headline, the prefix its
   problem lines carry outside the block, and those lines. Every
   renderer reads this one list, so a problem reads the same
   everywhere. *)
type part = { label : string; headline : string; prefix : string; items : string list }

let str pp x = Format.asprintf "%a" pp x
let word r = if Regularity.is_ok r then "REGULAR" else "VIOLATED"
let count o = Option.map List.length o

let parts t =
  let r = t.regularity in
  let unless ok item = if ok then [] else [ item ] in
  let judged label prefix headline pp =
    Option.map (fun l ->
        { label; headline = headline (List.length l); prefix; items = List.map (str pp) l })
  in
  {
    label = "regularity";
    headline =
      Printf.sprintf "%s (%d reads, %d joins checked; %d violations)" (word r)
        r.Regularity.checked_reads r.Regularity.checked_joins
        (List.length r.Regularity.violations);
    prefix = "regularity: ";
    items =
      List.map (str Regularity.pp_violation) r.Regularity.violations
      @ unless r.Regularity.writes_sequential
          "writes overlap: the single-writer assumption does not hold"
      @ unless r.Regularity.distinct_data
          "a datum was written twice: matching reads by datum is not exact";
  }
  :: List.filter_map Fun.id
       [
         judged "atomicity" "atomicity: " (Printf.sprintf "%d new/old inversion(s)")
           Atomicity.pp_inversion t.inversions;
         judged "monitors" "" (Printf.sprintf "%d violation(s)") Monitor.pp_violation t.findings;
       ]

let problems t = List.concat_map (fun p -> List.map (( ^ ) p.prefix) p.items) (parts t)

let is_ok t =
  let none = function None | Some [] -> true | Some _ -> false in
  Regularity.is_ok t.regularity && none t.inversions && none t.findings

let pp ppf t =
  List.iter
    (fun p ->
      Format.fprintf ppf "%-10s : %s@." p.label p.headline;
      List.iter (Format.fprintf ppf "  %s@.") p.items)
    (parts t)

let pp_row ppf t =
  let r = t.regularity in
  let opt fmt = Option.fold ~none:"" ~some:(Printf.sprintf fmt) in
  Format.fprintf ppf "%s (%d reads, %d joins checked%s%s)" (word r) r.Regularity.checked_reads
    r.Regularity.checked_joins
    (opt "; %d new/old inversion(s)" (count t.inversions))
    (opt "; %d monitor violation(s)" (count t.findings))

let pp_total ppf ts =
  Format.fprintf ppf "regularity : %s (%d shard(s))@."
    (if List.for_all (fun t -> Regularity.is_ok t.regularity) ts then "REGULAR" else "VIOLATED")
    (List.length ts);
  match List.filter_map (fun t -> count t.findings) ts with
  | [] -> ()
  | counts -> Format.fprintf ppf "monitors   : %d violation(s)@." (List.fold_left ( + ) 0 counts)

let pp_problems ~indent ppf t =
  List.iter (Format.fprintf ppf "%s%s@." (String.make indent ' ')) (problems t)
