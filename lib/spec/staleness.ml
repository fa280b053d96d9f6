open Dds_sim

type report = {
  per_read : (History.op * int) list;
  stats : Stats.t;
  max_staleness : int;
}

let measure ?(include_joins = false) history =
  let write_resp_sns =
    (* (response, sn) of each completed write, response-ascending. *)
    List.filter_map
      (fun (o : History.op) ->
        match (o.kind, o.responded) with
        | History.Write v, Some r -> Some (r, v.Value.sn)
        | _, _ -> None)
      (History.completed_writes history)
    |> List.sort (fun (a, _) (b, _) -> Time.compare a b)
    |> Array.of_list
  in
  let responses = Array.map fst write_resp_sns in
  (* [max_sn.(k)]: the highest sn among the first k + 1 responses. *)
  let max_sn = Array.map snd write_resp_sns in
  for k = 1 to Array.length max_sn - 1 do
    max_sn.(k) <- Stdlib.max max_sn.(k) max_sn.(k - 1)
  done;
  let last_sn_before invoked =
    match Time.count_before responses invoked with
    | 0 -> 0
    | k -> Stdlib.max 0 max_sn.(k - 1)
  in
  let reads = History.completed_reads history in
  let joins = if include_joins then History.completed_joins history else [] in
  let per_read =
    List.filter_map
      (fun (o : History.op) ->
        match o.kind with
        | History.Read (Some v) | History.Join (Some v) ->
          let sn = if Value.is_bottom v then -1 else v.Value.sn in
          Some (o, Stdlib.max 0 (last_sn_before o.invoked - sn))
        | History.Read None | History.Join None | History.Write _ -> None)
      (reads @ joins)
    |> List.sort (fun ((a : History.op), _) (b, _) -> Time.compare a.invoked b.invoked)
  in
  let stats = Stats.create () in
  List.iter (fun (_, s) -> Stats.add_int stats s) per_read;
  let max_staleness = List.fold_left (fun acc (_, s) -> Stdlib.max acc s) 0 per_read in
  { per_read; stats; max_staleness }

let pp_report ppf r =
  Format.fprintf ppf "staleness: %a (max=%d)" Stats.pp_summary r.stats r.max_staleness
