open Dds_net

type outcome = Commit of int | Abort of string

let round_for ~participant_index ~attempt ~k = (attempt * k) + participant_index + 1

(* Reads every register in parallel (k distinct protocol nodes of
   [self]), continuing once all have answered. *)
let read_all t ~self ~k:cont =
  let kk = Register_array.k t in
  let results = Array.make kk Codec.bottom in
  let remaining = ref kk in
  for reg = 0 to kk - 1 do
    Register_array.read t ~self ~reg ~k:(fun record ->
        results.(reg) <- record;
        decr remaining;
        if !remaining = 0 then cont results)
  done

let interference ~round ~check_lrww records =
  let found = ref None in
  Array.iteri
    (fun reg (r : Codec.record) ->
      if !found = None then
        if r.Codec.lre > round then
          found := Some (Printf.sprintf "reg %d saw round %d (lre)" reg r.Codec.lre)
        else if check_lrww && r.Codec.lrww > round then
          found := Some (Printf.sprintf "reg %d saw round %d (lrww)" reg r.Codec.lrww))
    records;
  !found

let adopt ~fallback records =
  let best =
    Array.fold_left
      (fun acc (r : Codec.record) ->
        match acc with
        | Some (b : Codec.record) when b.Codec.lrww >= r.Codec.lrww -> acc
        | _ -> Some r)
      None records
  in
  match best with
  | Some r when r.Codec.lrww > 0 -> r.Codec.v
  | Some _ | None -> fallback

let propose t ~self ~self_reg ~round ~value ~k:cont =
  if value <= 0 || value >= Codec.field_max then
    invalid_arg "Alpha.propose: value must be in (0, Codec.field_max)";
  if round <= 0 || round >= Codec.field_max then
    invalid_arg "Alpha.propose: round outside the codec's range";
  if not (Pid.equal self (Register_array.owner t ~reg:self_reg)) then
    invalid_arg "Alpha.propose: self must own self_reg";
  (* Step 1: announce the round, preserving our last written value. *)
  let own = Register_array.snapshot_own t ~self ~reg:self_reg in
  Register_array.write t ~self ~reg:self_reg
    ~record:{ own with Codec.lre = round }
    ~k:(fun () ->
      (* Step 2-3: scan for interference, adopt the freshest value. *)
      read_all t ~self ~k:(fun records ->
          match interference ~round ~check_lrww:true records with
          | Some why -> cont (Abort why)
          | None ->
            let adopted = adopt ~fallback:value records in
            (* Step 4: write the adopted value at our round. *)
            Register_array.write t ~self ~reg:self_reg
              ~record:{ Codec.lre = round; lrww = round; v = adopted }
              ~k:(fun () ->
                (* Step 5-6: confirm nobody moved past us meanwhile. *)
                read_all t ~self ~k:(fun records2 ->
                    match interference ~round ~check_lrww:false records2 with
                    | Some why -> cont (Abort why)
                    | None -> cont (Commit adopted)))))
