(** Static shard placement for a live keyed deployment.

    The wire protocol's keyed operations need one more piece of
    shared configuration beyond the [--peers] list: which node hosts
    which shard. The placement is static (no rebalancing — ROADMAP
    item 3's migration follow-on) and must be quoted identically to
    every [dds serve] process and to [dds load]/[dds client], exactly
    like the peers list: the server uses it to decide which shards to
    instantiate and where to send each shard's protocol messages, the
    client uses it to route a key's operation to a node that owns the
    key's shard.

    The spec grammar is [--owned a,b;c;a,c]: one [,]-separated group
    of shard ids per node, groups separated by [;], node order = peers
    order. A single group with no [;] replicates to every node (the
    common "everybody hosts everything" deployment), and omitting the
    flag means exactly that for all shards. Keys map to shards through
    {!Dds_shard.Shard.route} — the same SplitMix64 placement hash the
    simulated store uses, so a live mesh and a simulated run spread
    one key-space identically. *)

type t = {
  shards : int;
  owned : int list array;  (** node -> shards it hosts, ascending *)
  owners : int list array;  (** shard -> nodes hosting it, ascending *)
}

let shards t = t.shards
let owned t node = t.owned.(node)
let owners t shard = t.owners.(shard)

(* The designated writer of a shard: its lowest owner. The per-shard
   single-writer regime the protocols' correctness arguments assume
   needs one agreed funnel per shard; lowest-pid is the same rule the
   simulated store's writer election starts from. *)
let writer t shard = List.hd t.owners.(shard)

let route t ~key = Dds_shard.Shard.route ~shards:t.shards ~key

let of_owned ~shards owned =
  let nodes = Array.length owned in
  let owners = Array.make shards [] in
  Array.iteri
    (fun node os ->
      List.iter (fun s -> owners.(s) <- node :: owners.(s)) os)
    owned;
  let owners = Array.map (fun l -> List.sort_uniq compare l) owners in
  let orphan = ref None in
  Array.iteri (fun s os -> if os = [] && !orphan = None then orphan := Some s) owners;
  match !orphan with
  | Some s -> Error (Printf.sprintf "shard %d has no owner (%d node(s))" s nodes)
  | None -> Ok { shards; owned = Array.map (List.sort_uniq compare) owned; owners }

(* Every node owns every shard — the default placement; with one
   shard it is the classic single-register deployment. *)
let all ~nodes ~shards =
  let every = List.init shards (fun s -> s) in
  { shards; owned = Array.make nodes every; owners = Array.make shards (List.init nodes (fun n -> n)) }

let parse_group ~shards group =
  let parts = String.split_on_char ',' (String.trim group) in
  let rec go acc = function
    | [] -> Ok (List.sort_uniq compare (List.rev acc))
    | p :: rest -> (
      match int_of_string_opt (String.trim p) with
      | Some s when s >= 0 && s < shards -> go (s :: acc) rest
      | Some s -> Error (Printf.sprintf "shard %d out of range [0, %d)" s shards)
      | None -> Error (Printf.sprintf "cannot parse shard id %S" p))
  in
  go [] parts

let make ~nodes ~shards ~spec =
  if shards <= 0 then Error (Printf.sprintf "--shards %d must be positive" shards)
  else if nodes <= 0 then Error "empty mesh"
  else
    match spec with
    | None -> Ok (all ~nodes ~shards)
    | Some spec -> (
      let groups = String.split_on_char ';' spec in
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | g :: rest -> (
          match parse_group ~shards g with Ok os -> go (os :: acc) rest | Error e -> Error e)
      in
      match go [] groups with
      | Error e -> Error e
      | Ok [ one ] when nodes > 1 ->
        (* One group, many nodes: the group is every node's owned set. *)
        of_owned ~shards (Array.make nodes one)
      | Ok many when List.length many = nodes -> of_owned ~shards (Array.of_list many)
      | Ok many ->
        Error
          (Printf.sprintf "--owned lists %d node group(s) for a %d-node mesh"
             (List.length many) nodes))

let to_string t =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun os -> String.concat "," (List.map string_of_int os))
          t.owned))
