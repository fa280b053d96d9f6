open Dds_sim

type step =
  | Msg of Fault.rule
  | Partition of {
      name : string;
      a : int list;
      b : int list;
      symmetric : bool;
      from_ : int;
      until_ : int;
    }
  | Crash of { at : int; k : int; recover : int option }
  | Storm of { at : int; k : int }

type plan = step list

(* --- DSL ----------------------------------------------------------- *)

type window = { from_ : int; until_ : int }

let at t = { from_ = t; until_ = t }

let during ~from_ ~until_ =
  if until_ < from_ then
    invalid_arg (Printf.sprintf "Nemesis.during: until %d < from %d" until_ from_);
  { from_; until_ }

let always = { from_ = 0; until_ = max_int }

let msg ?srcs ?dsts ?kinds ?p ?max_faults action w =
  Msg (Fault.rule ?srcs ?dsts ?kinds ?p ?max_faults ~from_:w.from_ ~until_:w.until_ action)

let drop ?srcs ?dsts ?kinds ?p ?max_faults w = msg ?srcs ?dsts ?kinds ?p ?max_faults Fault.Drop w

let dup ?(copies = 1) ?srcs ?dsts ?kinds ?p ?max_faults w =
  msg ?srcs ?dsts ?kinds ?p ?max_faults (Fault.Dup { copies }) w

let delay ~extra ?srcs ?dsts ?kinds ?p ?max_faults w =
  msg ?srcs ?dsts ?kinds ?p ?max_faults (Fault.Delay { extra }) w

let corrupt ?srcs ?dsts ?kinds ?p ?max_faults w =
  msg ?srcs ?dsts ?kinds ?p ?max_faults Fault.Corrupt w

let partition ?(name = "partition") ~a ~b ?(symmetric = true) w =
  Partition { name; a; b; symmetric; from_ = w.from_; until_ = w.until_ }

let crash ?recover ~k t = Crash { at = t; k; recover }

let storm ~k t = Storm { at = t; k }

let every ~start ~period ~count mk = List.init count (fun i -> mk (start + (i * period)))

(* --- codec --------------------------------------------------------- *)

(* Pid lists print with ascending runs compressed ([0|1|2|9] as
   [0-2|9]); the parser expands both forms, so printing is one-to-one
   on the list itself whatever its order. *)
let string_of_ints xs =
  let rec runs = function
    | [] -> []
    | x :: rest ->
      let rec eat last = function
        | y :: tl when y = last + 1 -> eat y tl
        | tl -> (last, tl)
      in
      let stop, tl = eat x rest in
      (x, stop) :: runs tl
  in
  runs xs
  |> List.map (fun (a, b) ->
         if a = b then string_of_int a
         else if b = a + 1 then Printf.sprintf "%d|%d" a b
         else Printf.sprintf "%d-%d" a b)
  |> String.concat "|"

let parse_ints s =
  let part p =
    match String.index_opt p '-' with
    | Some i when i > 0 -> (
      match
        ( int_of_string_opt (String.sub p 0 i),
          int_of_string_opt (String.sub p (i + 1) (String.length p - i - 1)) )
      with
      | Some a, Some b when a <= b -> Some (List.init (b - a + 1) (fun j -> a + j))
      | _ -> None)
    | _ -> Option.map (fun v -> [ v ]) (int_of_string_opt p)
  in
  let rec all acc = function
    | [] -> Some (List.concat (List.rev acc))
    | p :: tl -> ( match part p with Some xs -> all (xs :: acc) tl | None -> None)
  in
  match all [] (String.split_on_char '|' s) with
  | Some xs -> Ok xs
  | None -> Error (Printf.sprintf "bad pid list %S" s)

let string_of_window { from_; until_ } =
  if from_ = 0 && until_ = max_int then ""
  else if from_ = until_ then Printf.sprintf "@%d" from_
  else if until_ = max_int then Printf.sprintf "@[%d,]" from_
  else Printf.sprintf "@[%d,%d]" from_ until_

let parse_window s =
  if String.equal s "" then Ok always
  else if String.length s < 2 || s.[0] <> '@' then Error (Printf.sprintf "bad window %S" s)
  else
    let body = String.sub s 1 (String.length s - 1) in
    if String.length body >= 2 && body.[0] = '[' && body.[String.length body - 1] = ']' then
      let inner = String.sub body 1 (String.length body - 2) in
      match String.split_on_char ',' inner with
      | [ a; b ] -> (
        let b = String.trim b in
        match
          (int_of_string_opt (String.trim a), if b = "" then Some max_int else int_of_string_opt b)
        with
        | Some from_, Some until_ when from_ <= until_ -> Ok { from_; until_ }
        | _ -> Error (Printf.sprintf "bad window %S" s))
      | _ -> Error (Printf.sprintf "bad window %S" s)
    else
      match int_of_string_opt body with
      | Some t -> Ok (at t)
      | None -> Error (Printf.sprintf "bad window %S" s)

let args_of_rule (r : Fault.rule) =
  (match r.Fault.action with
  | Fault.Dup { copies } -> [ Printf.sprintf "copies=%d" copies ]
  | Fault.Delay { extra } -> [ Printf.sprintf "extra=%d" extra ]
  | Fault.Drop | Fault.Corrupt -> [])
  @ (if String.equal r.Fault.name (Fault.action_name r.Fault.action) then []
     else [ "name=" ^ r.Fault.name ])
  @ (if r.Fault.kinds = [] then [] else [ "kind=" ^ String.concat "|" r.Fault.kinds ])
  @ (if r.Fault.srcs = [] then [] else [ "src=" ^ string_of_ints r.Fault.srcs ])
  @ (if r.Fault.dsts = [] then [] else [ "dst=" ^ string_of_ints r.Fault.dsts ])
  @ (if r.Fault.p >= 1.0 then [] else [ Printf.sprintf "p=%g" r.Fault.p ])
  @ if r.Fault.max_faults = max_int then [] else [ Printf.sprintf "max=%d" r.Fault.max_faults ]

let string_of_step = function
  | Msg r ->
    Printf.sprintf "%s(%s)%s"
      (Fault.action_name r.Fault.action)
      (String.concat "," (args_of_rule r))
      (string_of_window { from_ = r.Fault.from_; until_ = r.Fault.until_ })
  | Partition { name; a; b; symmetric; from_; until_ } ->
    Printf.sprintf "partition(%sa=%s,b=%s%s)%s"
      (if String.equal name "partition" then "" else "name=" ^ name ^ ",")
      (string_of_ints a) (string_of_ints b)
      (if symmetric then "" else ",oneway")
      (string_of_window { from_; until_ })
  | Crash { at; k; recover } ->
    Printf.sprintf "crash(k=%d%s)@%d" k
      (match recover with Some d -> Printf.sprintf ",recover=%d" d | None -> "")
      at
  | Storm { at; k } -> Printf.sprintf "storm(k=%d)@%d" k at

let to_string plan = String.concat ";" (List.map string_of_step plan)

let pp ppf plan = Format.pp_print_string ppf (to_string plan)

let ( let* ) = Result.bind

(* One clause is [head(k=v,...,flag,...)window]. *)
let parse_step clause =
  let clause = String.trim clause in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "%s in %S" m clause)) fmt in
  match (String.index_opt clause '(', String.rindex_opt clause ')') with
  | Some i, Some j when i < j ->
    let head = String.sub clause 0 i in
    let args = String.sub clause (i + 1) (j - i - 1) in
    let* w = parse_window (String.trim (String.sub clause (j + 1) (String.length clause - j - 1))) in
    let* kvs, flags =
      List.fold_left
        (fun acc part ->
          let* kvs, flags = acc in
          let part = String.trim part in
          if String.equal part "" then Ok (kvs, flags)
          else
            match String.index_opt part '=' with
            | Some e ->
              Ok
                ( (String.sub part 0 e, String.sub part (e + 1) (String.length part - e - 1))
                  :: kvs,
                  flags )
            | None -> Ok (kvs, part :: flags))
        (Ok ([], []))
        (String.split_on_char ',' args)
    in
    let known keys =
      match List.find_opt (fun (k, _) -> not (List.mem k keys)) kvs with
      | Some (k, _) -> fail "unknown key %S" k
      | None -> (
        match flags with
        | [] -> Ok ()
        | f :: _ when List.mem ("flag:" ^ f) keys -> Ok ()
        | f :: _ -> fail "unknown flag %S" f)
    in
    let int_opt key =
      match List.assoc_opt key kvs with
      | None -> Ok None
      | Some v -> (
        match int_of_string_opt v with
        | Some n -> Ok (Some n)
        | None -> fail "bad integer %S for %s" v key)
    in
    let float_opt key =
      match List.assoc_opt key kvs with
      | None -> Ok None
      | Some v -> (
        match float_of_string_opt v with
        | Some f -> Ok (Some f)
        | None -> fail "bad float %S for %s" v key)
    in
    let ints_opt key =
      match List.assoc_opt key kvs with
      | None -> Ok None
      | Some v -> Result.map Option.some (parse_ints v)
    in
    let selector_and_budget () =
      let* kinds =
        Ok (Option.map (String.split_on_char '|') (List.assoc_opt "kind" kvs))
      in
      let* srcs = ints_opt "src" in
      let* dsts = ints_opt "dst" in
      let* p = float_opt "p" in
      let* max_faults = int_opt "max" in
      Ok (List.assoc_opt "name" kvs, kinds, srcs, dsts, p, max_faults)
    in
    let msg_step keys action =
      let* () = known ([ "name"; "kind"; "src"; "dst"; "p"; "max" ] @ keys) in
      let* name, kinds, srcs, dsts, p, max_faults = selector_and_budget () in
      Ok
        (Msg
           (Fault.rule ?name ?kinds ?srcs ?dsts ?p ?max_faults ~from_:w.from_ ~until_:w.until_
              action))
    in
    (match head with
    | "drop" -> msg_step [] Fault.Drop
    | "corrupt" -> msg_step [] Fault.Corrupt
    | "dup" ->
      let* copies = int_opt "copies" in
      let* step = msg_step [ "copies" ] (Fault.Dup { copies = Option.value ~default:1 copies }) in
      Ok step
    | "delay" -> (
      let* extra = int_opt "extra" in
      match extra with
      | None -> fail "delay needs extra=TICKS"
      | Some extra -> msg_step [ "extra" ] (Fault.Delay { extra }))
    | "partition" -> (
      let* () = known [ "name"; "a"; "b"; "flag:oneway" ] in
      let* a = ints_opt "a" in
      let* b = ints_opt "b" in
      match (a, b) with
      | Some a, Some b ->
        Ok
          (Partition
             {
               name = Option.value ~default:"partition" (List.assoc_opt "name" kvs);
               a;
               b;
               symmetric = not (List.mem "oneway" flags);
               from_ = w.from_;
               until_ = w.until_;
             })
      | _ -> fail "partition needs a= and b= pid lists")
    | "crash" ->
      let* () = known [ "k"; "recover" ] in
      let* k = int_opt "k" in
      let* recover = int_opt "recover" in
      Ok (Crash { at = w.from_; k = Option.value ~default:1 k; recover })
    | "storm" ->
      let* () = known [ "k" ] in
      let* k = int_opt "k" in
      Ok (Storm { at = w.from_; k = Option.value ~default:1 k })
    | other -> fail "unknown fault %S" other)
  | _, _ -> fail "expected head(args)@window"

let of_string s =
  let clauses =
    List.filter (fun c -> not (String.equal (String.trim c) "")) (String.split_on_char ';' s)
  in
  List.fold_left
    (fun acc clause ->
      let* steps = acc in
      let* step = parse_step clause in
      Ok (step :: steps))
    (Ok []) clauses
  |> Result.map List.rev

let equal (a : plan) (b : plan) = a = b

(* --- random plans -------------------------------------------------- *)

type profile = Within of { slack : int } | Any

let random ~rng ~n ~horizon ~delta profile =
  let nsteps = 1 + Rng.int rng (match profile with Within _ -> 2 | Any -> 3) in
  let win () =
    let from_ = 1 + Rng.int rng (Stdlib.max 1 (horizon - 1)) in
    let len = Rng.int rng (Stdlib.max 1 (horizon / 4)) in
    during ~from_ ~until_:(Stdlib.min horizon (from_ + len))
  in
  let instant () = 1 + Rng.int rng (Stdlib.max 1 (horizon - 1)) in
  let within slack =
    match Rng.int rng 4 with
    | 0 -> dup ~copies:(1 + Rng.int rng 2) (win ())
    | 1 when slack > 0 -> delay ~extra:(1 + Rng.int rng slack) (win ())
    | 1 -> dup ~copies:1 (win ())
    | 2 -> crash ~recover:(1 + Rng.int rng (3 * delta)) ~k:1 (instant ())
    | _ -> storm ~k:1 (instant ())
  in
  let any () =
    match Rng.int rng 7 with
    | 0 -> drop ~p:0.3 ~max_faults:(1 + Rng.int rng 20) (win ())
    | 1 -> dup ~copies:(1 + Rng.int rng 3) (win ())
    | 2 -> delay ~extra:(delta + Rng.int rng (5 * delta)) (win ())
    | 3 -> corrupt ~p:0.5 ~max_faults:(1 + Rng.int rng 10) (win ())
    | 4 ->
      (* Split the founding cohort [0, n); processes churned in later
         keep full connectivity (the partition names pids, and fresh
         pids are never reused). *)
      let cut = 1 + Rng.int rng (Stdlib.max 1 (n - 1)) in
      partition ~a:(List.init cut Fun.id)
        ~b:(List.init (n - cut) (fun i -> cut + i))
        ~symmetric:(Rng.bool rng) (win ())
    | 5 ->
      let recover = if Rng.bool rng then Some (1 + Rng.int rng (3 * delta)) else None in
      crash ?recover ~k:(1 + Rng.int rng (Stdlib.max 1 (n / 2))) (instant ())
    | _ -> storm ~k:(1 + Rng.int rng (Stdlib.max 1 (n / 3))) (instant ())
  in
  List.init nsteps (fun _ ->
      match profile with Within { slack } -> within slack | Any -> any ())
