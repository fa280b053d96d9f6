open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_fault
module Pool = Dds_engine.Pool
module Verdict = Dds_monitor.Verdict

type stats = {
  schedules : int;
  truncated : int;
  state_prunes : int;
  sleep_skips : int;
  preempt_skips : int;
  max_depth : int;
  cache_entries : int;
  cache_peak : int;
}

type violation = { schedule : Schedule.t; verdict : Verdict.t; at_schedule : int }

type outcome = { stats : stats; violation : violation option }

(* ------------------------------------------------------------------ *)
(* Independence and sleep sets. Two events commute iff both are
   node-local (actor >= 0) and act on distinct nodes; everything else
   — scripted operations, crash decision ticks, fault choices — is
   conservatively dependent with everything. *)

let indep (a : Scheduler.tag) (b : Scheduler.tag) =
  a.Scheduler.actor >= 0 && b.Scheduler.actor >= 0 && a.Scheduler.actor <> b.Scheduler.actor

let tag_equal (a : Scheduler.tag) (b : Scheduler.tag) =
  a.Scheduler.actor = b.Scheduler.actor && String.equal a.Scheduler.kind b.Scheduler.kind

let in_sleep tag sleep = List.exists (tag_equal tag) sleep
let sleep_subset s1 s2 = List.for_all (fun t -> in_sleep t s2) s1

(* ------------------------------------------------------------------ *)
(* Decisions and their labels. Exploration keeps a decision as the
   branch taken, the point's arity and the taken branch's tag: nothing
   is rendered while the tree is explored. A label is rendered only
   when a schedule is printed or replayed ({!label}). *)

type dec = {
  chosen : int;
  arity : int;
  tag : Scheduler.tag;  (** the taken branch's tag *)
  at : Time.t;  (** when the point was offered; names untagged events *)
  sched : bool;  (** a scheduling point, rather than an adversary one *)
}

(* The label a decision prints as. Scheduling points print their
   candidate's tag, decoded by the network when it is a delivery key,
   or the virtual time when the candidate is untagged; adversary points
   print the tag followed by the branch index. The renderer closes over
   nothing but the protocol's pure codec and printers, so one instance
   may be shared by every worker domain. *)
let label (type p) (module D : Deployment.S with type Protocol.params = p) (d : dec) =
  if not d.sched then d.tag.Scheduler.kind ^ "=" ^ string_of_int d.chosen
  else if String.equal d.tag.Scheduler.kind "" then "ev@t=" ^ string_of_int (Time.to_int d.at)
  else
    Network.tag_label ~get_msg:D.Protocol.get_msg ~msg_kind:D.Protocol.msg_kind
      ~pp_msg:D.Protocol.pp_msg d.tag.Scheduler.kind

let to_schedule label decisions =
  List.map (fun d -> { Schedule.chosen = d.chosen; arity = d.arity; label = label d }) decisions

(* ------------------------------------------------------------------ *)
(* Exploration internals: a node of the choice tree, the one rule that
   says which branches of a point are explored, the one rule that says
   what an explored branch's child inherits, and the one tally that
   runs, skipped branches, subtree jobs and the whole check add up to.
   A run's chooser, the DFS and the frontier probes all go through
   these. *)

type prune = No_prune | Sleep_redundant | State_hit | Preempt_blocked

(* A node of the choice tree: the decisions that reach it, newest
   first, so a child's path is one cons onto its parent's and every
   frame a run opens shares that run's list (paths cost O(depth) per
   run, not O(depth) per frame); the sleep set on entry; and the
   preemptions spent on the way. *)
type node = { path : dec list; sleep : Scheduler.tag list; preempts : int }

let root = { path = []; sleep = []; preempts = 0 }

(* The decisions a run is forced through: the path to a tree node, or
   a schedule being replayed, whose labels are checked against the
   run. *)
type script = Path of node | Recorded of Schedule.decision array

(* A path oldest first, converted in one pass. *)
let path_array = function
  | [] -> [||]
  | newest :: _ as path ->
    let n = List.length path in
    let a = Array.make n newest in
    List.iteri (fun k d -> a.(n - 1 - k) <- d) path;
    a

(* A choice point a run opened, at [node]. [tried] is the branch
   explored last: the run's own pick, then each sibling the DFS
   descends into. [dones] holds the tags of the branches explored so
   far, newest first. *)
type frame = {
  node : node;
  tags : Scheduler.tag array;  (** the point's branches *)
  at : Time.t;
  sched : bool;  (** scheduling point (preemption accounting applies) *)
  mutable tried : int;
  mutable dones : Scheduler.tag list;
}

let branch f i =
  { chosen = i; arity = Array.length f.tags; tag = f.tags.(i); at = f.at; sched = f.sched }

(* The branch rule: branch [i] of [f] is asleep (a commuting
   interleaving covers it), blocked (a preemption over the budget) or
   awake ([No_prune]), and only awake branches are explored. *)
let status ~por ~(cfg : Schedule.config) f i =
  if por && in_sleep f.tags.(i) f.node.sleep then Sleep_redundant
  else if f.sched && i > 0 && f.node.preempts >= cfg.preempt_bound then Preempt_blocked
  else No_prune

(* The lowest awake branch of [f] from [i] up; [skip] is told why each
   branch passed over is not explored. *)
let rec awake_from ~por ~cfg ~skip f i =
  if i >= Array.length f.tags then None
  else
    match status ~por ~cfg f i with
    | No_prune -> Some i
    | why ->
      skip why;
      awake_from ~por ~cfg ~skip f (i + 1)

(* The child rule: the node branch [i] of [f] leads to. It sleeps on
   its parent's sleep set and on the siblings explored before it, as
   far as they commute with its own event; a non-FIFO branch at a
   scheduling point spends one preemption. *)
let child ~por f i =
  {
    path = branch f i :: f.node.path;
    sleep = (if por then List.filter (indep f.tags.(i)) (f.node.sleep @ f.dones) else []);
    preempts = (f.node.preempts + if f.sched && i > 0 then 1 else 0);
  }

(* The tally of a run, a skipped branch, a subtree job or a whole
   check: its counts, and its first violation as the decisions (newest
   first), the verdict and the 1-based index among the schedules
   counted in it. *)
type job_result = { jr_stats : stats; jr_violation : (dec list * Verdict.t * int) option }

let zero =
  {
    schedules = 0;
    truncated = 0;
    state_prunes = 0;
    sleep_skips = 0;
    preempt_skips = 0;
    max_depth = 0;
    cache_entries = 0;
    cache_peak = 0;
  }

let empty = { jr_stats = zero; jr_violation = None }
let counts st = { jr_stats = st; jr_violation = None }

(* One pruned run or skipped branch. *)
let pruned =
  let sleep = counts { zero with sleep_skips = 1 }
  and hit = counts { zero with state_prunes = 1 }
  and blocked = counts { zero with preempt_skips = 1 } in
  function
  | No_prune -> empty | Sleep_redundant -> sleep | State_hit -> hit | Preempt_blocked -> blocked

(* One judged schedule. *)
let judged ~decisions ~truncated verdict =
  {
    jr_stats =
      {
        zero with
        schedules = 1;
        truncated = Bool.to_int truncated;
        max_depth = List.length decisions;
      };
    jr_violation = (if Verdict.is_ok verdict then None else Some (decisions, verdict, 1));
  }

(* [a] then [b]: counts add, the depth and the cache peak take the
   max, and the first violation wins, renumbered past [a]'s
   schedules. *)
let combine a b =
  let x = a.jr_stats and y = b.jr_stats in
  {
    jr_stats =
      {
        schedules = x.schedules + y.schedules;
        truncated = x.truncated + y.truncated;
        state_prunes = x.state_prunes + y.state_prunes;
        sleep_skips = x.sleep_skips + y.sleep_skips;
        preempt_skips = x.preempt_skips + y.preempt_skips;
        max_depth = Stdlib.max x.max_depth y.max_depth;
        cache_entries = x.cache_entries + y.cache_entries;
        cache_peak = Stdlib.max x.cache_peak y.cache_peak;
      };
    jr_violation =
      (match a.jr_violation with
      | Some _ as v -> v
      | None ->
        Option.map (fun (decs, v, at) -> (decs, v, x.schedules + at)) b.jr_violation);
  }

type run_result = {
  frames : frame list;  (** fresh points opened, shallow to deep *)
  tally : job_result;  (** this run alone: one judged schedule, or one prune *)
  verdict : Verdict.t option;  (** [None] for a pruned run *)
}

type cache_entry = {
  ce_sleep : Scheduler.tag list;
  ce_depth_left : int;
  ce_preempt_left : int;
}

(* One subtree job's state cache, keyed by raw MD5 fingerprints, with
   the buffer the fingerprint is written into. Both are job-local:
   a job runs on one domain, so nothing here is ever shared. *)
type cache = { entries : (Digest.t, cache_entry list ref) Hashtbl.t; fp : Buffer.t }

let create_cache () = { entries = Hashtbl.create 256; fp = Buffer.create 1024 }

(* The scripted workload: writes from the designated writer, reads
   round-robin over the other founding nodes starting just after a
   write's completion window, joins entering mid-run. Times are spaced
   so distinct operations never share a tick (the fingerprint
   distinguishes pending scripted events by time alone). *)
let op_schedule (c : Schedule.config) =
  let d6 = 6 * c.delta in
  let writes = List.init c.writes (fun k -> 2 + (k * d6)) in
  (* A write is two quorum round trips (4 message hops of delta each,
     self-messages included); reads start one tick after that window so
     a violating stale read is unambiguously non-concurrent. *)
  let reads = List.init c.reads (fun j -> 2 + (6 * c.delta) + (j * d6)) in
  let joins = List.init c.joins (fun i -> 3 + (i * d6)) in
  (writes, reads, joins)

let horizon_of c =
  let ws, rs, js = op_schedule c in
  List.fold_left Stdlib.max 2 (List.concat [ ws; rs; js ]) + (10 * c.delta)

let crash_ticks (c : Schedule.config) = [ 2 + c.delta; 2 + (3 * c.delta); 2 + (5 * c.delta) ]

let validate_config (c : Schedule.config) =
  if c.nodes < 1 then Error "check: nodes must be >= 1"
  else if c.delta < 1 then Error "check: delta must be >= 1"
  else if c.writes < 0 || c.reads < 0 || c.joins < 0 then
    Error "check: workload counts must be >= 0"
  else if c.drop_budget < 0 || c.crash_budget < 0 then Error "check: budgets must be >= 0"
  else if c.depth_bound < 1 then Error "check: depth bound must be >= 1"
  else if c.preempt_bound < 0 then Error "check: preemption bound must be >= 0"
  else Ok ()

let check_arity i ~offered ~recorded =
  if offered <> recorded then
    failwith
      (Printf.sprintf
         "check: schedule divergence at decision %d: point offers %d branch(es), schedule \
          recorded %d"
         i offered recorded)

(* One stateless re-execution: build a fresh deployment, force the
   scripted decision prefix, then descend (lowest awake branch first),
   opening a frame per point. The run stops at a prune, and a [probe]
   at its first frame; past the depth bound or a replayed schedule,
   every decision takes branch 0 up to the horizon, as that run is
   judged. Deterministic: checker deployments draw no randomness
   (adversarially constant delay, no churn engine, fixed workload), so
   the decision sequence alone determines the run. *)
let run_one (type p) (module D : Deployment.S with type Protocol.params = p) (params : p)
    ~label ~atomic ~(cfg : Schedule.config) ~(script : script) ~probe ~por
    ~(cache : cache option) () : run_result =
  let dconfig =
    Deployment.default_config ~seed:0 ~n:cfg.nodes
      ~delay:(Delay.adversarial (fun _ -> cfg.delta))
      ~churn_rate:0.0
  in
  let d = D.create dconfig params in
  let sched = D.scheduler d in
  let module A = Adversary.Make (D) in
  let adversary = ref None in
  let depth = ref 0 in
  (* The node the run stands at; its path grows by every decision past
     a forced path, which is already on it. *)
  let cur = ref (match script with Path nd -> nd | Recorded _ -> root) in
  let forced, replay =
    match script with Path nd -> (path_array nd.path, false) | Recorded _ -> ([||], true)
  in
  let frames = ref [] in
  let truncated = ref false in
  (* Raised where a run's tally is settled; it unwinds out of the
     chooser or an adversary callback, which is safe because the
     deployment is this run's alone and is dropped with it. A probe
     stops at its frame with [No_prune], an empty tally. *)
  let exception Stop of prune in
  let script_len = match script with Path _ -> Array.length forced | Recorded a -> Array.length a in
  (* Fingerprint of everything observable about the simulation state:
     virtual time, each present node's protocol-visible state, every
     in-flight event (including the popped ready set at a scheduling
     point), the adversary's spent budgets, and the full operation
     history. Sequence numbers are deliberately excluded — equivalent
     interleavings assign them differently. Written in binary into the
     cache's buffer: each item opens with a marker byte and strings are
     length-prefixed, so the encoding is self-delimiting and equal
     bytes mean equal states. *)
  let fingerprint (c : cache) (ready_tags : Scheduler.tag array) =
    let b = c.fp in
    Buffer.clear b;
    Wire.put_int b (Time.to_int (D.now d));
    List.iter
      (fun pid ->
        match D.node d pid with
        | None -> ()
        | Some nd ->
          Buffer.add_char b 'n';
          Wire.put_int b (Pid.to_int pid);
          Wire.put_bool b (D.Protocol.is_active nd);
          Wire.put_bool b (D.Protocol.busy nd);
          (match D.Protocol.snapshot nd with
          | Some v ->
            Wire.put_u8 b 1;
            Value.put b v
          | None -> Wire.put_u8 b 0);
          Wire.put_u8 b
            (match D.Protocol.current_span nd with
            | None -> 0
            | Some (_, Event.Join) -> 1
            | Some (_, Event.Read) -> 2
            | Some (_, Event.Write) -> 3))
      (Network.attached (D.network d));
    List.iter
      (fun cand ->
        let tag = Scheduler.candidate_tag cand in
        Buffer.add_char b 'q';
        Wire.put_int b (Time.to_int (Scheduler.candidate_time cand));
        Wire.put_int b tag.Scheduler.actor;
        Wire.put_string b tag.Scheduler.kind)
      (Scheduler.pending_candidates sched);
    Array.iter
      (fun (tag : Scheduler.tag) ->
        Buffer.add_char b 'r';
        Wire.put_int b tag.actor;
        Wire.put_string b tag.kind)
      ready_tags;
    (match !adversary with
    | Some a ->
      Buffer.add_char b 'a';
      Wire.put_int b (A.drops_injected a);
      Wire.put_int b (A.crashes_injected a)
    | None -> ());
    History.put b (D.history d);
    Digest.string (Buffer.contents b)
  in
  let decide ~sched_point ~(tags : Scheduler.tag array) ~at =
    let arity = Array.length tags in
    let offered ch = { chosen = ch; arity; tag = tags.(ch); at; sched = sched_point } in
    let take ch =
      cur := { !cur with path = offered ch :: !cur.path };
      ch
    in
    let i = !depth in
    incr depth;
    if i < script_len then
      match script with
      | Path _ ->
        (* The path's own decision is reused as is: runs are
           deterministic, so its tag equals the one offered here. *)
        check_arity i ~offered:arity ~recorded:forced.(i).arity;
        forced.(i).chosen
      | Recorded a ->
        let r = a.(i) in
        check_arity i ~offered:arity ~recorded:r.Schedule.arity;
        let here = label (offered r.Schedule.chosen) in
        if not (String.equal here r.Schedule.label) then
          failwith
            (Printf.sprintf
               "check: schedule divergence at decision %d: branch %d is %S, schedule \
                recorded %S"
               i r.Schedule.chosen here r.Schedule.label);
        take r.Schedule.chosen
    else if replay then take 0
    else if i >= cfg.depth_bound then begin
      truncated := true;
      take 0
    end
    else begin
      let { sleep; preempts; _ } = !cur in
      let depth_left = cfg.depth_bound - i in
      let preempt_left = cfg.preempt_bound - preempts in
      let cache_hit =
        match cache with
        | None -> false
        | Some cache -> (
          let fp = fingerprint cache tags in
          let entry =
            { ce_sleep = sleep; ce_depth_left = depth_left; ce_preempt_left = preempt_left }
          in
          match Hashtbl.find_opt cache.entries fp with
          | Some entries
            when List.exists
                   (fun e ->
                     e.ce_depth_left >= depth_left
                     && e.ce_preempt_left >= preempt_left
                     && sleep_subset e.ce_sleep sleep)
                   !entries ->
            true
          | Some entries ->
            entries := entry :: !entries;
            false
          | None ->
            Hashtbl.add cache.entries fp (ref [ entry ]);
            false)
      in
      if cache_hit then raise_notrace (Stop State_hit)
      else begin
        let f = { node = !cur; tags; at; sched = sched_point; tried = 0; dones = [] } in
        (* With no awake branch the run is pruned: over the preemption
           budget if any branch was blocked, else redundant. *)
        let why = ref Sleep_redundant in
        match
          awake_from ~por ~cfg f 0 ~skip:(fun w -> if w = Preempt_blocked then why := w)
        with
        | None -> raise_notrace (Stop !why)
        | Some a ->
          f.tried <- a;
          frames := f :: !frames;
          if probe then raise_notrace (Stop No_prune);
          cur := child ~por f a;
          a
      end
    end
  in
  Scheduler.set_chooser sched
    (Some
       (fun candidates ->
         decide ~sched_point:true
           ~tags:(Array.map Scheduler.candidate_tag candidates)
           ~at:(Scheduler.candidate_time candidates.(0))));
  if cfg.drop_budget > 0 || cfg.crash_budget > 0 then begin
    let choose ~n ~label =
      decide ~sched_point:false
        ~tags:(Array.make n { Scheduler.actor = -1; kind = label })
        ~at:(D.now d)
    in
    adversary :=
      Some
        (A.install ~choose ~drop_budget:cfg.drop_budget ~crash_budget:cfg.crash_budget
           ~crash_ticks:(crash_ticks cfg) d)
  end;
  let can_op pid =
    match D.node d pid with
    | Some nd -> D.Protocol.is_active nd && not (D.Protocol.busy nd)
    | None -> false
  in
  let ws, rs, js = op_schedule cfg in
  List.iter
    (fun t ->
      ignore
        (Scheduler.schedule_at sched (Time.of_int t) (fun () ->
             match D.writer d with
             | Some w when can_op w -> D.write d w
             | Some _ | None -> ())))
    ws;
  List.iteri
    (fun j t ->
      let reader = Pid.of_int (if cfg.nodes > 1 then 1 + (j mod (cfg.nodes - 1)) else 0) in
      ignore
        (Scheduler.schedule_at sched (Time.of_int t) (fun () ->
             if can_op reader then D.read d reader)))
    rs;
  List.iter
    (fun t ->
      ignore (Scheduler.schedule_at sched (Time.of_int t) (fun () -> ignore (D.spawn d))))
    js;
  match D.run_until d (Time.of_int (horizon_of cfg)) with
  | exception Stop why -> { frames = List.rev !frames; tally = pruned why; verdict = None }
  | () ->
    let inversions = if atomic then Some (Atomicity.inversions (D.history d)) else None in
    let verdict = Verdict.make ?inversions (D.regularity d) in
    {
      frames = List.rev !frames;
      tally = judged ~decisions:!cur.path ~truncated:!truncated verdict;
      verdict = Some verdict;
    }

(* [make_exec] resolves the protocol's parameters once and closes over
   them: the returned function is one stateless re-execution, paired
   with the protocol's label renderer. *)
let make_exec (p : Protocol.t) (cfg : Schedule.config) =
  let module R = (val p.Protocol.runner : Protocol.RUNNER) in
  match R.params { Protocol.n = cfg.nodes; delta = cfg.delta; quorum = cfg.quorum } with
  | Error e -> Error e
  | Ok params ->
    let label = label (module R.D) in
    Ok
      ( (fun ~script ~probe ~por ~cache () ->
          run_one
            (module R.D)
            params ~label ~atomic:p.Protocol.atomic ~cfg ~script ~probe ~por ~cache ()),
        label )

(* ------------------------------------------------------------------ *)
(* DFS over one subtree, stateless-re-execution style: each descent
   re-runs from the root with a longer forced prefix. *)

let dfs ~exec ~por ~state_cache ~(cfg : Schedule.config) (top : node) : job_result =
  let cache = if state_cache then Some (create_cache ()) else None in
  let total = ref empty in
  let skip why = total := combine !total (pruned why) in
  let stack = ref [] in
  let descend nd =
    let rr = exec ~script:(Path nd) ~probe:false ~por ~cache () in
    (* Branches below a run's pick were skipped when it opened them. *)
    List.iter
      (fun f ->
        for i = 0 to f.tried - 1 do
          skip (status ~por ~cfg f i)
        done)
      rr.frames;
    total := combine !total rr.tally;
    List.iter (fun f -> stack := f :: !stack) rr.frames
  in
  descend top;
  let rec next_sibling () =
    match !stack with
    | f :: rest when Option.is_none !total.jr_violation ->
      f.dones <- f.tags.(f.tried) :: f.dones;
      (match awake_from ~por ~cfg ~skip f (f.tried + 1) with
      | None -> stack := rest
      | Some i ->
        f.tried <- i;
        descend (child ~por f i));
      next_sibling ()
    | _ -> ()
  in
  next_sibling ();
  (* Entries are only ever added, so the cache's final population is
     its peak; every miss inserts exactly one entry, so this is also
     the miss count (hit rate = state_prunes / (state_prunes +
     cache_entries)). *)
  let cache_size =
    match cache with
    | None -> 0
    | Some c -> Hashtbl.fold (fun _ entries acc -> acc + List.length !entries) c.entries 0
  in
  combine !total (counts { zero with cache_entries = cache_size; cache_peak = cache_size })

(* ------------------------------------------------------------------ *)
(* Top-of-tree partitioning: one probe run discovers the first choice
   point below a node; its awake branches (in index order, with the
   children sequential DFS would give them) become the next frontier
   level, and every other branch, or a probe run that opens no point,
   is a one-run tally already. Probes use no state cache, so the
   frontier — and therefore every explored count — is a pure function
   of the tree shape. *)

let children ~exec ~por ~(cfg : Schedule.config) (nd : node) : (node, job_result) Either.t list
    =
  let rr = exec ~script:(Path nd) ~probe:true ~por ~cache:None () in
  match rr.frames with
  | [] -> [ Either.Right rr.tally ]
  | f :: _ ->
    List.init (Array.length f.tags) (fun i ->
        match status ~por ~cfg f i with
        | No_prune ->
          let c = child ~por f i in
          f.dones <- f.tags.(i) :: f.dones;
          Either.Left c
        | why -> Either.Right (pruned why))

(* ------------------------------------------------------------------ *)
(* Orchestration. *)

let rec drop_while p = function x :: tl when p x -> drop_while p tl | l -> l

(* Oldest first, without the trailing run of branch-0 decisions. *)
let trim_defaults newest_first = List.rev (drop_while (fun d -> d.chosen = 0) newest_first)

(* Every input check a check makes before it explores anything. *)
let prepare (p : Protocol.t) (cfg : Schedule.config) =
  let ( let* ) = Result.bind in
  let* () = validate_config cfg in
  let* () =
    if String.equal cfg.proto p.Protocol.name then Ok ()
    else
      Error
        (Printf.sprintf "check: config is for protocol %S, asked to check %S" cfg.proto
           p.Protocol.name)
  in
  make_exec p cfg

let validate p cfg = Result.map ignore (prepare p cfg)

let run ?pool ?(por = true) ?(state_cache = true) ?(frontier = 64) (p : Protocol.t)
    (cfg : Schedule.config) : (outcome, string) result =
  let ( let* ) = Result.bind in
  let* exec, label = prepare p cfg in
  let go pool =
    let frontier_nodes =
      Pool.expand_frontier pool
        ~key:(fun nd -> Printf.sprintf "check:probe:d%d" (List.length nd.path))
        ~children:(children ~exec ~por ~cfg) ~max_levels:2 ~target:frontier [ root ]
    in
    let jresults =
      Pool.map pool
        ~key:(fun (i, _) -> Printf.sprintf "check:dfs:%d" i)
        ~f:(fun (_, nd) -> dfs ~exec ~por ~state_cache ~cfg nd)
        (List.mapi (fun i nd -> (i, nd)) (List.filter_map Either.find_left frontier_nodes))
    in
    (* Tally in frontier order, each job's result where its subtree
       stood. *)
    let total, _ =
      List.fold_left
        (fun (acc, jresults) item ->
          match (item, jresults) with
          | Either.Right leaf, _ -> (combine acc leaf, jresults)
          | Either.Left _, jr :: rest -> (combine acc jr, rest)
          | Either.Left _, [] -> assert false)
        (empty, jresults) frontier_nodes
    in
    {
      stats = total.jr_stats;
      violation =
        Option.map
          (fun (decs, verdict, at) ->
            {
              schedule =
                { Schedule.config = cfg; decisions = to_schedule label (trim_defaults decs) };
              verdict;
              at_schedule = at;
            })
          total.jr_violation;
    }
  in
  match pool with
  | Some pool -> Ok (go pool)
  | None -> Ok (Pool.with_pool ~jobs:1 go)

let replay_schedule (s : Schedule.t) : (Verdict.t, string) result =
  let ( let* ) = Result.bind in
  let cfg = s.Schedule.config in
  let* () = validate_config cfg in
  let* p =
    match Protocol.find cfg.proto with
    | Some p -> Ok p
    | None ->
      Error
        (Printf.sprintf "unknown protocol %S (%s)" cfg.proto
           (String.concat "|" Protocol.names))
  in
  let* exec, _ = make_exec p cfg in
  match
    exec ~script:(Recorded (Array.of_list s.Schedule.decisions)) ~probe:false ~por:false
      ~cache:None ()
  with
  | exception Failure msg -> Error msg
  | { verdict = Some v; _ } -> Ok v
  | { verdict = None; _ } -> assert false (* a replay never prunes *)

