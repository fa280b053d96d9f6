open Dds_sim
open Dds_net
open Dds_spec
open Dds_core
open Dds_fault
module Pool = Dds_engine.Pool

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

type violation = { schedule : Schedule.t; lines : string list; at_schedule : int }

type outcome = { stats : stats; violation : violation option }

type replay = {
  decisions_used : int;
  regularity : Regularity.report;
  inversions : int;
  violations : string list;
}

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
(* Exploration internals. *)

type prune = No_prune | Sleep_redundant | State_hit | Preempt_blocked

(* The decisions a run is forced through: a DFS path, or a schedule
   being replayed, whose labels are checked against the run. *)
type script = Path of dec array | Recorded of Schedule.decision array

(* Decision paths are kept newest first, so a child's path is one cons
   onto its parent's and every frame a run opens shares that run's
   list: paths cost O(depth) per run, not O(depth) per frame. *)
let path_script = function
  | [] -> Path [||]
  | newest :: _ as path ->
    let n = List.length path in
    let a = Array.make n newest in
    List.iteri (fun k d -> a.(n - 1 - k) <- d) path;
    Path a

type frame = {
  f_path : dec list;  (** decisions before this point, newest first *)
  f_tags : Scheduler.tag array;  (** the point's branches *)
  f_at : Time.t;
  f_sched : bool;  (** scheduling point (preemption accounting applies) *)
  f_chosen : int;
  f_sleep : Scheduler.tag list;  (** sleep set on entry to this node *)
  f_preempts : int;  (** preemptions spent before this point *)
}

let branch f i =
  { chosen = i; arity = Array.length f.f_tags; tag = f.f_tags.(i); at = f.f_at; sched = f.f_sched }

type run_result = {
  frames : frame list;  (** fresh points opened, shallow to deep *)
  decisions : dec list;  (** newest first *)
  r_truncated : bool;
  pruned : prune;
  bad : string list;
  report : Regularity.report option;
  r_inversions : int;
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

let validate (c : Schedule.config) =
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
   scripted decision prefix, then descend (lowest awake branch first)
   opening up to [fresh_limit] new frames; beyond the depth bound or
   after a prune, every decision defaults to branch 0. Deterministic:
   checker deployments draw no randomness (adversarially constant
   delay, no churn engine, fixed workload), so the decision sequence
   alone determines the run. *)
let run_one (type p) (module D : Deployment.S with type Protocol.params = p) (params : p)
    ~label ~atomic ~(cfg : Schedule.config) ~(script : script) ~sleep0 ~preempts0 ~fresh_limit
    ~por ~(cache : cache option) () : run_result =
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
  let taken = ref [] in
  let frames = ref [] in
  let fresh_open = ref 0 in
  let truncated = ref false in
  let pruned = ref No_prune in
  let sleep = ref sleep0 in
  let preempts = ref preempts0 in
  let script_len = match script with Path a -> Array.length a | Recorded a -> Array.length a in
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
    let record dec =
      taken := dec :: !taken;
      dec.chosen
    in
    let take ch = record (offered ch) in
    let i = !depth in
    incr depth;
    if i < script_len then
      match script with
      | Path a ->
        (* The path's own decision is reused as is: runs are
           deterministic, so its tag equals the one offered here. *)
        check_arity i ~offered:arity ~recorded:a.(i).arity;
        record a.(i)
      | Recorded a ->
        let r = a.(i) in
        check_arity i ~offered:arity ~recorded:r.Schedule.arity;
        let dec = offered r.Schedule.chosen in
        let here = label dec in
        if not (String.equal here r.Schedule.label) then
          failwith
            (Printf.sprintf
               "check: schedule divergence at decision %d: branch %d is %S, schedule \
                recorded %S"
               i dec.chosen here r.Schedule.label);
        record dec
    else if !pruned <> No_prune || !fresh_open >= fresh_limit then take 0
    else if i >= cfg.depth_bound then begin
      truncated := true;
      take 0
    end
    else begin
      let depth_left = cfg.depth_bound - i in
      let preempt_left = cfg.preempt_bound - !preempts in
      let cache_hit =
        match cache with
        | None -> false
        | Some cache -> (
          let fp = fingerprint cache tags in
          match Hashtbl.find_opt cache.entries fp with
          | Some entries
            when List.exists
                   (fun e ->
                     e.ce_depth_left >= depth_left
                     && e.ce_preempt_left >= preempt_left
                     && sleep_subset e.ce_sleep !sleep)
                   !entries ->
            true
          | Some entries ->
            entries :=
              { ce_sleep = !sleep; ce_depth_left = depth_left; ce_preempt_left = preempt_left }
              :: !entries;
            false
          | None ->
            Hashtbl.add cache.entries fp
              (ref
                 [
                   {
                     ce_sleep = !sleep;
                     ce_depth_left = depth_left;
                     ce_preempt_left = preempt_left;
                   };
                 ]);
            false)
      in
      if cache_hit then begin
        pruned := State_hit;
        take 0
      end
      else begin
        (* Lowest awake branch within the preemption budget. *)
        let choice = ref None in
        let any_awake = ref false in
        let j = ref 0 in
        while !choice = None && !j < arity do
          let t = tags.(!j) in
          if por && in_sleep t !sleep then ()
          else begin
            any_awake := true;
            if sched_point && !j > 0 && !preempts >= cfg.preempt_bound then ()
            else choice := Some !j
          end;
          incr j
        done;
        match !choice with
        | None ->
          pruned := (if !any_awake then Preempt_blocked else Sleep_redundant);
          take 0
        | Some a ->
          frames :=
            {
              f_path = !taken;
              f_tags = tags;
              f_at = at;
              f_sched = sched_point;
              f_chosen = a;
              f_sleep = !sleep;
              f_preempts = !preempts;
            }
            :: !frames;
          incr fresh_open;
          if sched_point && a > 0 then incr preempts;
          if por then sleep := List.filter (fun t -> indep tags.(a) t) !sleep;
          take a
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
  D.run_until d (Time.of_int (horizon_of cfg));
  let report, inversions, bad =
    if !pruned <> No_prune then (None, 0, [])
    else begin
      let report = D.regularity d in
      let invs = if atomic then Atomicity.inversions (D.history d) else [] in
      let lines =
        List.map
          (Format.asprintf "%a" Regularity.pp_violation)
          report.Regularity.violations
        @ List.map (Format.asprintf "%a" Atomicity.pp_inversion) invs
      in
      (Some report, List.length invs, lines)
    end
  in
  {
    frames = List.rev !frames;
    decisions = !taken;
    r_truncated = !truncated;
    pruned = !pruned;
    bad;
    report;
    r_inversions = inversions;
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
      ( (fun ~script ~sleep0 ~preempts0 ~fresh_limit ~por ~cache () ->
          run_one
            (module R.D)
            params ~label ~atomic:p.Protocol.atomic ~cfg ~script ~sleep0 ~preempts0 ~fresh_limit
            ~por ~cache ()),
        label )

(* ------------------------------------------------------------------ *)
(* DFS over one subtree, stateless-re-execution style: each iteration
   re-runs from the root with a longer forced prefix. *)

type node = {
  n_path : dec list;  (** newest first *)
  n_sleep : Scheduler.tag list;
  n_preempts : int;
}

type leaf =
  | Done of {
      d_decisions : dec list;  (** newest first *)
      d_truncated : bool;
      d_bad : string list;
      d_depth : int;
    }
  | Skip of prune

type job_result = {
  jr_stats : stats;
  jr_violation : (dec list * string list * int) option;
      (** decisions, findings, schedules judged when found (job-local) *)
}

type fstate = { fs : frame; mutable tried : int; mutable dones : Scheduler.tag list }

let dfs ~exec ~por ~state_cache ~(cfg : Schedule.config) (root : node) : job_result =
  let cache = if state_cache then Some (create_cache ()) else None in
  let schedules = ref 0
  and truncated = ref 0
  and state_prunes = ref 0
  and sleep_skips = ref 0
  and preempt_skips = ref 0
  and max_depth = ref 0 in
  let violation = ref None in
  let stack : fstate list ref = ref [] in
  (* Branches below the first explored one were skipped at discovery:
     asleep, or awake but over the preemption budget. *)
  let discovery_skips (f : frame) =
    for i = 0 to f.f_chosen - 1 do
      if por && in_sleep f.f_tags.(i) f.f_sleep then incr sleep_skips
      else incr preempt_skips
    done
  in
  let run_path script sleep preempts =
    let rr =
      exec ~script:(path_script script) ~sleep0:sleep ~preempts0:preempts
        ~fresh_limit:max_int ~por ~cache ()
    in
    List.iter discovery_skips rr.frames;
    (match rr.pruned with
    | No_prune ->
      incr schedules;
      if rr.r_truncated then incr truncated;
      max_depth := Stdlib.max !max_depth (List.length rr.decisions);
      if rr.bad <> [] && !violation = None then
        violation := Some (rr.decisions, rr.bad, !schedules)
    | Sleep_redundant -> incr sleep_skips
    | State_hit -> incr state_prunes
    | Preempt_blocked -> incr preempt_skips);
    List.iter (fun f -> stack := { fs = f; tried = f.f_chosen; dones = [] } :: !stack) rr.frames
  in
  run_path root.n_path root.n_sleep root.n_preempts;
  let running = ref true in
  while !running && !violation = None do
    match !stack with
    | [] -> running := false
    | top :: rest -> (
      top.dones <- top.fs.f_tags.(top.tried) :: top.dones;
      let arity = Array.length top.fs.f_tags in
      let next = ref None in
      let i = ref (top.tried + 1) in
      while !next = None && !i < arity do
        let t = top.fs.f_tags.(!i) in
        if por && in_sleep t top.fs.f_sleep then incr sleep_skips
        else if top.fs.f_sched && !i > 0 && top.fs.f_preempts >= cfg.preempt_bound then
          incr preempt_skips
        else next := Some !i;
        incr i
      done;
      match !next with
      | None -> stack := rest
      | Some i ->
        top.tried <- i;
        let child_sleep =
          if por then
            List.filter
              (fun t -> indep top.fs.f_tags.(i) t)
              (top.fs.f_sleep @ top.dones)
          else []
        in
        let child_preempts =
          top.fs.f_preempts + (if top.fs.f_sched && i > 0 then 1 else 0)
        in
        run_path (branch top.fs i :: top.fs.f_path) child_sleep child_preempts)
  done;
  (* Entries are only ever added, so the cache's final population is
     its peak; every miss inserts exactly one entry, so this is also
     the miss count (hit rate = state_prunes / (state_prunes +
     cache_entries)). *)
  let cache_size =
    match cache with
    | None -> 0
    | Some c -> Hashtbl.fold (fun _ entries acc -> acc + List.length !entries) c.entries 0
  in
  {
    jr_stats =
      {
        schedules = !schedules;
        truncated = !truncated;
        state_prunes = !state_prunes;
        sleep_skips = !sleep_skips;
        preempt_skips = !preempt_skips;
        max_depth = !max_depth;
        cache_entries = cache_size;
        cache_peak = cache_size;
      };
    jr_violation = !violation;
  }

(* ------------------------------------------------------------------ *)
(* Top-of-tree partitioning: one probe run discovers the first choice
   point below a prefix; its branches (in index order, with the sleep
   sets sequential DFS would give them) become the next frontier
   level. Probes use no state cache, so the frontier — and therefore
   every explored count — is a pure function of the tree shape. *)

let children ~exec ~por ~(cfg : Schedule.config) (nd : node) : (node, leaf) Either.t list =
  let rr =
    exec ~script:(path_script nd.n_path) ~sleep0:nd.n_sleep ~preempts0:nd.n_preempts
      ~fresh_limit:1 ~por ~cache:None ()
  in
  match rr.pruned with
  | Sleep_redundant | State_hit | Preempt_blocked -> [ Either.Right (Skip rr.pruned) ]
  | No_prune -> (
    match rr.frames with
    | [] ->
      [
        Either.Right
          (Done
             {
               d_decisions = rr.decisions;
               d_truncated = rr.r_truncated;
               d_bad = rr.bad;
               d_depth = List.length rr.decisions;
             });
      ]
    | f :: _ ->
      let out = ref [] in
      let dones = ref [] in
      for i = 0 to Array.length f.f_tags - 1 do
        let t = f.f_tags.(i) in
        if por && in_sleep t f.f_sleep then out := Either.Right (Skip Sleep_redundant) :: !out
        else if f.f_sched && i > 0 && f.f_preempts >= cfg.preempt_bound then
          out := Either.Right (Skip Preempt_blocked) :: !out
        else begin
          let child_sleep =
            if por then List.filter (fun b -> indep t b) (f.f_sleep @ !dones) else []
          in
          let child_preempts = f.f_preempts + (if f.f_sched && i > 0 then 1 else 0) in
          out :=
            Either.Left
              {
                n_path = branch f i :: f.f_path;
                n_sleep = child_sleep;
                n_preempts = child_preempts;
              }
            :: !out;
          dones := t :: !dones
        end
      done;
      List.rev !out)

(* ------------------------------------------------------------------ *)
(* Orchestration and merging. *)

let rec drop_while p = function x :: tl when p x -> drop_while p tl | l -> l

(* Oldest first, without the trailing run of branch-0 decisions. *)
let trim_defaults newest_first = List.rev (drop_while (fun d -> d.chosen = 0) newest_first)

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

let merge ~label (cfg : Schedule.config) (items : (job_result, leaf) Either.t list) : outcome =
  let st = ref zero in
  let violation = ref None in
  List.iter
    (fun item ->
      match item with
      | Either.Right (Done dn) ->
        (if dn.d_bad <> [] && !violation = None then
           violation := Some (dn.d_decisions, dn.d_bad, !st.schedules + 1));
        st :=
          {
            !st with
            schedules = !st.schedules + 1;
            truncated = (!st.truncated + if dn.d_truncated then 1 else 0);
            max_depth = Stdlib.max !st.max_depth dn.d_depth;
          }
      | Either.Right (Skip Sleep_redundant) -> st := { !st with sleep_skips = !st.sleep_skips + 1 }
      | Either.Right (Skip State_hit) -> st := { !st with state_prunes = !st.state_prunes + 1 }
      | Either.Right (Skip Preempt_blocked) ->
        st := { !st with preempt_skips = !st.preempt_skips + 1 }
      | Either.Right (Skip No_prune) -> ()
      | Either.Left jr ->
        (match jr.jr_violation with
        | Some (decs, lines, at) when !violation = None ->
          violation := Some (decs, lines, !st.schedules + at)
        | Some _ | None -> ());
        let s = jr.jr_stats in
        st :=
          {
            schedules = !st.schedules + s.schedules;
            truncated = !st.truncated + s.truncated;
            state_prunes = !st.state_prunes + s.state_prunes;
            sleep_skips = !st.sleep_skips + s.sleep_skips;
            preempt_skips = !st.preempt_skips + s.preempt_skips;
            max_depth = Stdlib.max !st.max_depth s.max_depth;
            cache_entries = !st.cache_entries + s.cache_entries;
            cache_peak = Stdlib.max !st.cache_peak s.cache_peak;
          })
    items;
  {
    stats = !st;
    violation =
      Option.map
        (fun (decs, lines, at) ->
          {
            schedule =
              { Schedule.config = cfg; decisions = to_schedule label (trim_defaults decs) };
            lines;
            at_schedule = at;
          })
        !violation;
  }

let run ?pool ?(por = true) ?(state_cache = true) ?(frontier = 64) (p : Protocol.t)
    (cfg : Schedule.config) : (outcome, string) result =
  let ( let* ) = Result.bind in
  let* () = validate cfg in
  let* () =
    if String.equal cfg.proto p.Protocol.name then Ok ()
    else
      Error
        (Printf.sprintf "check: config is for protocol %S, asked to check %S" cfg.proto
           p.Protocol.name)
  in
  let* exec, label = make_exec p cfg in
  let root = { n_path = []; n_sleep = []; n_preempts = 0 } in
  let go pool =
    let frontier_nodes =
      Pool.expand_frontier pool
        ~key:(fun nd -> Printf.sprintf "check:probe:d%d" (List.length nd.n_path))
        ~children:(children ~exec ~por ~cfg) ~max_levels:2 ~target:frontier [ root ]
    in
    let lefts =
      List.filter_map
        (function Either.Left nd -> Some nd | Either.Right _ -> None)
        frontier_nodes
    in
    let jresults =
      Pool.map pool
        ~key:(fun (i, _) -> Printf.sprintf "check:dfs:%d" i)
        ~f:(fun (_, nd) -> dfs ~exec ~por ~state_cache ~cfg nd)
        (List.mapi (fun i nd -> (i, nd)) lefts)
    in
    (* Splice job results back into frontier order. *)
    let rec splice fr js acc =
      match (fr, js) with
      | [], [] -> List.rev acc
      | Either.Right leafv :: fr, js -> splice fr js (Either.Right leafv :: acc)
      | Either.Left _ :: fr, jr :: js -> splice fr js (Either.Left jr :: acc)
      | Either.Left _ :: _, [] | [], _ :: _ -> assert false
    in
    merge ~label cfg (splice frontier_nodes jresults [])
  in
  match pool with
  | Some pool -> Ok (go pool)
  | None -> Ok (Pool.with_pool ~jobs:1 go)

let replay_schedule (s : Schedule.t) : (replay, string) result =
  let ( let* ) = Result.bind in
  let cfg = s.Schedule.config in
  let* () = validate cfg in
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
    exec ~script:(Recorded (Array.of_list s.Schedule.decisions)) ~sleep0:[] ~preempts0:0
      ~fresh_limit:0
      ~por:false ~cache:None ()
  with
  | exception Failure msg -> Error msg
  | rr ->
    let report =
      match rr.report with Some r -> r | None -> assert false (* fresh_limit 0 never prunes *)
    in
    Ok
      {
        decisions_used = List.length s.Schedule.decisions;
        regularity = report;
        inversions = rr.r_inversions;
        violations = rr.bad;
      }

