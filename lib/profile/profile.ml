type kind = Job | Idle | Merge | Phase

let kind_to_string = function
  | Job -> "job"
  | Idle -> "idle"
  | Merge -> "merge"
  | Phase -> "phase"

let kind_tag = function Job -> 0 | Idle -> 1 | Merge -> 2 | Phase -> 3
let kind_of_tag = function 0 -> Job | 1 -> Idle | 2 -> Merge | _ -> Phase

(* One buffer per worker, written only by its owner: parallel arrays
   grown by doubling up to [max_spans], so a record is bounds check +
   stores, no per-span allocation beyond the label it was handed. *)
type buf = {
  mutable len : int;
  mutable kinds : int array;
  mutable labels : string array;
  mutable t0s : float array;
  mutable t1s : float array;
  mutable minors : float array;
  mutable promoteds : float array;
  mutable majors : float array;
  mutable minor_cols : int array;
  mutable major_cols : int array;
  mutable dropped : int;
  (* Open Probe phases on this worker, innermost first: name, start
     time, minor words at entry. *)
  mutable stack : (string * float * float) list;
}

let new_buf cap =
  {
    len = 0;
    kinds = Array.make cap 0;
    labels = Array.make cap "";
    t0s = Array.make cap 0.0;
    t1s = Array.make cap 0.0;
    minors = Array.make cap 0.0;
    promoteds = Array.make cap 0.0;
    majors = Array.make cap 0.0;
    minor_cols = Array.make cap 0;
    major_cols = Array.make cap 0;
    dropped = 0;
    stack = [];
  }

type t = {
  origin : float;
  nworkers : int;
  max_spans : int;
  bufs : buf array;
  mutable gc_params : (string * int) list;
      (* active GC settings noted by the engine (e.g. minor_heap_words);
         surfaced in the summary and as Chrome metadata *)
}

let workers t = t.nworkers
let set_gc_params t params = t.gc_params <- params
let gc_params t = t.gc_params
let now () = Unix.gettimeofday ()

let grow b =
  let cap = Array.length b.kinds in
  let ncap = cap * 2 in
  let extend mk a =
    let n = mk ncap in
    Array.blit a 0 n 0 cap;
    n
  in
  b.kinds <- extend (fun n -> Array.make n 0) b.kinds;
  b.labels <- extend (fun n -> Array.make n "") b.labels;
  b.t0s <- extend (fun n -> Array.make n 0.0) b.t0s;
  b.t1s <- extend (fun n -> Array.make n 0.0) b.t1s;
  b.minors <- extend (fun n -> Array.make n 0.0) b.minors;
  b.promoteds <- extend (fun n -> Array.make n 0.0) b.promoteds;
  b.majors <- extend (fun n -> Array.make n 0.0) b.majors;
  b.minor_cols <- extend (fun n -> Array.make n 0) b.minor_cols;
  b.major_cols <- extend (fun n -> Array.make n 0) b.major_cols

let push t b ~kind ~label ~t0 ~t1 ~minor ~promoted ~major ~mc ~jc =
  if b.len >= t.max_spans then b.dropped <- b.dropped + 1
  else begin
    if b.len >= Array.length b.kinds then grow b;
    let i = b.len in
    b.kinds.(i) <- kind_tag kind;
    b.labels.(i) <- label;
    b.t0s.(i) <- t0 -. t.origin;
    b.t1s.(i) <- t1 -. t.origin;
    b.minors.(i) <- minor;
    b.promoteds.(i) <- promoted;
    b.majors.(i) <- major;
    b.minor_cols.(i) <- mc;
    b.major_cols.(i) <- jc;
    b.len <- i + 1
  end

let record t ~worker ~kind ~label ~t0 ~t1 =
  push t t.bufs.(worker) ~kind ~label ~t0 ~t1 ~minor:0.0 ~promoted:0.0 ~major:0.0 ~mc:0
    ~jc:0

let record_job t ~worker ~label ~t0 ~t1 ~minor ~promoted ~major ~minor_cols ~major_cols =
  push t t.bufs.(worker) ~kind:Job ~label ~t0 ~t1 ~minor ~promoted ~major ~mc:minor_cols
    ~jc:major_cols

(* ------------------------------------------------------------------ *)
(* The per-domain recorder binding and the Probe handler. The handler
   is process-wide and inert on domains with no binding; it is
   installed once, the first time any recorder is created. *)

let current : (t * int) option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let get_current () = Domain.DLS.get current
let set_current t ~worker = Domain.DLS.set current (Some (t, worker))
let restore prev = Domain.DLS.set current prev

let probe_enter name =
  match Domain.DLS.get current with
  | None -> ()
  | Some (t, w) ->
    let b = t.bufs.(w) in
    b.stack <- (name, now (), Gc.minor_words ()) :: b.stack

let probe_exit name =
  match Domain.DLS.get current with
  | None -> ()
  | Some (t, w) -> (
    let b = t.bufs.(w) in
    match b.stack with
    | (n, t0, m0) :: rest when String.equal n name ->
      b.stack <- rest;
      push t b ~kind:Phase ~label:name ~t0 ~t1:(now ())
        ~minor:(Gc.minor_words () -. m0)
        ~promoted:0.0 ~major:0.0 ~mc:0 ~jc:0
    | _ ->
      (* Mismatched exit (an exception unwound past a probe whose
         enter this domain never saw, e.g. after a rebind): drop it
         rather than corrupt the stack. *)
      ())

let handler_installed = Atomic.make false

let install_handler () =
  if not (Atomic.exchange handler_installed true) then
    Dds_sim.Probe.set_handler (Some { Dds_sim.Probe.enter = probe_enter; exit = probe_exit })

let create ?(max_spans = 65536) ~workers () =
  if workers < 1 then invalid_arg "Profile.create: workers must be >= 1";
  install_handler ();
  {
    origin = now ();
    nworkers = workers;
    max_spans;
    bufs = Array.init workers (fun _ -> new_buf 1024);
    gc_params = [];
  }

(* ------------------------------------------------------------------ *)
(* Read-back *)

type span = {
  sp_worker : int;
  sp_kind : kind;
  sp_label : string;
  sp_t0 : float;
  sp_t1 : float;
  sp_minor : float;
  sp_promoted : float;
  sp_major : float;
  sp_minor_cols : int;
  sp_major_cols : int;
}

let spans t =
  let acc = ref [] in
  for w = t.nworkers - 1 downto 0 do
    let b = t.bufs.(w) in
    for i = b.len - 1 downto 0 do
      acc :=
        {
          sp_worker = w;
          sp_kind = kind_of_tag b.kinds.(i);
          sp_label = b.labels.(i);
          sp_t0 = b.t0s.(i);
          sp_t1 = b.t1s.(i);
          sp_minor = b.minors.(i);
          sp_promoted = b.promoteds.(i);
          sp_major = b.majors.(i);
          sp_minor_cols = b.minor_cols.(i);
          sp_major_cols = b.major_cols.(i);
        }
        :: !acc
    done
  done;
  !acc

type worker_summary = {
  w_id : int;
  w_jobs : int;
  w_busy_s : float;
  w_idle_s : float;
  w_busy_fraction : float;
}

type summary = {
  s_workers : worker_summary list;
  s_wall_s : float;
  s_jobs : int;
  s_busy_fraction : float;
  s_minor_words : float;
  s_promoted_words : float;
  s_major_words : float;
  s_minor_cols : int;
  s_major_cols : int;
  s_minor_words_per_job : float;
  s_phases : (string * int * float) list;
  s_top_jobs : (string * float * float) list;
  s_dropped : int;
  s_dominant : string;
  s_gc_params : (string * int) list;
}

let summary ?(top = 5) t =
  let wall_lo = ref infinity and wall_hi = ref neg_infinity in
  let phase_tbl : (string, (int * float) ref) Hashtbl.t = Hashtbl.create 16 in
  let phase_order = ref [] in
  let jobs_all = ref [] in
  let minor = ref 0.0 and promoted = ref 0.0 and major = ref 0.0 in
  let mcols = ref 0 and jcols = ref 0 in
  let dropped = ref 0 in
  let per_worker =
    Array.to_list
      (Array.init t.nworkers (fun w ->
           let b = t.bufs.(w) in
           dropped := !dropped + b.dropped;
           let busy = ref 0.0 and idle = ref 0.0 and njobs = ref 0 in
           for i = 0 to b.len - 1 do
             let dur = b.t1s.(i) -. b.t0s.(i) in
             if b.t0s.(i) < !wall_lo then wall_lo := b.t0s.(i);
             if b.t1s.(i) > !wall_hi then wall_hi := b.t1s.(i);
             (match kind_of_tag b.kinds.(i) with
             | Job ->
               busy := !busy +. dur;
               incr njobs;
               minor := !minor +. b.minors.(i);
               promoted := !promoted +. b.promoteds.(i);
               major := !major +. b.majors.(i);
               mcols := !mcols + b.minor_cols.(i);
               jcols := !jcols + b.major_cols.(i);
               jobs_all := (b.labels.(i), dur, b.minors.(i)) :: !jobs_all
             | Idle -> idle := !idle +. dur
             | Phase ->
               (match Hashtbl.find_opt phase_tbl b.labels.(i) with
               | Some cell ->
                 let n, s = !cell in
                 cell := (n + 1, s +. dur)
               | None ->
                 Hashtbl.add phase_tbl b.labels.(i) (ref (1, dur));
                 phase_order := b.labels.(i) :: !phase_order)
             | Merge -> ())
           done;
           (w, !njobs, !busy, !idle)))
  in
  let wall = if !wall_hi > !wall_lo then !wall_hi -. !wall_lo else 0.0 in
  let frac x = if wall > 0.0 then x /. wall else 0.0 in
  let wsums =
    List.map
      (fun (w, j, busy, idle) ->
        {
          w_id = w;
          w_jobs = j;
          w_busy_s = busy;
          w_idle_s = idle;
          w_busy_fraction = frac busy;
        })
      per_worker
  in
  let total f = List.fold_left (fun a w -> a +. f w) 0.0 wsums in
  let totali f = List.fold_left (fun a w -> a + f w) 0 wsums in
  let busy_total = total (fun w -> w.w_busy_s) in
  let idle_total = total (fun w -> w.w_idle_s) in
  let jobs_total = totali (fun w -> w.w_jobs) in
  let phases =
    List.rev_map
      (fun name ->
        let n, s = !(Hashtbl.find phase_tbl name) in
        (name, n, s))
      !phase_order
    |> List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a)
  in
  let top_jobs =
    let sorted =
      List.stable_sort (fun (_, a, _) (_, b, _) -> Float.compare b a) (List.rev !jobs_all)
    in
    List.filteri (fun i _ -> i < top) sorted
  in
  (* Dominant cost: the largest share of total worker-seconds among
     idle time, each probe phase, and job time not inside any phase.
     Phase spans nest inside job spans, so job-minus-phases is the
     engine/simulator remainder. *)
  let denom = wall *. float_of_int t.nworkers in
  let phase_sum = List.fold_left (fun a (_, _, s) -> a +. s) 0.0 phases in
  let candidates =
    ("idle", idle_total)
    :: ("job (outside phases)", Stdlib.max 0.0 (busy_total -. phase_sum))
    :: List.map (fun (name, _, s) -> ("phase " ^ name, s)) phases
  in
  let dom_name, dom_s =
    List.fold_left
      (fun (bn, bs) (n, s) -> if s > bs then (n, s) else (bn, bs))
      ("idle", idle_total) candidates
  in
  let dominant =
    if denom <= 0.0 then "no spans recorded"
    else
      Printf.sprintf "%s: %.0f%% of worker-seconds (%.3fs of %.3fs across %d worker(s))"
        dom_name
        (100.0 *. dom_s /. denom)
        dom_s denom t.nworkers
  in
  {
    s_workers = wsums;
    s_wall_s = wall;
    s_jobs = jobs_total;
    s_busy_fraction = (if denom > 0.0 then busy_total /. denom else 0.0);
    s_minor_words = !minor;
    s_promoted_words = !promoted;
    s_major_words = !major;
    s_minor_cols = !mcols;
    s_major_cols = !jcols;
    s_minor_words_per_job =
      (if jobs_total > 0 then !minor /. float_of_int jobs_total else 0.0);
    s_phases = phases;
    s_top_jobs = top_jobs;
    s_dropped = !dropped;
    s_dominant = dominant;
    s_gc_params = t.gc_params;
  }

let pp_summary ppf s =
  Format.fprintf ppf "profile    : %d job(s), wall %.3fs, busy fraction %.2f@." s.s_jobs
    s.s_wall_s s.s_busy_fraction;
  Format.fprintf ppf
    "  alloc    : %.3g minor words (%.3g/job), %.3g promoted, %d minor / %d major GCs@."
    s.s_minor_words s.s_minor_words_per_job s.s_promoted_words s.s_minor_cols s.s_major_cols;
  if s.s_gc_params <> [] then
    Format.fprintf ppf "  gc       : %s@."
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.s_gc_params));
  List.iter
    (fun (name, n, secs) ->
      Format.fprintf ppf "  phase    : %-10s %6d span(s) %8.3fs@." name n secs)
    s.s_phases;
  List.iter
    (fun w ->
      Format.fprintf ppf
        "  domain %d : %5d job(s) busy %6.3fs (%.2f) idle %6.3fs@." w.w_id w.w_jobs
        w.w_busy_s w.w_busy_fraction w.w_idle_s)
    s.s_workers;
  List.iter
    (fun (key, secs, minor) ->
      Format.fprintf ppf "  slowest  : %-40s %8.3fs %.3g minor words@." key secs minor)
    s.s_top_jobs;
  if s.s_dropped > 0 then
    Format.fprintf ppf "  dropped  : %d span(s) over the per-domain buffer cap@." s.s_dropped;
  Format.fprintf ppf "  dominant : %s@." s.s_dominant

(* ------------------------------------------------------------------ *)
(* Exports *)

let us x = int_of_float (x *. 1e6)

let to_chrome t =
  let module J = Dds_sim.Json in
  let meta =
    J.Obj
      [
        ("ph", J.String "M"); ("pid", Int 0); ("tid", Int 0); ("name", String "process_name");
        ("args", Obj [ ("name", String "dds engine") ]);
      ]
    :: List.init t.nworkers (fun w ->
           J.Obj
             [
               ("ph", J.String "M"); ("pid", Int 0); ("tid", Int w);
               ("name", String "thread_name");
               ("args", Obj [ ("name", String (Printf.sprintf "domain %d" w)) ]);
             ])
  in
  let meta =
    if t.gc_params = [] then meta
    else
      meta
      @ [
          J.Obj
            [
              ("ph", J.String "M"); ("pid", Int 0); ("tid", Int 0);
              ("name", String "gc_params");
              ("args", Obj (List.map (fun (k, v) -> (k, J.Int v)) t.gc_params));
            ];
        ]
  in
  let span_events =
    List.map
      (fun s ->
        let gc_args =
          match s.sp_kind with
          | Job ->
            [
              ("minor_words", J.Float s.sp_minor);
              ("promoted_words", J.Float s.sp_promoted);
              ("major_words", J.Float s.sp_major);
              ("minor_collections", J.Int s.sp_minor_cols);
              ("major_collections", J.Int s.sp_major_cols);
            ]
          | Phase -> [ ("minor_words", J.Float s.sp_minor) ]
          | Idle | Merge -> []
        in
        J.Obj
          [
            ("ph", J.String "X");
            ("pid", Int 0);
            ("tid", Int s.sp_worker);
            ("ts", Int (us s.sp_t0));
            ("dur", Int (Stdlib.max 0 (us s.sp_t1 - us s.sp_t0)));
            ("name", String (if s.sp_label = "" then kind_to_string s.sp_kind else s.sp_label));
            ("cat", String (kind_to_string s.sp_kind));
            ("args", Obj gc_args);
          ])
      (spans t)
  in
  J.Obj [ ("traceEvents", J.List (meta @ span_events)); ("displayTimeUnit", String "ms") ]

let summary_json s =
  let module J = Dds_sim.Json in
  J.Obj
    [
      ("wall_s", J.Float s.s_wall_s);
      ("jobs", J.Int s.s_jobs);
      ("busy_fraction", J.Float s.s_busy_fraction);
      ("minor_words", J.Float s.s_minor_words);
      ("promoted_words", J.Float s.s_promoted_words);
      ("major_words", J.Float s.s_major_words);
      ("minor_collections", J.Int s.s_minor_cols);
      ("major_collections", J.Int s.s_major_cols);
      ("minor_words_per_job", J.Float s.s_minor_words_per_job);
      ("dropped_spans", J.Int s.s_dropped);
      ("dominant", J.String s.s_dominant);
      ("gc_params", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) s.s_gc_params));
      ( "workers",
        J.List
          (List.map
             (fun w ->
               J.Obj
                 [
                   ("id", J.Int w.w_id);
                   ("jobs", J.Int w.w_jobs);
                   ("busy_s", J.Float w.w_busy_s);
                   ("idle_s", J.Float w.w_idle_s);
                   ("busy_fraction", J.Float w.w_busy_fraction);
                 ])
             s.s_workers) );
      ( "phases",
        J.Obj
          (List.map
             (fun (name, n, secs) ->
               (name, J.Obj [ ("count", J.Int n); ("total_s", J.Float secs) ]))
             s.s_phases) );
      ( "top_jobs",
        J.List
          (List.map
             (fun (key, secs, minor) ->
               J.Obj
                 [
                   ("key", J.String key); ("wall_s", J.Float secs);
                   ("minor_words", J.Float minor);
                 ])
             s.s_top_jobs) );
    ]

let to_json ?top t =
  match to_chrome t with
  | Dds_sim.Json.Obj fields ->
    Dds_sim.Json.Obj (fields @ [ ("summary", summary_json (summary ?top t)) ])
  | j -> j
