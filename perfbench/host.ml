(* What the kernel reports about the run's processes and the host.

   CPU time is the headline cost because the kernel accounts it without
   hypervisor steal: on a small shared VM, wall time of identical runs
   swings with steal bursts while CPU time holds. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words line = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim line))

(* CPU seconds of a single-threaded process: the first field of
   /proc/<pid>/schedstat, the scheduler's own run-time sum in ns (the
   same accounting /proc/<pid>/stat reports in 10 ms ticks). *)
let cpu_s_of_pid pid =
  match words (read_file (Printf.sprintf "/proc/%d/schedstat" pid)) with
  | ns :: _ -> float_of_string ns /. 1e9
  | [] -> failwith "empty schedstat"

(* This process, all its threads included. *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) in MB; read a child before reaping it. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' (read_file path))
  in
  match words line with
  | _ :: kb :: _ -> float_of_string kb /. 1024.
  | _ -> failwith "VmHWM unparsable"

(* Aggregate jiffies from the "cpu" line of /proc/stat. *)
type cpu_stat = { total : float; steal : float }

let cpu_stat () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match words line with
  | "cpu" :: fields ->
    (* user nice system idle iowait irq softirq steal [guest guest_nice];
       guest time is already inside user, so it is not added again. *)
    let f = Array.of_list (List.map float_of_string fields) in
    let total = ref 0. in
    for i = 0 to Stdlib.min 7 (Array.length f - 1) do
      total := !total +. f.(i)
    done;
    { total = !total; steal = (if Array.length f > 7 then f.(7) else 0.) }
  | _ -> failwith "/proc/stat unparsable"

let steal_frac a b =
  let dt = b.total -. a.total in
  if dt <= 0. then 0. else (b.steal -. a.steal) /. dt

let loadavg () = float_of_string (List.hd (words (read_file "/proc/loadavg")))

(* TCP segments sent, from the Tcp header/value line pair of
   /proc/net/snmp. *)
let tcp_out_segs () =
  let tcp =
    List.filter
      (fun l -> String.starts_with ~prefix:"Tcp:" l)
      (String.split_on_char '\n' (read_file "/proc/net/snmp"))
  in
  match tcp with
  | header :: values :: _ ->
    let rec find = function
      | "OutSegs" :: _, v :: _ -> float_of_string v
      | _ :: hs, _ :: vs -> find (hs, vs)
      | _ -> failwith "OutSegs missing"
    in
    find (words header, words values)
  | _ -> failwith "/proc/net/snmp unparsable"

(* Bytes the loopback interface carried (transmit side, so each byte
   counts once). *)
let lo_bytes () =
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"lo:" (String.trim l))
      (String.split_on_char '\n' (read_file "/proc/net/dev"))
  in
  let after = String.sub line (String.index line ':' + 1) (String.length line - String.index line ':' - 1) in
  match words after with
  | _rx :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: tx :: _ -> float_of_string tx
  | _ -> failwith "/proc/net/dev unparsable"

(* Host noise over one window, so a slow run explains itself. *)
type noise = { steal_frac : float; cpu_wall_ratio : float; load : float }

let pp_noise ppf n =
  Format.fprintf ppf "steal_frac %.4f  cpu/wall %.3f  loadavg %.2f" n.steal_frac
    n.cpu_wall_ratio n.load

(* --- calibration ---------------------------------------------------

   The host's speed is not steady: on the small shared VMs this
   benchmark was tuned on, identical work takes up to 2x longer for
   seconds at a time, in CPU time as well as wall time (neighbours
   slow a shared core without the kernel counting it as steal). So
   while a window is measured, a profiling timer interrupts the process
   every 10 ms of its CPU time to run a fixed piece of reference work,
   and the window's costs are scaled by how long that reference took
   against its nominal cost. The ratio of the measured work to the
   reference holds steady when the host does not; the reference's own
   time is subtracted from the window first. *)

let reference_work () =
  let h = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 0 to 2_000 do
    Hashtbl.replace h (i land 63) [ i; i + 1; i + 2 ];
    match Hashtbl.find_opt h ((i * 7) land 63) with
    | Some l -> acc := !acc + List.length l
    | None -> incr acc
  done;
  !acc

(* What one piece of reference work typically costs, interleaved with
   these workloads, on the machine the benchmark was tuned on. It only
   fixes the unit in which scaled times are reported. *)
let nominal_reference_s = 200e-6

type calibration = { ref_cpu_s : float; ref_wall_s : float; samples : int }

let origin = { ref_cpu_s = 0.; ref_wall_s = 0.; samples = 0 }
let totals = ref origin

let on_tick (_ : int) =
  let w0 = Unix.gettimeofday () and c0 = self_cpu_s () in
  ignore (Sys.opaque_identity (reference_work ()));
  let t = !totals in
  totals :=
    {
      ref_cpu_s = t.ref_cpu_s +. (self_cpu_s () -. c0);
      ref_wall_s = t.ref_wall_s +. (Unix.gettimeofday () -. w0);
      samples = t.samples + 1;
    }

let tick_s = 0.01

let calibrate on =
  if on then Sys.set_signal Sys.sigprof (Sys.Signal_handle on_tick);
  let every = if on then tick_s else 0. in
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = every; it_value = every });
  if not on then Sys.set_signal Sys.sigprof Sys.Signal_default

let calibration () = !totals

(* Between two readings: how many times slower than nominal the host
   ran this process, by CPU time and by wall time (wall includes steal
   and preemption). *)
type slowdown = { cpu : float; wall : float; ref_cpu : float; ref_wall : float; n : int }

let of_totals ~ref_cpu ~ref_wall ~n =
  let per = float_of_int n *. nominal_reference_s in
  { cpu = ref_cpu /. per; wall = ref_wall /. per; ref_cpu; ref_wall; n }

(* No sample yet: the unit of [merge]. *)
let none = of_totals ~ref_cpu:0. ~ref_wall:0. ~n:0

let slowdown a b =
  of_totals ~ref_cpu:(b.ref_cpu_s -. a.ref_cpu_s) ~ref_wall:(b.ref_wall_s -. a.ref_wall_s)
    ~n:(b.samples - a.samples)

(* Over two adjacent intervals. *)
let merge a b = of_totals ~ref_cpu:(a.ref_cpu +. b.ref_cpu) ~ref_wall:(a.ref_wall +. b.ref_wall) ~n:(a.n + b.n)

(* Measured CPU and wall seconds of the work itself, at nominal speed. *)
let scaled_cpu s cpu =
  if s.n < 1 then invalid_arg "Host.scaled_cpu: no reference sample";
  (cpu -. s.ref_cpu) /. s.cpu

let scaled_wall s wall =
  if s.n < 1 then invalid_arg "Host.scaled_wall: no reference sample";
  (wall -. s.ref_wall) /. s.wall
