(* Order statistics over raw samples. The benchmark keeps every latency
   sample instead of a bucketed histogram, so these are exact. *)

(* A growable float buffer of latency samples. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 1024 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let bigger = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 bigger 0 s.len;
    s.data <- bigger
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* As Python's statistics.median: the mean of the middle pair when the
   count is even. *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* The three cut points of Python's statistics.quantiles(data, n=4)
   with its default "exclusive" method, so a spread computed here is the
   spread an outside reader computes from the same values. *)
let quartiles a =
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then Array.make 3 a.(0)
  else begin
    let s = sorted a in
    let m = ld + 1 in
    Array.init 3 (fun k ->
        let i = k + 1 in
        let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.)
  end

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = sorted a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

(* Samples strictly beyond the [p]th percentile: the guide for whether a
   percentile is supported (at least ten). *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))
