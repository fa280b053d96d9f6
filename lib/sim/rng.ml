type t = { mutable state : int64 }

(* SplitMix64 constants, from the reference implementation. *)
let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = Int64.of_int seed }

let bits64 g =
  g.state <- Int64.add g.state gamma;
  mix g.state

let split g =
  let seed = bits64 g in
  { state = mix seed }

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: draw a 63-bit value and retry when it falls in
     the final partial block of size [max_int mod bound], so every
     residue class is equally likely. *)
  let bound64 = Int64.of_int bound in
  let limit = Int64.(sub max_int (rem max_int bound64)) in
  let rec loop () =
    let raw = Int64.shift_right_logical (bits64 g) 1 in
    if Int64.compare raw limit >= 0 then loop ()
    else Int64.to_int (Int64.rem raw bound64)
  in
  loop ()

let int_in_range g ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: hi < lo";
  lo + int g (hi - lo + 1)

let float g bound =
  let raw = Int64.shift_right_logical (bits64 g) 11 in
  Int64.to_float raw *. (1.0 /. 9007199254740992.0) *. bound

let stochastic_round g x =
  let base = int_of_float x in
  base + if float g 1.0 < x -. float_of_int base then 1 else 0

let bool g = Int64.(logand (bits64 g) 1L) = 1L

let pick g arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int g (Array.length arr))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle_in_place g arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
