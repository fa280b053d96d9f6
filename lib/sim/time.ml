type t = int

let zero = 0

let of_int x =
  if x < 0 then invalid_arg "Time.of_int: negative time";
  x

let to_int t = t

let add t d =
  let r = t + d in
  if r < 0 then invalid_arg "Time.add: resulting time is negative";
  r

let diff later earlier = later - earlier
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : t) (b : t) = a <= b
let ( < ) (a : t) (b : t) = a < b
let ( >= ) (a : t) (b : t) = a >= b
let ( > ) (a : t) (b : t) = a > b
let min (a : t) (b : t) = Stdlib.min a b
let max (a : t) (b : t) = Stdlib.max a b

let count_before (sorted : t array) t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length sorted)
let pp ppf t = Format.fprintf ppf "t=%d" t
