type t = int
type gen = { mutable next : int }

let generator () = { next = 0 }

let fresh g =
  let id = g.next in
  g.next <- g.next + 1;
  id

let issued g = g.next
let to_int t = t

let of_int x =
  if x < 0 then invalid_arg "Pid.of_int: negative identifier";
  x

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash
let pp ppf t = Format.fprintf ppf "p%d" t
let to_string t = "p" ^ string_of_int t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
module Table = Hashtbl.Make (Hashed)
