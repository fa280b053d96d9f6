open Dds_sim

(* SplitMix64 finalizer (same constants as Rng.mix): the route must be
   a pure function of the key alone — reseeding a run moves the
   traffic, never the placement — so it cannot draw from any rng. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Low 62 bits: always a non-negative OCaml int (63-bit native ints —
   a logical shift by 1 can still land on the sign bit). *)
let to_nonneg_int h = Int64.to_int (Int64.logand h 0x3FFF_FFFF_FFFF_FFFFL)

let route ~shards ~key =
  if shards <= 0 then invalid_arg "Shard.route: shards must be positive";
  to_nonneg_int (mix64 (Int64.of_int key)) mod shards

let seed_for ~seed ~shard =
  (* Mix the shard index through the same finalizer, offset so shard 0
     of seed s never collides with shard 1 of seed s-1. *)
  to_nonneg_int
    (mix64
       (Int64.add (Int64.of_int seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (shard + 1)))))

let span_base shard = shard * 1_000_000

type op_kind = Read | Write of int
type op = { at : Time.t; key : int; kind : op_kind }
