(* Deterministic sharded execution.

   The repo's parallelism contract: every parallel computation is split
   into a *fixed* number of shards, each seeded from the parent RNG with
   [Rng.split ~index:shard], and shard results are merged in shard
   order. Output is therefore a pure function of (seed, shards) — the
   domain count only decides how many shards run concurrently, never
   what they compute. domains=1 and domains=N are byte-identical. *)

module Pool = Pool

(* Process-default shard count. A fixed constant (not hardware-derived!)
   so that default outputs are reproducible across machines; the CLI
   [--shards] flag and [set_default_shards] override it, which changes
   outputs deterministically. *)
let default_shards_value = 16
let default_shards_ref = ref default_shards_value
let default_shards () = !default_shards_ref

let set_default_shards n =
  if n < 1 then invalid_arg "Exec.set_default_shards: shards must be >= 1";
  default_shards_ref := n

let map_shards ?pool ~shards ~f () =
  if shards < 1 then invalid_arg "Exec.map_shards: shards must be >= 1";
  let pool = match pool with Some p -> p | None -> Pool.default () in
  Pool.run pool ~n:shards (fun k -> Obs.Trace.with_shard k (fun () -> f k))

let map_slices ?pool ?shards rng ~range ~f =
  let shards = match shards with Some s -> s | None -> default_shards () in
  if shards < 1 then invalid_arg "Exec.map_slices: shards must be >= 1";
  if range < 0 then invalid_arg "Exec.map_slices: negative range";
  (* Substreams are split up front, on the calling domain, so the parent
     advances by exactly [shards] draws whatever the pool does. The first
     [range mod shards] slices take the extra element. *)
  let rngs = Array.init shards (fun k -> Numerics.Rng.split rng ~index:k) in
  let base = range / shards and extra = range mod shards in
  map_shards ?pool ~shards
    ~f:(fun k ->
      f rngs.(k) ~lo:((k * base) + min k extra)
        ~len:(base + if k < extra then 1 else 0))
    ()
