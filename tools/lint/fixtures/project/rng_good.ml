(* R10 negative: every shard draws from its own split substream. *)

let good_substream rng =
  Exec.map_slices ~shards:4 rng ~range:4 ~f:(fun rng_k ~lo:_ ~len:_ ->
      Numerics.Rng.float rng_k)

let good_rebound rng =
  let rngs = Array.init 4 (fun k -> Numerics.Rng.split rng ~index:k) in
  Exec.map_shards ~shards:4
    ~f:(fun k ->
      let rng_k = rngs.(k) in
      Numerics.Rng.uniform rng_k ~lo:0.0 ~hi:1.0)
    ()
