(* R11 negative: the sanctioned merge patterns. *)

(* Shard results come back in shard order; folding them at join runs
   sequentially on the caller, and the callback itself stays pure. *)
let good_index_order xs =
  Exec.map_shards ~shards:4 ~f:(fun k -> xs.(k)) ()
  |> Array.fold_left (fun acc v -> acc +. v) 0.0

(* Disjoint indexed writes into a preallocated output buffer: each shard
   owns slot k, so completion order cannot change the result. *)
let good_slices n =
  let out = Array.make n 0.0 in
  Exec.map_shards ~shards:4 ~f:(fun k -> out.(k) <- float_of_int k) ();
  out
