(* R10/R11 negative for Exec.map_slices: draw from the substream the
   callback is given, return one value per slice and fold at join. *)

let good_slice_sums rng =
  Exec.map_slices rng ~range:8 ~f:(fun rng_k ~lo:_ ~len ->
      let acc = ref 0.0 in
      for _ = 1 to len do
        acc := !acc +. Numerics.Rng.float rng_k
      done;
      !acc)
  |> Array.fold_left ( +. ) 0.0
