(* R10/R11 corpus for Exec.map_slices: the callback is handed its own
   substream and slice, and these callbacks reach past them. *)

let bad_parent_draw rng =
  Exec.map_slices rng ~range:8 ~f:(fun _rng_k ~lo:_ ~len:_ ->
      Numerics.Rng.float rng)

let bad_accumulate rng =
  let total = ref 0 in
  ignore
    (Exec.map_slices rng ~range:8 ~f:(fun _rng_k ~lo:_ ~len ->
         total := !total + len));
  !total
