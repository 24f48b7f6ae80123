open Numerics

(* The historical allocating doubling pass: a fresh 2m-point buffer pair
   and two Array.sub per fault, the same fused merge arithmetic as
   Core.Pfd_dist's ping-pong pass, finishing through the of_mass list
   pipeline. *)
let exact_of_vectors ~probs ~values () =
  let n = Array.length probs in
  if n <> Array.length values then
    invalid_arg "Reference.exact_of_vectors: length mismatch";
  if n > Core.Pfd_dist.max_exact_faults then
    invalid_arg
      (Printf.sprintf
         "Reference.exact_of_vectors: %d faults exceeds the exact-enumeration \
          limit of %d"
         n Core.Pfd_dist.max_exact_faults);
  let xs = ref [| 0.0 |] and ws = ref [| 1.0 |] in
  for i = 0 to n - 1 do
    let p = probs.(i) and q = values.(i) in
    if p > 0.0 then begin
      let old_xs = !xs and old_ws = !ws in
      let m = Array.length old_xs in
      let nxs = Array.make (2 * m) 0.0 and nws = Array.make (2 * m) 0.0 in
      (* fused merge of (old, weight (1-p)) with (old + q, weight p) *)
      let a = ref 0 and b = ref 0 and out = ref 0 in
      let push x w =
        if !out > 0 && nxs.(!out - 1) = x then nws.(!out - 1) <- nws.(!out - 1) +. w
        else begin
          nxs.(!out) <- x;
          nws.(!out) <- w;
          incr out
        end
      in
      while !a < m || !b < m do
        let xa = if !a < m then old_xs.(!a) else infinity in
        let xb = if !b < m then old_xs.(!b) +. q else infinity in
        if xa <= xb then begin
          push xa (old_ws.(!a) *. (1.0 -. p));
          incr a
        end
        else begin
          push xb (old_ws.(!b) *. p);
          incr b
        end
      done;
      xs := Array.sub nxs 0 !out;
      ws := Array.sub nws 0 !out
    end
  done;
  Core.Pfd_dist.of_mass (Array.to_list (Array.map2 (fun x w -> (x, w)) !xs !ws))

(* The historical per-fault grid pass: the same step and shift rounding
   and array sizing as Core.Pfd_dist.grid_of_vectors, then one two-tap
   dense sweep per fault, in index order, in place and downward, finishing
   through the of_mass list pipeline. *)
let grid_of_vectors ~probs ~values ~bins () =
  let n = Array.length probs in
  if n <> Array.length values then
    invalid_arg "Reference.grid_of_vectors: length mismatch";
  if bins < 2 then invalid_arg "Reference.grid_of_vectors: need at least 2 bins";
  let total = Kahan.sum_array values in
  let step = if total > 0.0 then total /. float_of_int (bins - 1) else 1.0 in
  let shifts =
    Array.init n (fun i ->
        if probs.(i) > 0.0 then int_of_float (Float.round (values.(i) /. step))
        else 0)
  in
  let dist = Array.make (max bins (1 + Array.fold_left ( + ) 0 shifts)) 0.0 in
  dist.(0) <- 1.0;
  let top = ref 0 in
  for i = 0 to n - 1 do
    let p = probs.(i) and shift = shifts.(i) in
    (* a zero shift (region too small for the grid) folds the fault's
       mass into "no change" *)
    if p > 0.0 && shift > 0 then begin
      top := !top + shift;
      for j = !top downto 0 do
        let keep = dist.(j) *. (1.0 -. p) in
        let arrive = if j >= shift then dist.(j - shift) *. p else 0.0 in
        dist.(j) <- keep +. arrive
      done
    end
  done;
  let pairs = ref [] in
  for j = !top downto 0 do
    if dist.(j) > 0.0 then pairs := (float_of_int j *. step, dist.(j)) :: !pairs
  done;
  Core.Pfd_dist.of_mass !pairs

let risk_ratio_gradient ps =
  Array.init (Array.length ps) (Core.Sensitivity.risk_ratio_partial ps)

let risk_ratio_k_derivative ~b ~k =
  let ps = Array.map (fun bi -> k *. bi) b in
  Kahan.sum_over (Array.length b) (fun i ->
      b.(i) *. Core.Sensitivity.risk_ratio_partial ps i)
