(** Reference kernels: the straightforward formulations that
    [Core.Pfd_dist] and [Core.Sensitivity] replaced with faster ones,
    kept as the reference side of the fast-vs-legacy and
    incremental-vs-naive differential oracles and timed by the bench as
    the [-naive] kernels. All are sequential. *)

val exact_of_vectors : probs:float array -> values:float array -> unit -> Core.Pfd_dist.t
(** The historical allocating doubling pass (fresh buffers and two
    [Array.sub] per fault, [of_mass] finalisation). Bit-identical to
    [Core.Pfd_dist.exact_of_vectors]. Raises [Invalid_argument] on a
    length mismatch or more than [Core.Pfd_dist.max_exact_faults]
    faults. *)

val grid_of_vectors :
  probs:float array -> values:float array -> bins:int -> unit -> Core.Pfd_dist.t
(** The historical one-dense-sweep-per-fault grid pass, with the same
    rounding and sizing as [Core.Pfd_dist.grid_of_vectors]; agrees with
    it to rounding, and bitwise when every active shift is unique and
    ascending in index order. *)

val risk_ratio_gradient : float array -> float array
(** O(n^2): one independent [Core.Sensitivity.risk_ratio_partial] Kahan
    sum per coordinate. The anchor for [Core.Sensitivity.risk_ratio_gradient]. *)

val risk_ratio_k_derivative : b:float array -> k:float -> float
(** O(n^2) reference for [Core.Sensitivity.risk_ratio_k_derivative]: one
    [risk_ratio_partial] per coordinate, chained through p_i = k b_i. *)
