(** Correlated fault introduction (the paper's Section 6.1 assumption
    violation).

    Mistakes "due to a common conceptual error" make several faults more
    likely together. We model this with a two-state mixture per cluster of
    faults: with the cluster's shock probability a conceptual error occurs
    and every fault i in the cluster is introduced with its elevated
    probability hi_i, otherwise with lo_i; distinct clusters and the two
    channels' developments stay independent. hi > lo yields positive
    within-version correlation; mixing faults with hi < lo into a cluster
    yields negative correlation (the paper's resource-diversion argument).

    Because marginals can be held fixed, the model isolates exactly what
    correlation changes: within-version correlation leaves both mean PFDs
    untouched but moves the variance and the no-common-fault
    probabilities. *)

type cluster = {
  shock_prob : float;
  faults : (float * float * float) array;
      (** per fault: (hi, lo, q) — introduction probability with and without
          the cluster's conceptual error, and the failure-region measure *)
}

type t

val create : cluster array -> t
(** Raises [Invalid_argument] on empty input or out-of-range
    probabilities. *)

val of_universe_with_shock :
  Core.Universe.t -> cluster_size:int -> shock_prob:float -> lift:float -> t
(** Partition a universe into consecutive clusters and add a common shock
    that multiplies each fault's probability by [lift] while preserving
    every marginal p_i (so the independent model with the same universe is
    the exact zero-correlation reference). Raises when the lift is too
    large to preserve a marginal. *)

val fault_count : t -> int

val marginal_universe : t -> Core.Universe.t
(** The universe an observer of marginals alone would infer — feeding it to
    the core model gives the paper's independence approximation. *)

val mu1 : t -> float
(** Exact mean version PFD (equals the marginal universe's mu1). *)

val mu2 : t -> float
(** Exact mean pair PFD — also unchanged by within-version correlation. *)

val var1 : t -> float
(** Exact variance of the version PFD, including within-cluster
    covariances. *)

val sigma1 : t -> float

val p_n1_zero : t -> float
(** Exact P(version fault-free), conditioning on each cluster's shock. *)

val p_n2_zero : t -> float
(** Exact P(pair shares no fault), conditioning on both channels' shocks. *)

val p_n1_pos : t -> float

val risk_ratio : t -> float
(** The eq. (10) ratio under correlation. *)

val sample_version : Numerics.Rng.t -> t -> int list
(** Draw one version's fault set (global fault indices). *)

val sample_pair_pfd : Numerics.Rng.t -> t -> float * float
(** [(version_pfd, pair_pfd)] for an independently developed pair. *)
