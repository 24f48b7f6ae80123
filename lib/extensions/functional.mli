(** Functional diversity: the two channels sense the plant through
    different input mappings.

    The paper's Fig. 1 caption: "In reality, the two channels usually
    sense different state variables ... We study the limiting worst case
    in which this functional diversity does not apply", citing [8] for
    the view that functional diversity is "part of a continuum of
    diversity arrangements". Here the continuum is explicit: channel B
    reads the demand through a bijection of the demand space; the
    identity reproduces the paper's worst case, and increasing the
    permuted fraction decorrelates the channels' failure regions, so the
    model *quantifies how much the paper's worst-case analysis gives
    away*. *)

type t
(** A demand space plus channel B's sensing bijection (channel A senses
    directly). *)

val create : Demandspace.Space.t -> sensing_b:Demandspace.Transform.t -> t
val non_functional : Demandspace.Space.t -> t
(** The paper's worst case: both channels sense identically. *)

val mean_single : t -> float
(** E(Theta_1) — unchanged by sensing (a bijection preserves nothing about
    a single channel's failure probability only if the profile is
    preserved; with a uniform profile it is exact, and in general channel
    A's mean is reported). *)

val mean_pair : t -> float
(** Exact E(Theta_2) = E_X[theta(X) theta(T(X))] for independently
    developed versions behind the two sensing maps. *)

val functional_gain : t -> float
(** Worst-case (identity-sensing) mean pair PFD divided by this
    arrangement's: how much the paper's limiting case gives away. *)

val pair_pfd_of_versions :
  t -> Demandspace.Version.t -> Demandspace.Version.t -> float
(** True PFD of one concrete developed pair under the sensing maps. *)

val sample_pair_pfd : Numerics.Rng.t -> t -> float
(** Develop a pair and evaluate it. *)

val continuum :
  Numerics.Rng.t ->
  Demandspace.Space.t ->
  fractions:float array ->
  (float * float) array
(** Mean pair PFD along the functional-diversity continuum (permuted
    fraction from 0 = the paper's case to 1 = fully divergent sensing). *)
