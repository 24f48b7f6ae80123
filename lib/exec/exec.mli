(** Deterministic sharded execution over a {!Pool} of domains.

    Determinism contract: a parallel computation is split into a fixed
    number of [shards]; shard [k] derives its randomness from
    [Rng.split parent ~index:k] and its slice of the work from
    {!map_slices}; results come back in shard order. The output is a
    pure function of [(seed, shards)] and is byte-identical for any
    domain count, including a 1-domain (fully sequential) pool. Changing
    [shards] changes outputs — deterministically — which is why the
    default is a fixed constant rather than a hardware-derived value. *)

module Pool = Pool

val default_shards : unit -> int
(** Shard count used by library entry points when the caller passes no
    [~shards]; 16 unless overridden by {!set_default_shards}. *)

val set_default_shards : int -> unit
(** Override {!default_shards} (>= 1); wired to the [--shards] CLI
    flags. Changes downstream outputs deterministically. *)

val map_shards :
  ?pool:Pool.t -> shards:int -> f:(int -> 'a) -> unit -> 'a array
(** Run [f 0 .. f (shards-1)] on the pool (default: {!Pool.default}),
    returning results in shard order. Each shard runs under
    [Obs.Trace.with_shard k] so trace spans from parallel regions stay
    well-nested per shard. Raises [Invalid_argument] when
    [shards < 1]. *)

val map_slices :
  ?pool:Pool.t ->
  ?shards:int ->
  Numerics.Rng.t ->
  range:int ->
  f:(Numerics.Rng.t -> lo:int -> len:int -> 'a) ->
  'a array
(** [map_slices rng ~range ~f] splits [[0, range)] into [shards]
    (default {!default_shards}) contiguous, disjoint slices whose
    lengths differ by at most one (the first [range mod shards] take the
    extra element; shards beyond [range] get [len = 0]), and runs
    [f rng_k ~lo ~len] for shard [k] through {!map_shards}, results in
    shard order. [rng_k] is [Rng.split rng ~index:k]; the parent
    advances by exactly [shards] draws. The callback's randomness is its
    argument, so nothing it computes depends on scheduling. The number
    of shards used is [Array.length] of the result. Raises
    [Invalid_argument] when [shards < 1] or [range < 0]. *)
