open Numerics

(* Telemetry (all no-ops until enabled; see lib/obs): iteration and
   acceptance counters, RNG consumption, and PFD-scale histograms of the
   sampled single-version and pair PFDs. Parallel paths accumulate plain
   ints per shard and feed the instruments once, at join on the calling
   domain, so histogram/gauge writes never race and metric totals are
   independent of the domain count. *)
let m_iterations = Obs.Metrics.counter "montecarlo.iterations"
let m_n1_pos = Obs.Metrics.counter "montecarlo.theta1_positive"
let m_n2_pos = Obs.Metrics.counter "montecarlo.theta2_positive"
let m_rng_draws = Obs.Metrics.counter "montecarlo.rng_draws"
let h_theta1 = Obs.Metrics.histogram "montecarlo.theta1"
let h_theta2 = Obs.Metrics.histogram "montecarlo.theta2"

type estimate = {
  replications : int;
  shards : int;
  theta1 : Stats.summary;
  theta2 : Stats.summary;
  p_n1_pos : float;
  p_n2_pos : float;
  risk_ratio : float;
  theta1_samples : float array;
  theta2_samples : float array;
  shard_draws : int array;
}

let estimate ?pool ?shards rng universe ~replications =
  if replications <= 0 then
    invalid_arg "Montecarlo.estimate: replications must be positive";
  let span = Obs.Trace.enter "montecarlo.estimate" in
  let draws0 = Rng.draws rng in
  let theta1_samples = Array.make replications 0.0 in
  let theta2_samples = Array.make replications 0.0 in
  (* Deterministic sharding: each shard owns a contiguous slice of the
     sample arrays and an independent substream, so the result depends on
     (seed, shards) only — never on the pool's domain count. *)
  let per_shard =
    Exec.map_slices ?pool ?shards rng ~range:replications
      ~f:(fun rng_k ~lo ~len ->
        let n1 = ref 0 and n2 = ref 0 in
        for r = lo to lo + len - 1 do
          let pfd_a, _pfd_b, pfd_pair =
            Devteam.pair_pfd_from_universe rng_k universe
          in
          theta1_samples.(r) <- pfd_a;
          theta2_samples.(r) <- pfd_pair;
          if pfd_a > 0.0 then incr n1;
          if pfd_pair > 0.0 then incr n2
        done;
        (!n1, !n2, Rng.draws rng_k))
  in
  let shards = Array.length per_shard in
  (* Join: fold shard tallies in shard order and feed the single-writer
     instruments from the calling domain. *)
  let n1_pos = ref 0 and n2_pos = ref 0 in
  let shard_draws = Array.make shards 0 in
  Array.iteri
    (fun k (n1, n2, draws) ->
      n1_pos := !n1_pos + n1;
      n2_pos := !n2_pos + n2;
      shard_draws.(k) <- draws)
    per_shard;
  let total_draws =
    Rng.draws rng - draws0 + Array.fold_left ( + ) 0 shard_draws
  in
  Obs.Metrics.add m_iterations replications;
  Obs.Metrics.add m_n1_pos !n1_pos;
  Obs.Metrics.add m_n2_pos !n2_pos;
  Obs.Metrics.add m_rng_draws total_draws;
  if Obs.Metrics.is_enabled () then
    for r = 0 to replications - 1 do
      Obs.Metrics.observe h_theta1 theta1_samples.(r);
      Obs.Metrics.observe h_theta2 theta2_samples.(r)
    done;
  let p_n1_pos = float_of_int !n1_pos /. float_of_int replications in
  let p_n2_pos = float_of_int !n2_pos /. float_of_int replications in
  if Obs.Runlog.active () then
    Obs.Runlog.record ~kind:"montecarlo.estimate"
      [
        ("replications", Obs.Json.Int replications);
        ("shards", Obs.Json.Int shards);
        ("p_n1_pos", Obs.Json.Float p_n1_pos);
        ("p_n2_pos", Obs.Json.Float p_n2_pos);
        ("rng_draws", Obs.Json.Int total_draws);
      ];
  Obs.Trace.leave span;
  {
    replications;
    shards;
    theta1 = Stats.summarize theta1_samples;
    theta2 = Stats.summarize theta2_samples;
    p_n1_pos;
    p_n2_pos;
    risk_ratio = (if p_n1_pos > 0.0 then p_n2_pos /. p_n1_pos else nan);
    theta1_samples;
    theta2_samples;
    shard_draws;
  }

let quantile_theta1 est alpha = Stats.quantile est.theta1_samples alpha

type population = {
  version_pfds : float array;
  pair_pfds : float array;
  version_summary : Stats.summary;
  pair_summary : Stats.summary;
}

let version_population ?pool rng space ~count =
  if count < 2 then
    invalid_arg "Montecarlo.version_population: need at least two versions";
  let span = Obs.Trace.enter "montecarlo.version_population" in
  (* Development consumes the RNG and stays sequential; evaluating the
     count*(count-1)/2 unordered pairs is pure, so it runs one pool task
     per entry of a flattened (i, j) index table. *)
  let versions = Devteam.develop_many rng space ~count in
  let version_pfds = Array.map Demandspace.Version.pfd versions in
  let n_pairs = count * (count - 1) / 2 in
  let pair_i = Array.make n_pairs 0 and pair_j = Array.make n_pairs 0 in
  let idx = ref 0 in
  for i = 0 to count - 1 do
    for j = i + 1 to count - 1 do
      pair_i.(!idx) <- i;
      pair_j.(!idx) <- j;
      incr idx
    done
  done;
  let pair_pfds =
    Exec.map_shards ?pool ~shards:n_pairs
      ~f:(fun r ->
        Demandspace.Version.pair_pfd versions.(pair_i.(r)) versions.(pair_j.(r)))
      ()
  in
  let pop =
    {
      version_pfds;
      pair_pfds;
      version_summary = Stats.summarize version_pfds;
      pair_summary = Stats.summarize pair_pfds;
    }
  in
  Obs.Trace.leave span;
  pop

let knight_leveson_shape pop =
  (* The paper's Section 7 check: "diversity reduced not only the sample
     mean of the PFD of the 27 program versions produced, but also -
     greatly - its standard deviation". Returns (mean ratio, std ratio):
     both below 1 reproduce the observation, and std ratio << mean ratio
     reproduces "greatly". *)
  let mean_ratio =
    if pop.version_summary.mean > 0.0 then
      pop.pair_summary.mean /. pop.version_summary.mean
    else nan
  in
  let std_ratio =
    if pop.version_summary.std > 0.0 then
      pop.pair_summary.std /. pop.version_summary.std
    else nan
  in
  (mean_ratio, std_ratio)

let empirical_system_pfd ?pool ?shards rng space ~replications
    ~demands_per_system =
  (* Full-stack estimate: develop a pair, build the Fig. 1 system, run it
     on operational demands, and average the observed failure rates. Each
     shard runs its slice of the replications on its own substream into a
     local Welford accumulator; accumulators merge in shard order, and the
     runs' telemetry is replayed at join in replication order. *)
  let span = Obs.Trace.enter "montecarlo.empirical_system_pfd" in
  let per_shard =
    Exec.map_slices ?pool ?shards rng ~range:replications
      ~f:(fun rng_k ~lo:_ ~len ->
        let acc = Welford.create () in
        let emits =
          Array.init len (fun _ ->
              let va, vb = Devteam.develop_pair rng_k space in
              let system =
                Protection.one_out_of_two
                  (Channel.create ~name:"A" va)
                  (Channel.create ~name:"B" vb)
              in
              let stats, emit =
                Runner.run_deferred rng_k ~system
                  ~demand_count:demands_per_system
              in
              Welford.add acc stats.Runner.estimated_pfd;
              emit)
        in
        (acc, emits))
  in
  Array.iter (fun (_, emits) -> Array.iter (fun emit -> emit ()) emits) per_shard;
  let acc =
    Array.fold_left
      (fun acc (shard_acc, _) -> Welford.merge acc shard_acc)
      (Welford.create ()) per_shard
  in
  Obs.Trace.leave span;
  Welford.mean acc
