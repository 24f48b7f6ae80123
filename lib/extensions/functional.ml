open Numerics
module Transform = Demandspace.Transform

type t = {
  space : Demandspace.Space.t;
  sensing_b : Transform.t;
}

let create space ~sensing_b =
  if Transform.size sensing_b <> Demandspace.Space.size space then
    invalid_arg "Functional.create: transform over a different space";
  { space; sensing_b }

let non_functional space =
  { space; sensing_b = Transform.identity (Demandspace.Space.size space) }

let mean_single t = Baselines.Eckhardt_lee.mean_single t.space

let mean_pair t =
  (* Channel A sees the demand directly, channel B through its sensing
     bijection; the versions are developed independently, so
     E(Theta_2) = sum_x pi(x) theta(x) theta(T(x)). *)
  let profile = Demandspace.Space.profile t.space in
  Kahan.sum_over (Demandspace.Space.size t.space) (fun x ->
      Demandspace.Profile.probability profile (Demandspace.Demand.of_int x)
      *. Baselines.Eckhardt_lee.difficulty t.space x
      *. Baselines.Eckhardt_lee.difficulty t.space
           (Transform.apply t.sensing_b x))

let functional_gain t =
  let worst = mean_pair (non_functional t.space) in
  let actual = mean_pair t in
  if Stats.is_zero actual then infinity else worst /. actual

let pair_pfd_of_versions t va vb =
  (* Concrete developed pair: the system fails on x iff A's version fails
     on x and B's fails on T(x). *)
  let fb_plant =
    Transform.preimage t.sensing_b (Demandspace.Version.failure_set vb)
  in
  let joint = Bitset.inter (Demandspace.Version.failure_set va) fb_plant in
  Demandspace.Profile.measure (Demandspace.Space.profile t.space) joint

let sample_pair_pfd rng t =
  let develop () =
    let present = ref [] in
    for i = Demandspace.Space.fault_count t.space - 1 downto 0 do
      if Rng.bool rng ~p:(Demandspace.Space.introduction_prob t.space i) then
        present := i :: !present
    done;
    Demandspace.Version.create t.space !present
  in
  pair_pfd_of_versions t (develop ()) (develop ())

let continuum rng space ~fractions =
  Array.map
    (fun fraction ->
      let sensing_b =
        Transform.partial rng (Demandspace.Space.size space) ~fraction
      in
      let model = create space ~sensing_b in
      (fraction, mean_pair model))
    fractions
