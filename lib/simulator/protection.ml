type t = { channels : Channel.t list; adjudicator : Adjudicator.t }

let create ?(adjudicator = Adjudicator.one_out_of_n) channels =
  if channels = [] then invalid_arg "Protection.create: no channels";
  if Adjudicator.min_channels adjudicator > List.length channels then
    invalid_arg "Protection.create: more votes required than channels";
  { channels; adjudicator }

let one_out_of_two a b = create [ a; b ]

let voted ~required channels =
  create ~adjudicator:(Adjudicator.m_out_of_n ~required) channels

let channels t = t.channels
let adjudicator t = t.adjudicator

let space t =
  match t.channels with
  | [] -> assert false (* create forbids the empty channel list *)
  | first :: _ -> Demandspace.Version.space (Channel.version first)

let respond t demand =
  Adjudicator.combine t.adjudicator
    (List.map (fun c -> Channel.respond c demand) t.channels)

let fails_on t demand =
  not (Core.Voting.equal_decision (respond t demand) Channel.Shutdown)

let true_pfd t =
  (* Exact: count, demand by demand, whether enough channels survive.
     (For the 1-out-of-N adjudicator this is the intersection of the
     channels' failure sets.) An unresolved [Abstain] verdict counts as
     a system failure: the plant misses the intervention either way. *)
  let space = space t in
  let profile = Demandspace.Space.profile space in
  let acc = Numerics.Kahan.create () in
  for d = 0 to Demandspace.Space.size space - 1 do
    let demand = Demandspace.Demand.of_int d in
    if fails_on t demand then
      Numerics.Kahan.add acc (Demandspace.Profile.probability profile demand)
  done;
  Numerics.Kahan.total acc

let pp ppf t =
  Fmt.pf ppf "@[<v>protection system: %a@,%a@]" Adjudicator.pp t.adjudicator
    (Fmt.list ~sep:Fmt.cut Channel.pp)
    t.channels
