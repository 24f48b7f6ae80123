type t = Core.Voting.policy

let unit = Core.Voting.Unit

let vote ~required =
  if required < 1 then
    invalid_arg "Adjudicator.m_out_of_n: required must be >= 1";
  Core.Voting.Vote required

let compose = Core.Voting.compose
let fallback = Core.Voting.fallback
let one_out_of_n = vote ~required:1
let m_out_of_n ~required = vote ~required
let min_channels = Core.Voting.policy_min_channels

let decide_counts = Core.Voting.decide

let combine t outputs =
  (match outputs with
  | [] -> invalid_arg "Adjudicator.combine: no channel outputs"
  | _ :: _ -> ());
  let shutdowns, no_actions, abstains =
    List.fold_left
      (fun (s, na, ab) o ->
        match o with
        | Channel.Shutdown -> (s + 1, na, ab)
        | Channel.No_action -> (s, na + 1, ab)
        | Channel.Abstain -> (s, na, ab + 1))
      (0, 0, 0) outputs
  in
  if min_channels t > shutdowns + no_actions + abstains then
    invalid_arg "Adjudicator.combine: more votes required than channels";
  decide_counts t ~shutdowns ~no_actions ~abstains

let system_fails t outputs =
  not (Core.Voting.equal_decision (combine t outputs) Channel.Shutdown)

let equal = Core.Voting.equal_policy
let pp = Core.Voting.pp_policy
