(* Typed view of the run-log event schema.

   The JSONL run log (Obs.Runlog) is a producer-side artefact: every
   instrumented site appends whatever fields it finds useful. This module
   is the consumer-side contract — the event kinds and required fields
   the proven-in-use assessor relies on (documented in EXPERIMENTS.md,
   "Run-log event schema"). Parsing is deliberately total: a line that is
   not valid JSON, not an object, or an object missing a required field
   of a consumed kind is [Malformed] (counted, never fatal — field
   evidence arrives damaged, and one bad line must not void months of
   operating history); a well-formed event of a kind the assessor does
   not consume is [Skipped] with its kind, so unknown schemas are visible
   in the verdict rather than silently dropped. *)

type sprt_outcome = Accept | Reject | Undecided

type event =
  | Run_start of { target : string; seed : int; shards : int }
  | Run_end of {
      target : string;
      seed : int;
      shards : int;
      rng_draws : int;
      duration_ns : int;
    }
  | Runner_run of {
      demands : int;
      system_failures : int;
      coincident_failures : int;
      rng_draws : int;
      demand_hist : (int * int) list;  (** ascending demand id, count > 0 *)
    }
  | Fleet_plant of {
      plant : int;
      demands : int;
      failures : int;
      true_pfd : float;
    }
  | Fleet_observe of {
      plants : int;
      demands_per_plant : int;
      failures : int;
    }
  | Sprt_decision of {
      decision : sprt_outcome;
      demands : int;
      failures : int;
      log_lr : float;
    }

type parsed =
  | Event of event
  | Skipped of string  (** well-formed event of an unconsumed kind *)
  | Malformed of string  (** diagnostic; the line is counted, not fatal *)

let ( let* ) = Result.bind

(* [demand_hist] is sparse: a list of [id, count] pairs. Absent or null
   is treated as empty (events logged before the field existed). *)
let demand_hist_field json =
  match Obs.Json.member "demand_hist" json with
  | None | Some Obs.Json.Null -> Ok []
  | Some v -> (
      match Obs.Json.to_list v with
      | None -> Error "field \"demand_hist\" is not a list"
      | Some items ->
          let rec pairs acc = function
            | [] -> Ok (List.rev acc)
            | item :: rest -> (
                match Obs.Json.to_list item with
                | Some [ id; count ] -> (
                    match (Obs.Json.to_int id, Obs.Json.to_int count) with
                    | Some id, Some count when id >= 0 && count > 0 ->
                        pairs ((id, count) :: acc) rest
                    | _ ->
                        Error
                          "field \"demand_hist\" entry is not a \
                           non-negative [id, count] pair")
                | _ -> Error "field \"demand_hist\" entry is not a pair")
          in
          pairs [] items)

let parse_kind kind json =
  match kind with
  | "run.start" ->
      let* target = Obs.Json.(field "target" to_string json) in
      let* seed = Obs.Json.(field "seed" to_int json) in
      let* shards = Obs.Json.(field "shards" to_int json) in
      Ok (Event (Run_start { target; seed; shards }))
  | "run.end" ->
      let* target = Obs.Json.(field "target" to_string json) in
      let* seed = Obs.Json.(field "seed" to_int json) in
      let* shards = Obs.Json.(field "shards" to_int json) in
      let* rng_draws = Obs.Json.(field "rng_draws" to_int json) in
      let* duration_ns = Obs.Json.(field "duration_ns" to_int json) in
      Ok (Event (Run_end { target; seed; shards; rng_draws; duration_ns }))
  | "runner.run" ->
      let* demands = Obs.Json.(field "demands" to_int json) in
      let* system_failures = Obs.Json.(field "system_failures" to_int json) in
      let* coincident_failures =
        Obs.Json.(field "coincident_failures" to_int json)
      in
      let* rng_draws = Obs.Json.(field "rng_draws" to_int json) in
      let* demand_hist = demand_hist_field json in
      if demands <= 0 then Error "field \"demands\" must be positive"
      else if system_failures < 0 || system_failures > demands then
        Error "field \"system_failures\" outside [0, demands]"
      else
        Ok
          (Event
             (Runner_run
                {
                  demands;
                  system_failures;
                  coincident_failures;
                  rng_draws;
                  demand_hist;
                }))
  | "fleet.plant" ->
      let* plant = Obs.Json.(field "plant" to_int json) in
      let* demands = Obs.Json.(field "demands" to_int json) in
      let* failures = Obs.Json.(field "failures" to_int json) in
      let* true_pfd = Obs.Json.(field "true_pfd" to_float json) in
      if plant < 0 then Error "field \"plant\" must be non-negative"
      else if demands <= 0 then Error "field \"demands\" must be positive"
      else if failures < 0 || failures > demands then
        Error "field \"failures\" outside [0, demands]"
      else Ok (Event (Fleet_plant { plant; demands; failures; true_pfd }))
  | "fleet.observe" ->
      let* plants = Obs.Json.(field "plants" to_int json) in
      let* demands_per_plant =
        Obs.Json.(field "demands_per_plant" to_int json)
      in
      let* failures = Obs.Json.(field "failures" to_int json) in
      Ok (Event (Fleet_observe { plants; demands_per_plant; failures }))
  | "sprt.decision" ->
      let* decision = Obs.Json.(field "decision" to_string json) in
      let* demands = Obs.Json.(field "demands" to_int json) in
      let* failures = Obs.Json.(field "failures" to_int json) in
      let* log_lr = Obs.Json.(field "log_lr" to_float json) in
      let* decision =
        match decision with
        | "accept" -> Ok Accept
        | "reject" -> Ok Reject
        | "undecided" -> Ok Undecided
        | other -> Error (Printf.sprintf "unknown SPRT decision %S" other)
      in
      Ok (Event (Sprt_decision { decision; demands; failures; log_lr }))
  | other -> Ok (Skipped other)

let parse_json json =
  match json with
  | Obs.Json.Obj _ -> (
      match Obs.Json.(field "event" to_string json) with
      | Error msg -> Malformed msg
      | Ok kind -> (
          match parse_kind kind json with
          | Ok parsed -> parsed
          | Error msg -> Malformed (Printf.sprintf "event %S: %s" kind msg)))
  | _ -> Malformed "line is not a JSON object"

let parse_line line =
  if String.trim line = "" then Malformed "empty line"
  else
    match Obs.Json.parse line with
    | Ok json -> parse_json json
    | Error msg -> Malformed ("invalid JSON: " ^ msg)
