(* The ingest workload's in-process side. The timed passes run the
   real `experiments_cli evidence` verb in its own process (run.py);
   this file times the set-up and makes the traced pass, which calls
   each layer of what [Assessor.ingest_line] composes separately. After
   the traced pass the assessor's counters must equal the generator's
   tallies. *)

let config () =
  {
    Evidence.Assessor.default_config with
    expected_profile =
      Some (Demandspace.Profile.probabilities (Demandspace.Profile.uniform ~size:Gen.profile_size));
  }

(* Counter mismatches against the tallies (Gen.tally_json); each
   differing counter counts the size of its difference in accepted,
   skipped or malformed events, and one failed op otherwise. *)
let mismatches (tally : Obs.Json.t) a =
  let want section key =
    Option.value ~default:(-1)
      (Option.bind (Obs.Json.member section tally) (fun s -> Option.bind (Obs.Json.member key s) Obs.Json.to_int))
  in
  let open Evidence.Assessor in
  let e = event_counts a and f = fleet_counts a and r = runner_counts a and s = sprt_counts a in
  let counted =
    [
      ("events", "accepted", e.e_accepted); ("events", "skipped", e.e_skipped_total);
      ("events", "malformed", e.e_malformed);
    ]
  and checked =
    [
      ("runner", "runs", r.r_runs); ("runner", "demands", r.r_demands); ("runner", "failures", r.r_failures);
      ("runner", "coincident", r.r_coincident); ("runner", "rng_draws", r.r_rng_draws);
      ("fleet", "plants", f.f_plants); ("fleet", "demands", f.f_demands); ("fleet", "failures", f.f_failures);
      ("declared", "plants", f.f_declared_plants); ("declared", "failures", f.f_declared_failures);
      ("declared", "observes", f.f_observes); ("sprt", "accepts", s.s_accepts);
      ("sprt", "rejects", s.s_rejects); ("sprt", "undecided", s.s_undecided);
      ("sprt", "demands", s.s_demands); ("sprt", "failures", s.s_failures);
    ]
  in
  List.fold_left (fun acc (sec, key, got) -> acc + abs (got - want sec key)) 0 counted
  + List.length (List.filter (fun (sec, key, got) -> got <> want sec key) checked)

type pass = { ns : int; lines : int; failed : int; verdict : string }

(* Set-up: source open and assessor create until the first event is
   ingested. Each sample starts from a collected heap, as a fresh
   process would: otherwise the major GC work that earlier samples left
   behind lands on every fifth sample or so and more than triples it. *)
let setup_ns log =
  Gc.full_major ();
  let t0 = Span.now () in
  let src = Evidence.Source.open_file log in
  let a = Evidence.Assessor.create (config ()) in
  (match Evidence.Source.next_line src with Some l -> Evidence.Assessor.ingest_line a l | None -> ());
  let ns = Span.now () - t0 in
  Evidence.Source.close src;
  ns

(* The traced pass calls each layer separately — what
   [Assessor.ingest_line] composes — and records spans for every
   [sample]-th event, keeping the buffer small. *)
let traced_pass (l : Span.traced) ~sample log tally =
  let sp = l.sp and s = l.samples in
  let t0 = Span.now () in
  let src = Evidence.Source.open_file log in
  let a = Evidence.Assessor.create (config ()) in
  let parse_line traced ev k line =
    if String.trim line = "" then Evidence.Schema.Malformed "empty line"
    else
      let json =
        if traced then
          Span.span sp ~parent:ev ~req:k "obs.json.parse" (fun () ->
              Span.alloc s "obs.json.parse_alloc_w" (fun () -> Obs.Json.parse line))
        else Obs.Json.parse line
      in
      match json with
      | Ok json ->
          if traced then
            Span.span sp ~parent:ev ~req:k "evidence.schema.parse_json" (fun () ->
                Evidence.Schema.parse_json json)
          else Evidence.Schema.parse_json json
      | Error msg -> Evidence.Schema.Malformed ("invalid JSON: " ^ msg)
  in
  let rec loop k =
    let traced = k mod sample = 0 in
    let ev = if traced then Span.enter sp ~req:k "ingest.event" else -1 in
    let line =
      if traced then
        Span.span sp ~parent:ev ~req:k "evidence.source.next_line" (fun () ->
            Evidence.Source.next_line src)
      else Evidence.Source.next_line src
    in
    match line with
    | None -> Span.leave sp ev
    | Some line ->
        let parsed = parse_line traced ev k line in
        if traced then
          Span.span sp ~parent:ev ~req:k "evidence.assessor.ingest_parsed" (fun () ->
              Evidence.Assessor.ingest_parsed a parsed)
        else Evidence.Assessor.ingest_parsed a parsed;
        Span.leave sp ev;
        loop (k + 1)
  in
  loop 0;
  Evidence.Source.close src;
  let v = Span.span sp ~req:(-1) "evidence.verdict.of_assessor" (fun () -> Evidence.Verdict.of_assessor a) in
  let verdict = Span.span sp ~req:(-1) "evidence.verdict.render_json" (fun () -> Evidence.Verdict.render_json v) in
  let ns = Span.now () - t0 in
  ({ ns; lines = Evidence.Source.lines_read src; failed = mismatches tally a; verdict }, a)

(* Per-event layers report the mean self time per traced event, not the
   median: the measured mix is bimodal, and the median event is a short
   campaign.mission line while the runner.run lines, a fifth of the
   events, carry nearly all the bytes and the time. The once-per-pass
   verdict layers report the median pass. *)
let layer_metrics (l : Span.traced) a ~bytes ~lines =
  let self = Span.self_times l.sp in
  let times name = Option.value ~default:[] (Hashtbl.find_opt self name) in
  let mean name = Span.mean (times name) and med name = Span.median (times name) in
  let e = Evidence.Assessor.event_counts a in
  [
    ("evidence.source.next_line_us", mean "evidence.source.next_line" /. 1e3);
    ("obs.json.parse_us", mean "obs.json.parse" /. 1e3);
    ("obs.json.parse_alloc_w", Span.sample_mean l.samples "obs.json.parse_alloc_w");
    ("evidence.schema.parse_json_us", mean "evidence.schema.parse_json" /. 1e3);
    ("evidence.assessor.ingest_parsed_us", mean "evidence.assessor.ingest_parsed" /. 1e3);
    ("evidence.verdict.of_assessor_ms", med "evidence.verdict.of_assessor" /. 1e6);
    ("evidence.verdict.render_json_ms", med "evidence.verdict.render_json" /. 1e6);
    ("evidence.bytes_per_event", float_of_int bytes /. float_of_int (max 1 lines));
    ("evidence.accepted", float_of_int e.Evidence.Assessor.e_accepted);
    ("evidence.skipped", float_of_int e.Evidence.Assessor.e_skipped_total);
    ("evidence.malformed", float_of_int e.Evidence.Assessor.e_malformed);
  ]
