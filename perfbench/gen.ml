(* Seeded input generators. The program under test only ever sees
   what these write: request lines for the serve workloads, a JSONL run
   log for ingest. Same seed, same bytes. *)

let rng ~seed ~tag = Random.State.make [| seed; tag |]

let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

(* A fault universe with [faults] faults, p in [0.01, 0.4] and the
   failure-region measures summing to about 0.5. *)
let universe st ~faults =
  let ps = Array.init faults (fun _ -> uniform st 0.01 0.4) in
  let w = Array.init faults (fun _ -> uniform st 0.1 1.0) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let qs = Array.map (fun x -> 0.5 *. x /. total) w in
  { Serve.Proto.ps; qs }

(* ------------------------------------------------------------------ *)
(* Serve request pools                                                 *)
(* ------------------------------------------------------------------ *)

type serve_shape = {
  pool_size : int;  (* distinct request bodies, cycled by the load *)
  conns : int;
  window : int;  (* requests in flight per connection *)
  batch : int;  (* dispatcher batch the traced run times *)
}

let serve_shape = function
  | "serve-codec" -> { pool_size = 4096; conns = 1; window = 1; batch = 1 }
  | "serve-compute" -> { pool_size = 128; conns = 2; window = 4; batch = 8 }
  | w -> invalid_arg ("no serve workload " ^ w)

(* Slots cycle moments, risk-ratio, exact pfd-dist: a third of each. *)
let codec_request st ~slot ~id =
  let open Serve.Proto in
  match slot mod 3 with
  | 0 -> { id; u = universe st ~faults:(3 + Random.State.int st 62); verb = Moments }
  | 1 ->
      {
        id;
        u = universe st ~faults:(3 + Random.State.int st 62);
        verb = Risk_ratio { channels = 2; required = 1 };
      }
  | _ ->
      {
        id;
        u = universe st ~faults:(3 + Random.State.int st 2);
        verb = Pfd_dist { channels = 2; required = 1; bins = 0 };
      }

(* Even slots grid pfd-dist, odd slots fleet-mission: an exact half of
   each, interleaved, so batch make-up does not vary with the seed. *)
let compute_request st ~slot ~id =
  let open Serve.Proto in
  if slot mod 2 = 0 then
    {
      id;
      u = universe st ~faults:200;
      verb = Pfd_dist { channels = 2; required = 1; bins = 2048 };
    }
  else
    {
      id;
      u = universe st ~faults:8;
      verb =
        Fleet_mission
          {
            plants = 16;
            demands_per_plant = 2000;
            mission_demands = 1000;
            salt = Random.State.int st (max_salt - 1);
            shards = 4;
            space = 4096;
          };
    }

let serve_requests ~workload ~seed =
  let shape = serve_shape workload in
  let st = rng ~seed ~tag:(if workload = "serve-codec" then 1 else 2) in
  let make = if workload = "serve-codec" then codec_request else compute_request in
  Array.init shape.pool_size (fun i -> make st ~slot:i ~id:(Printf.sprintf "p%d" i))

(* ------------------------------------------------------------------ *)
(* Ingest run log                                                      *)
(* ------------------------------------------------------------------ *)

(* The log copies the run log the reproduction itself writes,
   `experiments_cli all --seed 42 --log FILE` (RATIONALE.md gives the
   measured figures): the same event kinds in the same shares, with the
   same fields, and each runner.run carrying the demand histogram of
   20000 demands over E26's 1600-cell demand space. On top of that mix
   come malformed lines. *)

let profile_size = 1600
let plants = 400
let run_demands = 20000
let malformed_per_mille = 40

(* Body events per kind in the measured log (3612 of them, run.start
   and run.end aside). *)
type kind = Mission | Runner | Plant | Sprt | Montecarlo | Observe

let mix = [| (1600, Mission); (801, Runner); (800, Plant); (400, Sprt); (9, Montecarlo); (2, Observe) |]
let mix_total = Array.fold_left (fun n (k, _) -> n + k) 0 mix

let pick_kind st =
  let r = Random.State.int st mix_total in
  let rec go i acc =
    let n, k = mix.(i) in
    if r < acc + n || i = Array.length mix - 1 then k else go (i + 1) (acc + n)
  in
  go 0 0

(* What the generator wrote, counted the way the assessor must count
   it. *)
type tally = {
  mutable accepted : int;
  mutable skipped : int;
  mutable malformed : int;
  mutable missions : int;
  mutable estimates : int;
  mutable runs : int;
  mutable run_demands : int;
  mutable run_failures : int;
  mutable run_coincident : int;
  mutable run_draws : int;
  plant_seen : bool array;
  mutable fleet_demands : int;
  mutable fleet_failures : int;
  mutable declared_plants : int;
  mutable declared_failures : int;
  mutable observes : int;
  mutable sprt_accepts : int;
  mutable sprt_rejects : int;
  mutable sprt_demands : int;
  mutable sprt_failures : int;
}

let new_tally () =
  {
    accepted = 0;
    skipped = 0;
    malformed = 0;
    missions = 0;
    estimates = 0;
    runs = 0;
    run_demands = 0;
    run_failures = 0;
    run_coincident = 0;
    run_draws = 0;
    plant_seen = Array.make plants false;
    fleet_demands = 0;
    fleet_failures = 0;
    declared_plants = 0;
    declared_failures = 0;
    observes = 0;
    sprt_accepts = 0;
    sprt_rejects = 0;
    sprt_demands = 0;
    sprt_failures = 0;
  }

let distinct_plants t = Array.fold_left (fun n b -> if b then n + 1 else n) 0 t.plant_seen

(* A fault's failure region in the 1600-cell space, as a cell count:
   about one in six is empty, as in the measured log's true_pfd. *)
let fault_cells st = if Random.State.int st 6 = 0 then 0 else 1 + Random.State.int st 40

let gaussian st =
  let u = Float.max 1e-12 (Random.State.float st 1.0) and v = Random.State.float st 1.0 in
  sqrt (-2.0 *. log u) *. cos (2.0 *. Float.pi *. v)

let binomial_approx st ~n ~p =
  let mean = float_of_int n *. p in
  let sd = sqrt (mean *. (1.0 -. p)) in
  max 0 (min n (int_of_float (Float.round (mean +. (sd *. gaussian st)))))

(* One runner run: [run_demands] uniform demands over the space, a
   failure region of [cells] cells, of which [common] also defeat the
   second channel. Returns the histogram pairs and the counts. *)
let runner_run st =
  let cells = fault_cells st in
  let common = if Random.State.int st 3 = 0 then cells / 2 else 0 in
  let hist = Array.make profile_size 0 in
  let failures = ref 0 and coincident = ref 0 in
  for _ = 1 to run_demands do
    let c = Random.State.int st profile_size in
    hist.(c) <- hist.(c) + 1;
    if c < cells then incr failures;
    if c < common then incr coincident
  done;
  let pairs = ref [] in
  for id = profile_size - 1 downto 0 do
    if hist.(id) > 0 then pairs := Obs.Json.List [ Obs.Json.Int id; Obs.Json.Int hist.(id) ] :: !pairs
  done;
  (Obs.Json.List !pairs, !failures, !coincident)

let ln_ratio = log (0.02 /. 0.002)
let ln_complement = log ((1.0 -. 0.02) /. (1.0 -. 0.002))

(* Damaged lines, each of which the schema must classify as malformed. *)
let malformed_line st ~seq ~t_ns =
  match Random.State.int st 6 with
  | 0 ->
      (* A runner.run line cut short inside its histogram. *)
      let hist, _, _ = runner_run st in
      let full =
        Obs.Json.render
          (Obs.Json.Obj
             [ ("event", Obs.Json.String "runner.run"); ("seq", Obs.Json.Int seq);
               ("t_ns", Obs.Json.Int t_ns); ("demands", Obs.Json.Int run_demands);
               ("demand_hist", hist) ])
      in
      String.sub full 0 (String.length full / 2)
  | 1 -> Printf.sprintf {|[%d,"runner.run"]|} seq
  | 2 ->
      Printf.sprintf
        {|{"event":"runner.run","seq":%d,"t_ns":%d,"system_failures":0,"coincident_failures":0,"estimated_pfd":0,"rng_draws":5}|}
        seq t_ns
  | 3 ->
      Printf.sprintf
        {|{"event":"fleet.plant","seq":%d,"t_ns":%d,"plant":3,"demands":"many","failures":0,"true_pfd":0.001}|}
        seq t_ns
  | 4 ->
      Printf.sprintf
        {|{"event":"fleet.plant","seq":%d,"t_ns":%d,"plant":3,"demands":10,"failures":11,"true_pfd":0.001}|}
        seq t_ns
  | _ -> Printf.sprintf {|{"seq":%d,"t_ns":%d,"kind":"runner.run"}|} seq t_ns

(* Write a run log of [events] lines: run.start, the measured mix with
   malformed lines among it, a closing fleet.observe that declares the
   plants and failures since the last one, and run.end. *)
let ingest_log ~seed ~events oc =
  let st = rng ~seed ~tag:3 in
  let t = new_tally () in
  let open Obs.Json in
  let clock = ref 8_910_332_852_023 in
  let line ~seq kind fields =
    clock := !clock + 1_000_000 + Random.State.int st 12_000_000;
    output_string oc
      (render (Obj (("event", String kind) :: ("seq", Int seq) :: ("t_ns", Int !clock) :: fields)));
    output_char oc '\n';
    t.accepted <- t.accepted + 1
  in
  let block_failures = ref 0 in
  let observe ~seq =
    let declared = distinct_plants t in
    line ~seq "fleet.observe"
      [ ("plants", Int declared); ("demands_per_plant", Int run_demands);
        ("failures", Int !block_failures); ("shards", Int 16) ];
    t.observes <- t.observes + 1;
    t.declared_plants <- max t.declared_plants declared;
    t.declared_failures <- t.declared_failures + !block_failures;
    block_failures := 0
  in
  let skipped ~seq kind fields =
    line ~seq kind fields;
    t.accepted <- t.accepted - 1;
    t.skipped <- t.skipped + 1
  in
  line ~seq:1 "run.start" [ ("target", String "experiments.all"); ("seed", Int seed); ("shards", Int 16) ];
  for seq = 2 to events - 2 do
    if Random.State.int st 1000 < malformed_per_mille then begin
      clock := !clock + 1_000_000;
      output_string oc (malformed_line st ~seq ~t_ns:!clock);
      output_char oc '\n';
      t.malformed <- t.malformed + 1
    end
    else
      match pick_kind st with
      | Mission ->
          t.missions <- t.missions + 1;
          let mission = 1 + Random.State.int st 400 in
          if Random.State.bool st then
            skipped ~seq "campaign.mission"
              [ ("mission", Int mission); ("outcome", String "failed");
                ("failed_at", Int (1 + Random.State.int st 1046)) ]
          else
            skipped ~seq "campaign.mission"
              [ ("mission", Int mission); ("outcome", String "survived"); ("max_demands", Int 100000) ]
      | Runner ->
          let hist, failures, coincident = runner_run st in
          line ~seq "runner.run"
            [ ("demands", Int run_demands); ("system_failures", Int failures);
              ("coincident_failures", Int coincident);
              ("estimated_pfd", Float (float_of_int failures /. float_of_int run_demands));
              ("rng_draws", Int (2 * run_demands)); ("demand_hist", hist) ];
          t.runs <- t.runs + 1;
          t.run_demands <- t.run_demands + run_demands;
          t.run_failures <- t.run_failures + failures;
          t.run_coincident <- t.run_coincident + coincident;
          t.run_draws <- t.run_draws + (2 * run_demands)
      | Plant ->
          let plant = Random.State.int st plants in
          let true_pfd = float_of_int (fault_cells st) /. float_of_int profile_size in
          let failures = binomial_approx st ~n:run_demands ~p:true_pfd in
          line ~seq "fleet.plant"
            [ ("plant", Int plant); ("demands", Int run_demands); ("failures", Int failures);
              ("true_pfd", Float true_pfd) ];
          t.plant_seen.(plant) <- true;
          t.fleet_demands <- t.fleet_demands + run_demands;
          t.fleet_failures <- t.fleet_failures + failures;
          block_failures := !block_failures + failures
      | Sprt ->
          (* Wald's test of theta0 = 0.002 against theta1 = 0.02, as
             the measured log runs it: most accept after 162 clean
             demands, the rest reject after a few failures. *)
          let accept = Random.State.int st 100 < 71 in
          let demands, failures =
            if accept then (162 + (Random.State.int st 8 * 162), 0)
            else
              let f = 2 + Random.State.int st 7 in
              (f + Random.State.int st 300, f)
          in
          let log_lr =
            (float_of_int failures *. ln_ratio) +. (float_of_int (demands - failures) *. ln_complement)
          in
          line ~seq "sprt.decision"
            [ ("decision", String (if accept then "accept" else "reject")); ("demands", Int demands);
              ("failures", Int failures); ("log_lr", Float log_lr); ("theta0", Float 0.002);
              ("theta1", Float 0.02) ];
          if accept then t.sprt_accepts <- t.sprt_accepts + 1 else t.sprt_rejects <- t.sprt_rejects + 1;
          t.sprt_demands <- t.sprt_demands + demands;
          t.sprt_failures <- t.sprt_failures + failures
      | Montecarlo ->
          t.estimates <- t.estimates + 1;
          let n1 = Random.State.int st 20001 in
          skipped ~seq "montecarlo.estimate"
            [ ("replications", Int 20000); ("shards", Int 16);
              ("p_n1_pos", Float (float_of_int n1 /. 20000.0));
              ("p_n2_pos", Float (float_of_int (Random.State.int st (n1 + 1)) /. 20000.0));
              ("rng_draws", Int ((200000 * (1 + Random.State.int st 20)) + 16)) ]
      | Observe -> observe ~seq
  done;
  observe ~seq:(events - 1);
  line ~seq:events "run.end"
    [ ("target", String "experiments.all"); ("seed", Int seed); ("shards", Int 16);
      ("rng_draws", Int t.run_draws); ("duration_ns", Int (!clock - 8_910_332_852_023)) ];
  t

(* The tally in the shape of the verdict JSON the evidence verb prints:
   each section and key here must read the same there. [declared] is
   not printed by the verb; the in-process check reads it from
   [Assessor.fleet_counts]. *)
let tally_json ~seed t =
  let open Obs.Json in
  let skipped_kinds =
    List.filter (fun (_, n) -> n > 0) [ ("campaign.mission", t.missions); ("montecarlo.estimate", t.estimates) ]
  in
  Obj
    [
      ( "run",
        Obj
          [ ("starts", Int 1); ("ends", Int 1); ("seed", Int seed); ("shards", Int 16);
            ("target", String "experiments.all") ] );
      ( "events",
        Obj
          [ ("accepted", Int t.accepted); ("skipped", Int t.skipped); ("malformed", Int t.malformed);
            ("skipped_kinds", Obj (List.map (fun (k, n) -> (k, Int n)) skipped_kinds)) ] );
      ( "fleet",
        Obj
          [ ("plants", Int (distinct_plants t)); ("demands", Int t.fleet_demands);
            ("failures", Int t.fleet_failures); ("reconciled", Bool true) ] );
      ( "runner",
        Obj
          [ ("runs", Int t.runs); ("demands", Int t.run_demands); ("failures", Int t.run_failures);
            ("coincident", Int t.run_coincident); ("rng_draws", Int t.run_draws) ] );
      ( "sprt",
        Obj
          [ ("accepts", Int t.sprt_accepts); ("rejects", Int t.sprt_rejects); ("undecided", Int 0);
            ("demands", Int t.sprt_demands); ("failures", Int t.sprt_failures) ] );
      ( "declared",
        Obj
          [ ("plants", Int t.declared_plants); ("failures", Int t.declared_failures);
            ("observes", Int t.observes) ] );
    ]
