(* Benchmark driver: input generators, the serve load generator, the
   ingest set-up timer and the traced in-process passes. run.py
   calls it; each subcommand prints one JSON object on stdout.

     pbench info
     pbench serve-gen --workload W --seed S --dir D
     pbench serve-load --workload W --seed S --dir D --socket P --daemon-pid N
                       --workers N --seconds T --trace 0|1 [--spans F] [--corrupt]
     pbench ingest-gen --seed S --events N --dir D
     pbench ingest-setup --dir D --count N
     pbench ingest-trace --dir D --seconds T --verdict-out F [--spans F]
     pbench reproduce-trace --seed S --out F [--spans F] *)

let args = Array.to_list Sys.argv |> List.tl

let opt name =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (List.tl args)

let req name = match opt name with Some v -> v | None -> failwith ("missing --" ^ name)
let flag name = List.mem ("--" ^ name) args
let int name = int_of_string (req name)
let float name = float_of_string (req name)
let traced () = opt "trace" = Some "1"

let print_json fields = print_endline (Obs.Json.render (Obs.Json.Obj fields))
let num f = Obs.Json.Float f
let int_j n = Obs.Json.Int n

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc = match Obs.Runlog.input_line_opt ic with Some l -> go (l :: acc) | None -> List.rev acc in
      Array.of_list (go []))

let write_lines path lines =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> Array.iter (fun l -> output_string oc l; output_char oc '\n') lines)

let write_spans sp = Option.iter (Span.write sp) (opt "spans")
let span_capacity = 1 lsl 19

let info () =
  print_json
    [
      ("recommended_domain_count", int_j (Domain.recommended_domain_count ()));
      ("auto_domains", int_j (Exec.Pool.auto_domains ()));
      ("ocaml_version", Obs.Json.String Sys.ocaml_version);
      ("word_size", int_j Sys.word_size);
      ("os_type", Obs.Json.String Sys.os_type);
    ]

(* ------------------------------------------------------------------ *)
(* Serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_gen () =
  let seed = int "seed" and dir = req "dir" in
  let requests = Gen.serve_requests ~workload:(req "workload") ~seed in
  let expected = Array.map (Serve.Engine.eval ~seed) requests in
  Array.iter
    (fun e ->
      match Serve.Proto.parse_response e with
      | Ok { Serve.Proto.resp_ok = true; _ } -> ()
      | _ -> failwith ("generated request is not answerable: " ^ e))
    expected;
  write_lines (Filename.concat dir "requests.jsonl") (Array.map Serve.Proto.render_request requests);
  write_lines (Filename.concat dir "expected.jsonl") expected;
  print_json [ ("requests", int_j (Array.length requests)) ]

let load_pool ~seed dir =
  let requests =
    Array.map
      (fun line ->
        match Serve.Proto.parse_line line with
        | Ok (Serve.Proto.Work r) -> r
        | _ -> failwith ("bad request line: " ^ line))
      (read_lines (Filename.concat dir "requests.jsonl"))
  in
  Serve_load.make_pool ~seed requests (read_lines (Filename.concat dir "expected.jsonl"))

(* Latency percentiles as medians over consecutive chunks of at least
   1000 replies each (up to ten): every chunk's p99 has ten or more
   samples beyond it, and one stall of the shared host moves one chunk,
   not the run's figure. *)
let outcome_fields (o : Serve_load.outcome) =
  let lat = Span.contents o.Serve_load.lat in
  let n = Array.length lat in
  let k = max 1 (min 10 (n / 1000)) in
  let chunks = List.init k (fun i -> Array.sub lat (i * n / k) (((i + 1) * n / k) - (i * n / k))) in
  let pct q = Span.median (List.map (fun c -> Span.percentile_us c q) chunks) in
  [
    ("rps", num (Serve_load.rps o));
    ("p50_us", num (pct 0.50));
    ("p99_us", num (pct 0.99));
    ("samples", int_j n);
    ("chunks", int_j k);
    ("elapsed_s", num (float_of_int o.Serve_load.elapsed_ns /. 1e9));
  ]

let serve_load () =
  let workload = req "workload" and seed = int "seed" and seconds = float "seconds" in
  let shape = Gen.serve_shape workload in
  let pool = load_pool ~seed (req "dir") in
  let socket = req "socket" in
  let cpu = Serve_load.process_cpu_ns (int "daemon-pid") in
  let loop ?spans ?windows ~seconds ~first_seq () =
    Serve_load.closed_loop ?spans ?windows ~cpu ~corrupt:(flag "corrupt") ~socket
      ~conns:shape.Gen.conns ~window:shape.Gen.window ~seconds pool ~first_seq
  in
  (* Warm-up, checked but not timed: the daemon's heap and the page
     cache settle before measuring. *)
  let warm, next = loop ~seconds:(Float.min 1.0 (0.1 *. seconds)) ~first_seq:0 () in
  if not (traced ()) then begin
    let o, _ = loop ~windows:10 ~seconds ~first_seq:next () in
    let rates = Serve_load.window_rates o in
    print_json
      ([
         ("attempted", int_j (warm.Serve_load.attempted + o.Serve_load.attempted));
         ("failed", int_j (warm.Serve_load.failed + o.Serve_load.failed));
         ("window_rps", Obs.Json.List (List.map (fun (r, _) -> num r) rates));
         ("window_cpu_us", Obs.Json.List (List.map (fun (_, c) -> num c) rates));
       ]
      @ outcome_fields o)
  end
  else begin
    (* Untraced and traced closed loops of the same shape give the
       tracing overhead. They alternate, so drift over the run falls on
       both sides of the ratio. Then the per-layer calls and the
       dispatcher batches. *)
    let l = Span.traced span_capacity in
    let sp = l.Span.sp in
    let rounds = ref [] and next = ref next in
    for _ = 1 to 2 do
      let u, n = loop ~seconds:(0.175 *. seconds) ~first_seq:!next () in
      let t, n = loop ~spans:sp ~seconds:(0.175 *. seconds) ~first_seq:n () in
      rounds := (u, t) :: !rounds;
      next := n
    done;
    let untraced = Serve_load.merge (List.map fst !rounds)
    and traced = Serve_load.merge (List.map snd !rounds) in
    let next = !next in
    let c = Serve_load.connect socket in
    let inline = Exec.Pool.create ~domains:1 () in
    let deadline = Span.now () + int_of_float (0.2 *. seconds *. 1e9) in
    let seq = ref next and layered = ref 0 in
    while !layered < 20 || (Span.now () < deadline && !layered < 4000) do
      Serve_load.traced_request l c pool ~inline ~seq:!seq;
      incr seq;
      incr layered
    done;
    Exec.Pool.shutdown inline;
    Unix.close c.Serve_load.fd;
    let batched_to =
      Serve_load.dispatcher_batches l pool ~workers:(int "workers") ~batch:shape.Gen.batch
        ~seconds:(0.1 *. seconds) ~first_seq:!seq
    in
    write_spans sp;
    let attempted =
      warm.Serve_load.attempted + untraced.Serve_load.attempted + traced.Serve_load.attempted
      + !layered + (batched_to - !seq)
    in
    let failed =
      warm.Serve_load.failed + untraced.Serve_load.failed + traced.Serve_load.failed
      + l.Span.layer_failed
    in
    print_json
      ([
         ("attempted", int_j attempted);
         ("failed", int_j failed);
         ("traced_rps", num (Serve_load.rps traced));
         ("spans", int_j sp.Span.len);
         ("spans_dropped", int_j sp.Span.dropped);
         ("layers", Obs.Json.Obj (List.map (fun (k, v) -> (k, num v)) (Serve_load.layer_metrics l)));
       ]
      @ outcome_fields untraced)
  end

(* ------------------------------------------------------------------ *)
(* Ingest                                                              *)
(* ------------------------------------------------------------------ *)

let ingest_gen () =
  let dir = req "dir" and seed = int "seed" in
  let oc = open_out_bin (Filename.concat dir "run.jsonl") in
  let tally =
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> Gen.ingest_log ~seed ~events:(int "events") oc)
  in
  write_lines (Filename.concat dir "tally.json") [| Obs.Json.render (Gen.tally_json ~seed tally) |];
  print_json [ ("events", int_j (int "events")) ]

(* Set-up samples: source open and assessor create until the first
   event is ingested. *)
let ingest_setup () =
  let log = Filename.concat (req "dir") "run.jsonl" in
  print_json
    [ ("setup_ns", Obs.Json.List (List.init (int "count") (fun _ -> int_j (Ingest_run.setup_ns log)))) ]

(* Traced passes for --seconds; the last pass's verdict goes to
   --verdict-out, for run.py to compare with the evidence verb's. *)
let ingest_trace () =
  let dir = req "dir" and seconds = float "seconds" in
  let log = Filename.concat dir "run.jsonl" in
  let tally =
    match Obs.Json.parse (read_lines (Filename.concat dir "tally.json")).(0) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let l = Span.traced span_capacity in
  let sp = l.Span.sp in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let rec go acc last =
    if acc <> [] && Span.now () >= deadline then (List.rev acc, last)
    else
      let p, a = Ingest_run.traced_pass l ~sample:4 log tally in
      go (p :: acc) (Some a)
  in
  let passes, last = go [] None in
  write_spans sp;
  let lines = List.fold_left (fun n p -> n + p.Ingest_run.lines) 0 passes in
  let ns = List.fold_left (fun n p -> n + p.Ingest_run.ns) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.Ingest_run.failed) 0 passes in
  let first = List.hd passes in
  let drift = List.length (List.filter (fun p -> p.Ingest_run.verdict <> first.Ingest_run.verdict) passes) in
  write_lines (req "verdict-out") [| first.Ingest_run.verdict |];
  print_json
    [
      ("attempted", int_j lines);
      ("failed", int_j (failed + drift));
      ("traced_events_per_s", num (float_of_int lines /. (float_of_int ns /. 1e9)));
      ("spans", int_j sp.Span.len);
      ("spans_dropped", int_j sp.Span.dropped);
      ( "layers",
        Obs.Json.Obj
          (List.map (fun (k, v) -> (k, num v))
             (Ingest_run.layer_metrics l (Option.get last) ~bytes:(Unix.stat log).Unix.st_size
                ~lines:first.Ingest_run.lines)) );
    ]

(* ------------------------------------------------------------------ *)
(* Reproduce, traced in-process                                        *)
(* ------------------------------------------------------------------ *)

let reproduce_trace () =
  let seed = int "seed" in
  let sp = Span.create 256 in
  let domains = Exec.Pool.size (Exec.Pool.default ()) in
  let g0 = Gc.quick_stat () in
  let t0 = Span.now () in
  let root = Span.enter sp ~req:seed "experiments.all" in
  let sections =
    List.map
      (fun e ->
        let id = e.Experiments.Experiment.id in
        let i = Span.enter sp ~parent:root ~req:seed ("experiments." ^ id) in
        let text = Experiments.Experiment.render ~seed e in
        Span.leave sp i;
        (id, float_of_int (Span.duration sp i) /. 1e9, text))
      Experiments.Registry.all
  in
  Span.leave sp root;
  let wall = float_of_int (Span.now () - t0) /. 1e9 in
  let g1 = Gc.quick_stat () in
  let oc = open_out_bin (req "out") in
  List.iter (fun (_, _, text) -> output_string oc text) sections;
  close_out oc;
  write_spans sp;
  print_json
    [
      ("wall_s", num wall);
      ( "layers",
        Obs.Json.Obj
          (List.map (fun (id, s, _) -> ("experiments." ^ id ^ "_s", num s)) sections
          @ [
              ("gc.minor_collections", num (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)));
              ("gc.major_collections", num (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)));
              ("gc.minor_words", num (g1.Gc.minor_words -. g0.Gc.minor_words));
              ("exec.pool.domains", num (float_of_int domains));
            ]) );
    ]

let () =
  match args with
  | "info" :: _ -> info ()
  | "serve-gen" :: _ -> serve_gen ()
  | "serve-load" :: _ -> serve_load ()
  | "ingest-gen" :: _ -> ingest_gen ()
  | "ingest-setup" :: _ -> ingest_setup ()
  | "ingest-trace" :: _ -> ingest_trace ()
  | "reproduce-trace" :: _ -> reproduce_trace ()
  | _ ->
      prerr_endline "usage: pbench (info|serve-gen|serve-load|ingest-gen|ingest-setup|ingest-trace|reproduce-trace) ...";
      exit 2
