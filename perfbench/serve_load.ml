(* Closed-loop load generator for the serve workloads, plus the traced
   run's per-layer timings.

   One process, one thread: each connection keeps [window] requests in
   flight and sends its next request only when a reply arrives. Request
   bodies cycle through a seeded pool; every request carries a fresh id
   ("r<seq>"), and since the id is the first field of both the request
   and the reply, the expected reply for any id is the pool entry's
   expected reply (computed untimed with [Serve.Engine.eval]) with its id
   swapped. Every reply is compared byte for byte. *)

type pool = {
  req_tail : string array;  (* request line after its id field *)
  exp_tail : string array;  (* expected reply after its id field *)
  requests : Serve.Proto.request array;
  seed : int;
}

let id_prefix id = Printf.sprintf {|{"id":"%s"|} id

let tail_after ~id line =
  let p = id_prefix id in
  let n = String.length p in
  if String.length line < n || String.sub line 0 n <> p then
    failwith (Printf.sprintf "line does not start with id %S: %s" id line);
  String.sub line n (String.length line - n)

let make_pool ~seed requests expected =
  {
    req_tail =
      Array.map (fun r -> tail_after ~id:r.Serve.Proto.id (Serve.Proto.render_request r)) requests;
    exp_tail = Array.mapi (fun i e -> tail_after ~id:requests.(i).Serve.Proto.id e) expected;
    requests;
    seed;
  }

let slot pool seq = seq mod Array.length pool.req_tail
let seq_id seq = "r" ^ string_of_int seq
let request_line pool seq = id_prefix (seq_id seq) ^ pool.req_tail.(slot pool seq)
let expected_line pool seq = id_prefix (seq_id seq) ^ pool.exp_tail.(slot pool seq)

(* The sequence number in a reply's id, or -1 when it carries none. *)
let reply_seq line =
  let pre = {|{"id":"r|} in
  let n = String.length pre in
  if String.length line <= n || String.sub line 0 n <> pre then -1
  else
    let rec digits i acc =
      if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
        digits (i + 1) ((acc * 10) + Char.code line.[i] - 48)
      else if i < String.length line && line.[i] = '"' && i > n then acc
      else -1
    in
    digits n 0

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable inflight : int;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; buf = Bytes.create 65536; lo = 0; hi = 0; inflight = 0 }

let write_all fd s =
  let len = String.length s in
  let rec go ofs = if ofs < len then go (ofs + Unix.write_substring fd s ofs (len - ofs)) in
  go 0

let send c line = write_all c.fd (line ^ "\n")

(* Read once into the buffer; false at end of stream. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.buf c.lo c.buf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.buf then begin
    let b = Bytes.create (2 * c.hi) in
    Bytes.blit c.buf 0 b 0 c.hi;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf c.hi (Bytes.length c.buf - c.hi) with
  | 0 -> false
  | n ->
      c.hi <- c.hi + n;
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* A complete buffered line, without blocking. *)
let take_line c =
  let rec find i = if i >= c.hi then -1 else if Bytes.get c.buf i = '\n' then i else find (i + 1) in
  let i = find c.lo in
  if i < 0 then None
  else begin
    let s = Bytes.sub_string c.buf c.lo (i - c.lo) in
    c.lo <- i + 1;
    Some s
  end

(* Seconds to wait for a reply before the ones still in flight count
   as missing. *)
let reply_timeout = 5.0

let readable fds = match Unix.select fds [] [] reply_timeout with r, _, _ -> r

(* The next line; None at end of stream or when none comes within
   [reply_timeout]. *)
let rec recv_line c =
  match take_line c with
  | Some l -> Some l
  | None -> if readable [ c.fd ] <> [] && fill c then recv_line c else None

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable ok : int;
  mutable failed : int;
  lat : Span.ints;  (* send-to-reply, ns, correct replies only *)
  mutable elapsed_ns : int;
  (* At each window boundary (the first reply past it): time, correct
     replies so far, daemon CPU ns so far. *)
  mark_ns : Span.ints;
  marks : Span.ints;
  cpu_marks : Span.ints;
}

let outcome () =
  {
    attempted = 0;
    ok = 0;
    failed = 0;
    lat = Span.ints ();
    elapsed_ns = 0;
    mark_ns = Span.ints ();
    marks = Span.ints ();
    cpu_marks = Span.ints ();
  }

(* CPU time of every thread of a process, in ns (schedstat's first
   field), so that the daemon's pool domains count too. *)
let process_cpu_ns pid () =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match open_in (Filename.concat (Filename.concat dir tid) "schedstat") with
      | ic ->
          let v = try Scanf.sscanf (input_line ic) "%d" Fun.id with _ -> 0 in
          close_in ic;
          acc + v
      | exception Sys_error _ -> acc)
    0 (Sys.readdir dir)

let ring = 1024 (* far above the most requests ever in flight *)

(* [corrupt] flips one byte of the tenth reply before it is checked:
   the checker self-test. [spans] records one client.round_trip span
   per request. The run is cut into [windows] equal windows; at each
   boundary the correct-reply count and the daemon's CPU time ([cpu])
   are marked. *)
let closed_loop ?spans ?(corrupt = false) ?(windows = 1) ?(cpu = fun () -> 0) ~socket ~conns
    ~window ~seconds pool ~first_seq =
  let cs = Array.init conns (fun _ -> connect socket) in
  let sent_at = Array.make ring 0 and span_at = Array.make ring (-1) in
  (* Whether the request in each ring slot has had its reply: a second
     reply for the same request is a failure, not another success. *)
  let answered = Array.make ring true in
  let o = outcome () in
  let next = ref first_seq and received = ref 0 in
  let start = Span.now () in
  let span_ns = int_of_float (seconds *. 1e9) in
  let deadline = start + span_ns in
  let mark () =
    Span.push o.mark_ns (Span.now ());
    Span.push o.marks o.ok;
    Span.push o.cpu_marks (cpu ())
  in
  let boundary k = start + (span_ns * k / windows) in
  mark ();
  let send_next c =
    let seq = !next in
    incr next;
    let k = seq land (ring - 1) in
    span_at.(k) <-
      (match spans with Some sp -> Span.enter sp ~req:seq "client.round_trip" | None -> -1);
    answered.(k) <- false;
    sent_at.(k) <- Span.now ();
    send c (request_line pool seq);
    c.inflight <- c.inflight + 1;
    o.attempted <- o.attempted + 1
  in
  let handle c line =
    let t = Span.now () in
    incr received;
    let line =
      if corrupt && !received = 10 then String.mapi (fun i ch -> if i = 20 then '#' else ch) line
      else line
    in
    let seq = reply_seq line in
    let k = seq land (ring - 1) in
    if seq < first_seq || seq >= !next || answered.(k) then
      (* Foreign, unknown or duplicate id: no request is settled, so
         none is sent in its place. *)
      o.failed <- o.failed + 1
    else begin
      answered.(k) <- true;
      c.inflight <- c.inflight - 1;
      if String.equal line (expected_line pool seq) then begin
        Option.iter (fun sp -> Span.leave sp span_at.(k)) spans;
        o.ok <- o.ok + 1;
        Span.push o.lat (t - sent_at.(k))
      end
      else o.failed <- o.failed + 1;
      while o.marks.Span.n <= windows && t >= boundary o.marks.Span.n do
        mark ()
      done;
      if t < deadline then send_next c
    end
  in
  Array.iter (fun c -> for _ = 1 to window do send_next c done) cs;
  let busy () = Array.exists (fun c -> c.inflight > 0) cs in
  (try
     while busy () do
       if conns = 1 then
         match recv_line cs.(0) with
         | Some line -> handle cs.(0) line
         | None -> raise Exit
       else begin
         let fds = Array.to_list cs |> List.filter (fun c -> c.inflight > 0) |> List.map (fun c -> c.fd) in
         let readable = readable fds in
         if readable = [] then raise Exit;
         Array.iter
           (fun c ->
             if List.mem c.fd readable then begin
               if not (fill c) then raise Exit;
               let rec drain () =
                 match take_line c with
                 | Some line ->
                     handle c line;
                     drain ()
                 | None -> ()
               in
               drain ()
             end)
           cs
       end
     done
   with Exit -> ());
  (* A reply that never came (none within [reply_timeout], or the
     connection closed) is a failed request. *)
  Array.iter (fun c -> o.failed <- o.failed + c.inflight) cs;
  o.elapsed_ns <- Span.now () - start;
  Array.iter (fun c -> Unix.close c.fd) cs;
  (o, !next)

let rps o = float_of_int o.ok /. (float_of_int o.elapsed_ns /. 1e9)

(* Per window: correct replies per second and daemon CPU per reply. *)
let window_rates o =
  let d (b : Span.ints) k = b.Span.data.(k + 1) - b.Span.data.(k) in
  List.init (o.marks.Span.n - 1) (fun k ->
      let ok = float_of_int (d o.marks k) in
      (ok /. (float_of_int (d o.mark_ns k) /. 1e9), float_of_int (d o.cpu_marks k) /. 1e3 /. Float.max 1.0 ok))

let merge os =
  let m = outcome () in
  List.iter
    (fun o ->
      m.attempted <- m.attempted + o.attempted;
      m.ok <- m.ok + o.ok;
      m.failed <- m.failed + o.failed;
      m.elapsed_ns <- m.elapsed_ns + o.elapsed_ns;
      Array.iter (Span.push m.lat) (Span.contents o.lat))
    os;
  m

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer calls on the same requests                    *)
(* ------------------------------------------------------------------ *)

let opaque x = ignore (Sys.opaque_identity x)

(* The verb's arithmetic, called directly (what [Serve.Engine.eval]
   computes before rendering). *)
let arithmetic sp ~parent ~seq ~seed ~inline (r : Serve.Proto.request) =
  let u = Core.Universe.of_arrays ~p:r.Serve.Proto.u.Serve.Proto.ps ~q:r.Serve.Proto.u.Serve.Proto.qs in
  let span name f = Span.span sp ~parent ~req:seq name f in
  match r.Serve.Proto.verb with
  | Serve.Proto.Moments ->
      span "core.moments" (fun () ->
          opaque (Core.Moments.compute u);
          opaque (Core.Moments.mean_gain u);
          opaque (Core.Moments.expected_fault_count u);
          opaque (Core.Moments.expected_common_fault_count u))
  | Serve.Proto.Risk_ratio { channels; required } ->
      span "core.voting" (fun () ->
          let arch = Core.Voting.create ~channels ~required in
          opaque (Core.Voting.mu arch u);
          opaque (Core.Voting.sigma arch u);
          opaque (Core.Voting.p_some_system_fault arch u);
          opaque (Core.Voting.risk_ratio_vs_single arch u))
  | Serve.Proto.Pfd_dist { channels; required; bins } ->
      let probs =
        span "core.voting" (fun () ->
            Core.Voting.system_fault_probs (Core.Voting.create ~channels ~required) u)
      in
      let values = Core.Universe.qs u in
      span "core.pfd_dist" (fun () ->
          let d =
            if bins = 0 then Core.Pfd_dist.exact_of_vectors ~pool:inline ~shards:1 ~probs ~values ()
            else Core.Pfd_dist.grid_of_vectors ~pool:inline ~shards:1 ~probs ~values ~bins ()
          in
          opaque (Core.Pfd_dist.mean d, Core.Pfd_dist.variance d, Core.Pfd_dist.std d);
          opaque (Core.Pfd_dist.prob_positive d);
          List.iter (fun q -> opaque (Core.Pfd_dist.quantile d q)) [ 0.5; 0.9; 0.99 ])
  | Serve.Proto.Fleet_mission { plants; demands_per_plant; mission_demands; salt; shards; space } ->
      span "simulator.fleet" (fun () ->
          (* The engine's demand space: contiguous regions of
             round(q * space) cells, laid end to end. *)
          let offset = ref 0 in
          let faults =
            Array.mapi
              (fun i q ->
                let cells = max 1 (int_of_float (Float.round (q *. float_of_int space))) in
                let region =
                  Demandspace.Region.interval ~space_size:space ~lo:!offset ~hi:(!offset + cells - 1)
                in
                offset := !offset + cells;
                (region, r.Serve.Proto.u.Serve.Proto.ps.(i)))
              r.Serve.Proto.u.Serve.Proto.qs
          in
          let demand_space =
            Demandspace.Space.create ~profile:(Demandspace.Profile.uniform ~size:space) ~faults
          in
          let rng = Numerics.Rng.split (Numerics.Rng.create ~seed) ~index:salt in
          let systems = Simulator.Fleet.deploy_pairs ~pool:inline ~shards rng demand_space ~plants in
          let fleet = Simulator.Fleet.observe ~pool:inline ~shards rng systems ~demands_per_plant in
          let pooled = Simulator.Fleet.pooled_rate fleet in
          opaque (Simulator.Fleet.dispersion fleet);
          opaque (Simulator.Fleet.estimate_pfd_moments fleet);
          opaque (Simulator.Campaign.mission_survival_probability ~pfd:pooled ~mission_demands))

(* One request through every layer, each call in its own span under a
   per-request root. server.loop (socket, select and framing self time)
   is the round trip minus the daemon's parse and eval. *)
let traced_request (l : Span.traced) c pool ~inline ~seq =
  let sp = l.Span.sp and s = l.Span.samples in
  let line = request_line pool seq and expected = expected_line pool seq in
  let root = Span.enter sp ~req:seq "request" in
  let span name f = Span.span sp ~parent:root ~req:seq name f in
  let check ok = if not ok then l.Span.layer_failed <- l.Span.layer_failed + 1 in
  opaque (span "obs.json.parse" (fun () -> Span.alloc s "obs.json.parse_alloc_w" (fun () -> Obs.Json.parse line)));
  let t0 = Span.now () in
  let parsed = span "proto.parse_line" (fun () -> Span.alloc s "proto.parse_line_alloc_w" (fun () -> Serve.Proto.parse_line line)) in
  let t1 = Span.now () in
  match parsed with
  | Ok (Serve.Proto.Work r) ->
      let local = span "engine.eval" (fun () -> Span.alloc s "engine.eval_alloc_w" (fun () -> Serve.Engine.eval ~seed:pool.seed r)) in
      let t2 = Span.now () in
      check (String.equal local expected);
      let reply = span "client.round_trip" (fun () -> send c line; recv_line c) in
      let t3 = Span.now () in
      Span.add s "server.loop_us" (float_of_int ((t3 - t2) - (t1 - t0) - (t2 - t1)) /. 1000.0);
      (match reply with
      | Some reply when String.equal reply expected -> (
          match span "proto.parse_response" (fun () -> Serve.Proto.parse_response reply) with
          | Ok { Serve.Proto.resp_body = Some body; resp_draws = Some draws; resp_verb = Some verb; _ } ->
              opaque (span "obs.json.render" (fun () -> Span.alloc s "obs.json.render_alloc_w" (fun () -> Obs.Json.render body)));
              let again =
                span "proto.ok_line" (fun () ->
                    Span.alloc s "proto.ok_line_alloc_w" (fun () ->
                        Serve.Proto.ok_line ~id:(seq_id seq) ~verb ~seed:pool.seed ~draws ~body))
              in
              check (String.equal again reply)
          | _ -> check false)
      | _ -> check false);
      arithmetic sp ~parent:root ~seq ~seed:pool.seed ~inline r;
      span "exec.pool.create_shutdown" (fun () -> Exec.Pool.shutdown (Exec.Pool.create ~domains:1 ()));
      Span.leave sp root
  | _ ->
      check false;
      Span.leave sp root

(* Dispatcher batches evaluated in-process, as the daemon's loop would:
   speedup is the summed per-request eval time over the batch's wall
   time. *)
let dispatcher_batches (l : Span.traced) pool ~workers ~batch ~seconds ~first_seq =
  let ep = Exec.Pool.create ~domains:workers () in
  let disp = Serve.Dispatcher.create ~pool:ep ~seed:pool.seed in
  let deadline = Span.now () + int_of_float (seconds *. 1e9) in
  let seq = ref first_seq and rounds = ref 0 in
  while !rounds < 3 || (Span.now () < deadline && !rounds < 2000) do
    let reqs =
      Array.init batch (fun i ->
          let r = pool.requests.(slot pool (!seq + i)) in
          { r with Serve.Proto.id = seq_id (!seq + i) })
    in
    let t0 = Span.now () in
    let results = Span.span l.sp ~req:!seq "dispatcher.run_batch" (fun () -> Serve.Dispatcher.run_batch disp reqs) in
    let wall = Span.now () - t0 in
    let evals = Array.fold_left (fun acc r -> acc + Int64.to_int r.Serve.Dispatcher.elapsed_ns) 0 results in
    Span.add l.samples "dispatcher.speedup" (float_of_int evals /. float_of_int (max 1 wall));
    Array.iteri
      (fun i r -> if not (String.equal r.Serve.Dispatcher.line (expected_line pool (!seq + i))) then l.layer_failed <- l.layer_failed + 1)
      results;
    seq := !seq + batch;
    incr rounds
  done;
  Exec.Pool.shutdown ep;
  !seq

let layer_metrics (l : Span.traced) =
  let self = Span.self_times l.sp in
  let us name = Span.median (Option.value ~default:[] (Hashtbl.find_opt self name)) /. 1000.0 in
  let m = Span.sample_median l.samples in
  List.map (fun name -> (name ^ "_us", us name))
    [
      "obs.json.parse"; "proto.parse_line"; "engine.eval"; "exec.pool.create_shutdown";
      "obs.json.render"; "proto.ok_line"; "client.round_trip"; "core.moments"; "core.voting";
      "core.pfd_dist"; "simulator.fleet"; "dispatcher.run_batch";
    ]
  @ List.map (fun name -> (name, m name))
      [
        "obs.json.parse_alloc_w"; "proto.parse_line_alloc_w"; "engine.eval_alloc_w";
        "obs.json.render_alloc_w"; "proto.ok_line_alloc_w"; "server.loop_us"; "dispatcher.speedup";
      ]
