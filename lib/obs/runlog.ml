(* Structured JSONL run log.

   A run log is a sequence of JSON objects; instrumented code appends
   through the optional global sink, so with no sink installed (the
   default) [record] is one branch. Call sites that must build a field
   list should guard with [active] so the list is never allocated on the
   disabled path. Each event carries the event kind, a sequence number
   and a monotonic timestamp.

   Two sink shapes exist. [create ()] retains events in memory; the
   caller serialises with [to_jsonl] / [output_jsonl] and writes the
   file itself. [create_streaming oc] renders each event to [oc] as it
   is recorded and retains nothing, so a million-event operational
   history costs O(1) memory to produce — the in-memory accessors
   ([events], [to_jsonl]) are meaningless there and raise.

   Domain safety: appends are serialised by a per-log mutex (taken only
   when a sink is installed, so the disabled path stays lock-free).
   Deterministic event *order* under parallelism is the caller's job:
   lib/exec call sites collect per-shard outcomes and record them in
   shard order at join rather than logging from worker domains. *)

type mode = In_memory | Streaming of out_channel

type t = {
  lock : Mutex.t;
  mode : mode;
  mutable events_rev : Json.t list;
  mutable count : int;
}

let create () =
  { lock = Mutex.create (); mode = In_memory; events_rev = []; count = 0 }

let create_streaming oc =
  { lock = Mutex.create (); mode = Streaming oc; events_rev = []; count = 0 }

let global : t option ref = ref None

let set_sink s = global := s
let active () = match !global with Some _ -> true | None -> false

(* Must be called with [t.lock] held. *)
let append_locked t ~kind fields =
  t.count <- t.count + 1;
  let event =
    Json.Obj
      (("event", Json.String kind)
      :: ("seq", Json.Int t.count)
      :: ("t_ns", Json.Int (Int64.to_int (Clock.now_ns ())))
      :: fields)
  in
  match t.mode with
  | In_memory -> t.events_rev <- event :: t.events_rev
  | Streaming oc ->
      output_string oc (Json.render event);
      output_char oc '\n'

let record ~kind fields =
  match !global with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      append_locked t ~kind fields;
      Mutex.unlock t.lock

let record_all ~kind batch =
  match !global with
  | None -> ()
  | Some t ->
      Mutex.lock t.lock;
      List.iter (fun fields -> append_locked t ~kind fields) batch;
      Mutex.unlock t.lock

let size t = t.count

let require_in_memory what t =
  match t.mode with
  | In_memory -> ()
  | Streaming _ ->
      invalid_arg
        ("Runlog." ^ what ^ ": streaming log retains no events (already \
          written to its channel)")

let events t =
  require_in_memory "events" t;
  List.rev t.events_rev

let to_jsonl t =
  require_in_memory "to_jsonl" t;
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Json.render e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

let output_jsonl t oc =
  require_in_memory "output_jsonl" t;
  List.iter
    (fun e ->
      output_string oc (Json.render e);
      output_char oc '\n')
    (events t)

let input_line_opt ic = try Some (input_line ic) with End_of_file -> None
