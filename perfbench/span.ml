(* The traced run's own span buffer and per-call sample store.

   A span is (name, start, end, parent span, request id), kept in
   preallocated int arrays so recording one costs two clock reads and a
   few stores. The buffer is written out when the run ends; a layer's
   self time is its span's duration minus the part its child spans
   cover. Spans are recorded from this directory's code around calls
   into each module's public functions: the program's own Obs.Trace and
   Obs.Metrics stay disabled. *)

let now () = Int64.to_int (Obs.Clock.now_ns ())

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  req : int array;
  mutable len : int;
  mutable dropped : int;
}

let create capacity =
  {
    ids = Hashtbl.create 32;
    names = [||];
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity (-1);
    parent = Array.make capacity (-1);
    req = Array.make capacity (-1);
    len = 0;
    dropped = 0;
  }

let intern t name =
  match Hashtbl.find_opt t.ids name with
  | Some id -> id
  | None ->
      let id = Array.length t.names in
      Hashtbl.add t.ids name id;
      t.names <- Array.append t.names [| name |];
      id

(* [enter] returns the span's slot, or -1 once the buffer is full (the
   span is then counted as dropped, never recorded half). *)
let enter t ?(parent = -1) ~req name =
  if t.len >= Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.len in
    t.name.(i) <- intern t name;
    t.parent.(i) <- parent;
    t.req.(i) <- req;
    t.len <- i + 1;
    t.start.(i) <- now ();
    i
  end

let leave t i = if i >= 0 then t.stop.(i) <- now ()

let span t ?parent ~req name f =
  let i = enter t ?parent ~req name in
  let r = f () in
  leave t i;
  r

let duration t i = t.stop.(i) - t.start.(i)

(* Self time of every closed span, grouped by name. Children of one
   parent run one after another, so their clipped durations add up to
   the covered part of the parent's interval. *)
let self_times t =
  let covered = Array.make t.len 0 in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 && t.stop.(i) >= 0 && t.stop.(p) >= 0 then
      covered.(p) <-
        covered.(p)
        + max 0 (min t.stop.(i) t.stop.(p) - max t.start.(i) t.start.(p))
  done;
  let by_name = Hashtbl.create 32 in
  for i = t.len - 1 downto 0 do
    if t.stop.(i) >= 0 then begin
      let name = t.names.(t.name.(i)) in
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_name name) in
      Hashtbl.replace by_name name (float_of_int (duration t i - covered.(i)) :: prev)
    end
  done;
  by_name

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "name\tstart_ns\tend_ns\tparent\treq\n";
      for i = 0 to t.len - 1 do
        Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" t.names.(t.name.(i))
          t.start.(i) t.stop.(i) t.parent.(i) t.req.(i)
      done)

(* ------------------------------------------------------------------ *)
(* Samples: per-call values that are not durations (allocated words,   *)
(* derived per-request differences).                                   *)
(* ------------------------------------------------------------------ *)

type samples = (string, float list ref) Hashtbl.t

let samples () : samples = Hashtbl.create 32

(* A traced run: its spans, its samples, and the layer calls whose
   result did not match the expected bytes. *)
type traced = { sp : t; samples : samples; mutable layer_failed : int }

let traced capacity = { sp = create capacity; samples = samples (); layer_failed = 0 }

let add (s : samples) name v =
  match Hashtbl.find_opt s name with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add s name (ref [ v ])

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let sample_median (s : samples) name =
  match Hashtbl.find_opt s name with Some r -> median !r | None -> 0.0

let sample_mean (s : samples) name = match Hashtbl.find_opt s name with Some r -> mean !r | None -> 0.0

(* [alloc s name f] runs [f], adding its minor-heap words to [s]. *)
let alloc s name f =
  let w0 = Gc.minor_words () in
  let r = f () in
  add s name (Gc.minor_words () -. w0);
  r

(* Nearest-rank percentile of an int array of nanoseconds, in
   microseconds; sorts a copy. *)
let percentile_us (xs : int array) q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1))) /. 1000.0
  end

(* Growable int buffer for latency samples. *)
type ints = { mutable data : int array; mutable n : int }

let ints () = { data = Array.make 4096 0; n = 0 }

let push b v =
  if b.n = Array.length b.data then begin
    let d = Array.make (2 * b.n) 0 in
    Array.blit b.data 0 d 0 b.n;
    b.data <- d
  end;
  b.data.(b.n) <- v;
  b.n <- b.n + 1

let contents b = Array.sub b.data 0 b.n
