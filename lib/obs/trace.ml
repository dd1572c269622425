(* Span/instant tracing with pluggable sinks and two clocks.

   Clocks. Wall-clock helpers ([begin_span]/[end_span]/[with_span]/
   [instant]) stamp events with microseconds since the trace was created,
   so a compile phase and the execution it feeds start near t=0. Virtual
   helpers ([complete_v]/[instant_v]) take explicit simulated-seconds
   timestamps from the machine simulator. Both land in the same trace —
   wall events default to process [wall_pid], virtual events to
   [virtual_pid], so a Chrome/Perfetto viewer shows real execution and
   simulated time as two process groups of one file.

   Sinks. [null] (the default everywhere; every emit is a cheap branch),
   an in-memory ring buffer (structured events for tests and post-run
   export), and a streaming Chrome trace-event JSON writer (serializes
   each event as it arrives, for runs too big to retain). *)

type arg =
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type phase = B | E | I | X of float | M

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float; (* microseconds *)
  pid : int;
  tid : int;
  args : (string * arg) list;
}

let wall_pid = 0
let virtual_pid = 1

(* ---------- sinks ---------- *)

type ring = {
  cap : int;
  mutable arr : event array; (* grown by doubling up to [cap] *)
  mutable start : int;
  mutable len : int;
  mutable dropped : int;
}

type stream_state = { buf : Buffer.t; mutable count : int }

type sink = Null | Memory of ring | Stream of stream_state

type t = { sink : sink; mutex : Mutex.t; epoch : float }

let null = { sink = Null; mutex = Mutex.create (); epoch = 0. }

let memory ?(capacity = 1 lsl 20) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.memory: capacity <= 0";
  {
    sink =
      Memory { cap = capacity; arr = [||]; start = 0; len = 0; dropped = 0 };
    mutex = Mutex.create ();
    epoch = Unix.gettimeofday ();
  }

let enabled t = t.sink <> Null

let now_us t = (Unix.gettimeofday () -. t.epoch) *. 1e6

(* ---------- Chrome trace-event serialization ---------- *)

let arg_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let event_json e =
  let ph, extra =
    match e.ph with
    | B -> ("B", [])
    | E -> ("E", [])
    | I -> ("I", [ ("s", Json.Str "t") ])
    | X dur -> ("X", [ ("dur", Json.Float dur) ])
    | M -> ("M", [])
  in
  let args =
    match e.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)) ]
  in
  Json.Obj
    ([
       ("name", Json.Str e.name);
       ("cat", Json.Str (if e.cat = "" then "default" else e.cat));
       ("ph", Json.Str ph);
       ("ts", Json.Float e.ts);
       ("pid", Json.Int e.pid);
       ("tid", Json.Int e.tid);
     ]
    @ extra @ args)

let stream buf =
  Buffer.add_string buf "{\"traceEvents\":[";
  {
    sink = Stream { buf; count = 0 };
    mutex = Mutex.create ();
    epoch = Unix.gettimeofday ();
  }

let finish t =
  match t.sink with
  | Null | Memory _ -> ()
  | Stream s ->
      Mutex.lock t.mutex;
      Buffer.add_string s.buf "],\"displayTimeUnit\":\"ms\"}";
      Mutex.unlock t.mutex

(* ---------- emission ---------- *)

let emit t e =
  match t.sink with
  | Null -> ()
  | Memory r ->
      Mutex.lock t.mutex;
      (* Until the ring first fills, [start] is 0 and events sit in
         [arr.(0 .. len-1)], so growing is one blit. Doubling keeps the
         cost of a short trace proportional to its length rather than to
         [cap]. *)
      if r.len = Array.length r.arr && r.len < r.cap then begin
        let arr = Array.make (min r.cap (max 1024 (2 * r.len))) e in
        Array.blit r.arr 0 arr 0 r.len;
        r.arr <- arr
      end;
      if r.len < r.cap then begin
        r.arr.((r.start + r.len) mod r.cap) <- e;
        r.len <- r.len + 1
      end
      else begin
        (* Ring full: overwrite the oldest event. *)
        r.arr.(r.start) <- e;
        r.start <- (r.start + 1) mod r.cap;
        r.dropped <- r.dropped + 1
      end;
      Mutex.unlock t.mutex
  | Stream s ->
      Mutex.lock t.mutex;
      if s.count > 0 then Buffer.add_char s.buf ',';
      s.count <- s.count + 1;
      Json.to_buffer s.buf (event_json e);
      Mutex.unlock t.mutex

let events t =
  match t.sink with
  | Null | Stream _ -> []
  | Memory r ->
      Mutex.lock t.mutex;
      let out = List.init r.len (fun i -> r.arr.((r.start + i) mod r.cap)) in
      Mutex.unlock t.mutex;
      out

let dropped t =
  match t.sink with Memory r -> r.dropped | Null | Stream _ -> 0

(* ---------- wall-clock helpers ---------- *)

let begin_span t ?(pid = wall_pid) ~tid ?(cat = "") ?(args = []) name =
  if enabled t then
    emit t { name; cat; ph = B; ts = now_us t; pid; tid; args }

let end_span t ?(pid = wall_pid) ~tid ?(args = []) name =
  if enabled t then
    emit t { name; cat = ""; ph = E; ts = now_us t; pid; tid; args }

let complete t ?(pid = wall_pid) ~tid ?(cat = "") ?(args = []) ~ts ~dur name =
  if enabled t then emit t { name; cat; ph = X dur; ts; pid; tid; args }

let with_span t ?pid ~tid ?cat ?(args = []) name f =
  if not (enabled t) then f ()
  else begin
    let t0 = now_us t in
    Fun.protect
      ~finally:(fun () ->
        complete t ?pid ~tid ?cat ~args ~ts:t0 ~dur:(now_us t -. t0) name)
      f
  end

let instant t ?(pid = wall_pid) ~tid ?(cat = "") ?(args = []) name =
  if enabled t then
    emit t { name; cat; ph = I; ts = now_us t; pid; tid; args }

(* ---------- virtual-clock helpers (simulated seconds) ---------- *)

let complete_v t ?(pid = virtual_pid) ~tid ?(cat = "") ?(args = []) ~ts_s
    ~dur_s name =
  if enabled t then
    emit t { name; cat; ph = X (dur_s *. 1e6); ts = ts_s *. 1e6; pid; tid; args }

let instant_v t ?(pid = virtual_pid) ~tid ?(cat = "") ?(args = []) ~ts_s name =
  if enabled t then
    emit t { name; cat; ph = I; ts = ts_s *. 1e6; pid; tid; args }

(* ---------- metadata ---------- *)

let set_process_name t ~pid name =
  if enabled t then
    emit t
      {
        name = "process_name";
        cat = "__metadata";
        ph = M;
        ts = 0.;
        pid;
        tid = 0;
        args = [ ("name", Str name) ];
      }

let set_thread_name t ?(pid = wall_pid) ~tid name =
  if enabled t then
    emit t
      {
        name = "thread_name";
        cat = "__metadata";
        ph = M;
        ts = 0.;
        pid;
        tid;
        args = [ ("name", Str name) ];
      }

(* ---------- export ---------- *)

let to_chrome_json t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map event_json (events t)));
      ("displayTimeUnit", Json.Str "ms");
    ]

let to_chrome_string t = Json.to_string (to_chrome_json t)

let write_chrome_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel oc (to_chrome_json t))
