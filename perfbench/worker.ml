(* Benchmark worker: one backend run of one workload, in a process of its
   own. run.py starts one worker per measured run, so that it can bound
   every run with a deadline and kill a wedged one together with the ranks
   it forked, and so that the fork-based backend never shares a process
   with OCaml domains ([Unix.fork] is refused once a domain exists).

   Usage:
     worker.exe sample WORKLOAD BACKEND STEPS SEED TRACE
     worker.exe check WORKLOAD SEED BACKEND=STEPS...

   [sample] builds the workload's program at STEPS timesteps, compiles it
   for 2 shards, runs it on BACKEND (interp | rr | domains | loopback |
   unix) and prints one JSON object: wall time, minor words, peak RSS,
   wire counters, a digest of the final state and, with TRACE = 1, the
   per-layer split folded from the spans of a memory trace.

   [check] runs every backend once at its step count, the fork-based one
   first, and cross-checks the final states: each compiled backend
   bitwise equal to rr on the same configuration
   (Net.Launch.states_equal), rr's conserved invariants within
   [tolerance] of the interpreter's, stencil's interior equal to its
   closed form. Elements where rr differs from the interpreter are
   counted, not failed. *)

module J = Obs.Json
module Trace = Obs.Trace
module Launch = Net.Launch

let nodes = 2
let shards = 2

(* Unix.fork is refused once a domain exists, so the check runs the
   fork-based backend first. *)
let backends = [ "unix"; "interp"; "rr"; "loopback"; "domains" ]

(* The unix backend runs smaller instances: from 160² stencil points per
   node, and at 2000 circuit nodes per piece, a phase in which both ranks
   send more than a socket buffer holds leaves both blocked in write(2)
   for good. *)
let stencil_side backend = if backend = "unix" then 96 else 256
let circuit_piece backend = if backend = "unix" then 1000 else 2000

let tolerance = 1e-9

let close ~want got =
  Float.abs (got -. want) <= tolerance *. Float.max 1. (Float.abs want)

type spec = {
  key : string;  (** configuration and steps: equal keys agree bitwise *)
  prog : Ir.Program.t;
  interior_errors : Interp.Run.context -> int;
  invariants : Interp.Run.context -> (string * float) list;
}

let stencil_interior_errors (cfg : Apps.Stencil.config) prog ctx =
  let grid = Ir.Program.find_region prog "grid" in
  let inst = Interp.Run.region_instance ctx grid in
  let fout =
    List.find
      (fun f -> Regions.Field.name f = "out")
      (Regions.Physical.fields inst)
  in
  let u =
    Option.get (Regions.Index_space.bounding_rect grid.Regions.Region.ispace)
  in
  let r = cfg.Apps.Stencil.radius in
  let errors = ref 0 in
  for x = r to Geometry.Rect.extent u 0 - 1 - r do
    for y = r to Geometry.Rect.extent u 1 - 1 - r do
      let got =
        Regions.Physical.get inst fout
          (Geometry.Rect.linearize u (Geometry.Point.make2 x y))
      in
      if not (close ~want:(Apps.Stencil.expected_output cfg ~x ~y) got) then
        incr errors
    done
  done;
  !errors

let spec workload ~backend ~steps ~seed =
  match workload with
  | "stencil" ->
      let side = stencil_side backend in
      let cfg =
        {
          (Apps.Stencil.test_config ~nodes) with
          Apps.Stencil.points_per_node = side * side;
          tiles_per_node = 4;
          radius = 2;
          timesteps = steps;
        }
      in
      let prog = Apps.Stencil.program cfg in
      {
        key = Printf.sprintf "stencil-%d/%d" side steps;
        prog;
        interior_errors = stencil_interior_errors cfg prog;
        invariants = (fun _ -> []);
      }
  | "circuit" ->
      let npp = circuit_piece backend in
      let cfg =
        {
          (Apps.Circuit.test_config ~nodes) with
          Apps.Circuit.pieces_per_node = 4;
          cnodes_per_piece = npp;
          wires_per_piece = 4 * npp;
          pct_cross = 0.05;
          timesteps = steps;
          seed;
        }
      in
      let prog = Apps.Circuit.program cfg in
      {
        key = Printf.sprintf "circuit-%d-%d/%d" npp seed steps;
        prog;
        interior_errors = (fun _ -> 0);
        invariants =
          (fun ctx -> [ ("charge", Apps.Circuit.total_node_charge ctx prog) ]);
      }
  | "pennant-fine" ->
      let cfg =
        {
          (Apps.Pennant.test_config ~nodes) with
          Apps.Pennant.pieces_per_node = 8;
          piece_zones = (3, 3);
          timesteps = steps;
        }
      in
      let prog = Apps.Pennant.program cfg in
      {
        key = Printf.sprintf "pennant-fine/%d" steps;
        prog;
        interior_errors = (fun _ -> 0);
        invariants =
          (fun ctx ->
            let mx, my = Apps.Pennant.total_momentum ctx prog in
            [ ("momentum_x", mx); ("momentum_y", my) ]);
      }
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------- measurement helpers ---------- *)

let digest (st : Launch.state) =
  Digest.to_hex (Digest.string (Marshal.to_string st [ Marshal.No_sharing ]))

(* Peak resident set of this process, from /proc (0 where unavailable). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.starts_with ~prefix:"VmHWM:" line then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* A fresh context holding [st]'s region contents, so that the context
   checks also apply to a state that came back over the wire. *)
let ctx_of_state prog (st : Launch.state) =
  let ctx = Interp.Run.create prog in
  List.iter
    (fun (name, inst) ->
      let cols =
        Option.value ~default:[] (List.assoc_opt name st.Launch.regions)
      in
      List.iter
        (fun f ->
          match List.assoc_opt (Regions.Field.name f) cols with
          | Some a ->
              Array.blit a 0 (Regions.Physical.column inst f) 0 (Array.length a)
          | None -> ())
        (Regions.Physical.fields inst))
    (Interp.Run.root_instances ctx);
  ctx

let elements ctx =
  List.fold_left
    (fun n (_, inst) -> n + Regions.Physical.cardinal inst)
    0 (Interp.Run.root_instances ctx)

let rec count_instrs pred instrs =
  List.fold_left
    (fun n i ->
      match i with
      | Spmd.Prog.For_time { body; _ } -> n + count_instrs pred body
      | i -> if pred i then n + 1 else n)
    0 instrs

(* Copy and synchronisation instructions in the shard programs. *)
let shard_body_counts (p : Spmd.Prog.t) =
  let is_copy = function Spmd.Prog.Copy _ -> true | _ -> false in
  let is_sync = function
    | Spmd.Prog.Await _ | Spmd.Prog.Release _ | Spmd.Prog.Barrier -> true
    | _ -> false
  in
  List.fold_left
    (fun (copies, syncs) item ->
      match item with
      | Spmd.Prog.Seq _ -> (copies, syncs)
      | Spmd.Prog.Replicated b ->
          let body = b.Spmd.Prog.body in
          (copies + count_instrs is_copy body, syncs + count_instrs is_sync body))
    (0, 0) p.Spmd.Prog.items

(* ---------- per-layer split from the trace ---------- *)

(* Track of the worker's own spans around each layer call (tids 0..9 are
   reserved for drivers). *)
let bench_tid = 1

(* The layer of an instruction span, from its {!Spmd.Exec.instr_label}. *)
let layer_of_instr name =
  let has p = String.starts_with ~prefix:p name in
  if has "launch:" then "kernel"
  else if has "collective:" then "collective"
  else if has "copy#" then "copy"
  else if has "fill:" then "fill"
  else if has "await#" then "await"
  else if has "release#" then "release"
  else if name = "barrier" then "barrier"
  else if name = "net.init" then "net_init"
  else "control"

let layer_names =
  [ "apps.build"; "cr.compile"; "ctx.create"; "exec.run"; "exec.analyze";
    "exec.init"; "exec.finalize"; "kernel"; "collective"; "copy"; "fill";
    "await"; "release"; "barrier"; "control"; "net_init" ]

(* Summed span seconds per layer, the traced wall time (first worker span
   start to last worker span end) and the part of it the layers cover.
   Instruction spans of one shard never overlap; the executor's
   analyze/init/finalize spans nest inside [exec.run], which is therefore
   left out of the cover, and the pipeline's phase spans nest inside
   [cr.compile] and are not read. *)
let layers trace =
  let sums = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace sums k
      (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
  in
  let first = ref infinity and last = ref neg_infinity in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.ph with
      | Trace.X dur ->
          let tid = e.Trace.tid and s = dur /. 1e6 in
          if tid = bench_tid then begin
            first := Float.min !first e.Trace.ts;
            last := Float.max !last (e.Trace.ts +. dur);
            add e.Trace.name s
          end
          else if tid = 0 then add e.Trace.name s
          else if
            tid >= Spmd.Exec.shard_tid 0 && tid < Spmd.Exec.shard_tid shards
          then add (layer_of_instr e.Trace.name) s
      | Trace.B | Trace.E | Trace.I | Trace.M -> ())
    (Trace.events trace);
  let covered =
    Hashtbl.fold
      (fun k v acc -> if k = "exec.run" then acc else acc +. v)
      sums 0.
  in
  ("wall", (!last -. !first) /. 1e6)
  :: ("covered", covered)
  :: ("dropped", float_of_int (Trace.dropped trace))
  :: List.map
       (fun k -> (k, Option.value ~default:0. (Hashtbl.find_opt sums k)))
       layer_names

(* ---------- one run ---------- *)

type run = {
  final : [ `Ctx of Interp.Run.context | `Wire of Launch.state ];
  compiled : Spmd.Prog.t option;
  msgs : int;
  bytes : int;
  retries : int;
}

let state_of r =
  match r.final with `Ctx ctx -> Launch.snapshot_state ctx | `Wire st -> st

let ctx_of (s : spec) r =
  match r.final with `Ctx ctx -> ctx | `Wire st -> ctx_of_state s.prog st

let run_backend backend ~trace ~stats (s : spec) =
  let span name f = Trace.with_span trace ~tid:bench_tid ~cat:"bench" name f in
  let compile () =
    span "cr.compile" (fun () ->
        Cr.Pipeline.compile ~trace (Cr.Pipeline.default ~shards) s.prog)
  in
  let in_process exec =
    let c = compile () in
    let ctx =
      span "ctx.create" (fun () -> Interp.Run.create c.Spmd.Prog.source)
    in
    span "exec.run" (fun () -> exec c ctx);
    {
      final = `Ctx ctx;
      compiled = Some c;
      msgs = Atomic.get stats.Spmd.Exec.msgs_sent;
      bytes = Atomic.get stats.Spmd.Exec.bytes_on_wire;
      retries = 0;
    }
  in
  match backend with
  | "interp" ->
      let ctx = span "ctx.create" (fun () -> Interp.Run.create s.prog) in
      span "exec.run" (fun () -> Interp.Run.run ctx);
      { final = `Ctx ctx; compiled = None; msgs = 0; bytes = 0; retries = 0 }
  | "rr" ->
      in_process (fun c ctx ->
          Spmd.Exec.run ~sched:`Round_robin ~stats ~trace c ctx)
  | "domains" ->
      in_process (fun c ctx -> Spmd.Exec.run ~sched:`Domains ~stats ~trace c ctx)
  | "loopback" ->
      in_process (fun c ctx -> Launch.run_loopback ~stats ~trace c ctx)
  | "unix" -> (
      let c = compile () in
      let o =
        span "exec.run" (fun () ->
            Launch.launch ~transport:`Unix ~stats ~trace c)
      in
      match o.Launch.state with
      | Some st when o.Launch.ok ->
          {
            final = `Wire st;
            compiled = Some c;
            msgs = o.Launch.msgs;
            bytes = o.Launch.bytes_on_wire;
            retries = o.Launch.send_retries;
          }
      | _ -> failwith ("launch failed: " ^ String.concat "; " o.Launch.detail))
  | b -> invalid_arg ("unknown backend " ^ b)

let sample workload backend ~steps ~seed ~traced =
  let trace = if traced then Trace.memory () else Trace.null in
  let stats = Spmd.Exec.fresh_stats () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let s =
    Trace.with_span trace ~tid:bench_tid ~cat:"bench" "apps.build" (fun () ->
        spec workload ~backend ~steps ~seed)
  in
  let r = run_backend backend ~trace ~stats s in
  let wall = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. w0 in
  let ctx = ctx_of s r in
  let copies, syncs =
    match r.compiled with Some c -> shard_body_counts c | None -> (0, 0)
  in
  let isect = stats.Spmd.Exec.isect in
  J.Obj
    ([
       ("ok", J.Bool true);
       ("workload", J.Str workload);
       ("backend", J.Str backend);
       ("steps", J.Int steps);
       ("key", J.Str s.key);
       ("wall_s", J.Float wall);
       ("minor_words", J.Float minor);
       ("rss_mb", J.Float (peak_rss_mb ()));
       ("elems", J.Int (elements ctx));
       ("digest", J.Str (digest (state_of r)));
       ("interior_errors", J.Int (s.interior_errors ctx));
       ("msgs", J.Int r.msgs);
       ("bytes", J.Int r.bytes);
       ("retries", J.Int r.retries);
       ( "isect_s",
         J.Float
           (isect.Spmd.Intersections.shallow_s
          +. isect.Spmd.Intersections.complete_s) );
       ("isect_candidates", J.Int isect.Spmd.Intersections.candidates);
       ("isect_nonempty", J.Int isect.Spmd.Intersections.nonempty);
       ("plan_builds", J.Int (Atomic.get stats.Spmd.Exec.plan_builds));
       ("plan_replays", J.Int (Atomic.get stats.Spmd.Exec.plan_replays));
       ("plan_blit_elems", J.Int (Atomic.get stats.Spmd.Exec.blit_volume));
       ("copy_instrs", J.Int copies);
       ("sync_instrs", J.Int syncs);
     ]
    @
    if traced then
      [
        ( "layers",
          J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (layers trace)) );
      ]
    else [])

(* ---------- cross-backend check ---------- *)

let describe = function
  | Spmd.Exec.Deadlock d -> Resilience.Diag.to_string d
  | e -> Printexc.to_string e

(* Elements whose bits differ between two states of one configuration,
   and the largest absolute and relative difference among them. *)
let diff (a : Launch.state) (b : Launch.state) =
  let n = ref 0 and abs_d = ref 0. and rel_d = ref 0. in
  let cmp x y =
    if Int64.bits_of_float x <> Int64.bits_of_float y then begin
      incr n;
      let d = Float.abs (x -. y) in
      abs_d := Float.max !abs_d d;
      rel_d := Float.max !rel_d (d /. Float.max (Float.abs y) Float.min_float)
    end
  in
  List.iter2 (fun (_, x) (_, y) -> cmp x y) a.Launch.scalars b.Launch.scalars;
  List.iter2
    (fun (_, fa) (_, fb) ->
      List.iter2 (fun (_, ca) (_, cb) -> Array.iter2 cmp ca cb) fa fb)
    a.Launch.regions b.Launch.regions;
  (!n, !abs_d, !rel_d)

let check workload ~seed ~steps_of =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* [backend] on the configuration and step count of [config]. *)
  let attempt ~config backend =
    let s = spec workload ~backend:config ~steps:(steps_of config) ~seed in
    match
      run_backend backend ~trace:Trace.null ~stats:(Spmd.Exec.fresh_stats ()) s
    with
    | r -> Some (s, state_of r, ctx_of s r)
    | exception e ->
        fail "%s: %s" backend (describe e);
        None
  in
  let runs = List.map (fun b -> (b, attempt ~config:b b)) backends in
  (* rr on the configuration each backend ran: the reference it must
     match, keyed by configuration. *)
  let rr_runs = Hashtbl.create 4 in
  (match List.assoc "rr" runs with
  | Some ((s : spec), _, _) as r -> Hashtbl.replace rr_runs s.key r
  | None -> ());
  let rr_on config (s : spec) =
    match Hashtbl.find_opt rr_runs s.key with
    | Some r -> r
    | None ->
        let r = attempt ~config "rr" in
        Hashtbl.replace rr_runs s.key r;
        r
  in
  let interp_diff = ref (0, 0., 0.) in
  let states =
    List.filter_map
      (fun (backend, run) ->
        Option.map
          (fun ((s : spec), st, ctx) ->
            let errors = s.interior_errors ctx in
            if errors > 0 then
              fail "%s: %d interior points off the closed form" backend errors;
            (match rr_on backend s with
            | None -> fail "%s: no rr run to compare with" backend
            | Some ((rs : spec), rst, rctx) ->
                if backend = "interp" then begin
                  List.iter2
                    (fun (name, want) (_, got) ->
                      if not (close ~want got) then
                        fail "rr: %s %.17g, interp %.17g" name got want)
                    (s.invariants ctx) (rs.invariants rctx);
                  try interp_diff := diff rst st
                  with Invalid_argument _ ->
                    fail "rr: state layout differs from interp"
                end
                else if not (Launch.states_equal rst st) then
                  fail "%s: final state differs bitwise from rr" backend);
            ( backend,
              J.Obj [ ("key", J.Str s.key); ("digest", J.Str (digest st)) ] ))
          run)
      runs
  in
  let n, abs_d, rel_d = !interp_diff in
  J.Obj
    [
      ("ok", J.Bool (!failures = []));
      ("failures", J.List (List.rev_map (fun m -> J.Str m) !failures));
      ("ocaml", J.Str Sys.ocaml_version);
      ("states", J.Obj states);
      ("interp_diff_elems", J.Int n);
      ("interp_max_abs_diff", J.Float abs_d);
      ("interp_max_rel_diff", J.Float rel_d);
      ("tolerance", J.Float tolerance);
    ]

let () =
  let result =
    try
      match List.tl (Array.to_list Sys.argv) with
      | [ "sample"; workload; backend; steps; seed; traced ] ->
          sample workload backend ~steps:(int_of_string steps)
            ~seed:(int_of_string seed) ~traced:(traced = "1")
      | "check" :: workload :: seed :: steps ->
          let steps =
            List.map
              (fun kv -> Scanf.sscanf kv "%[a-z]=%d" (fun b n -> (b, n)))
              steps
          in
          check workload ~seed:(int_of_string seed) ~steps_of:(fun b ->
              List.assoc b steps)
      | _ ->
          prerr_endline
            "usage: worker.exe sample WORKLOAD BACKEND STEPS SEED TRACE\n\
            \       worker.exe check WORKLOAD SEED BACKEND=STEPS...";
          exit 2
    with e -> J.Obj [ ("ok", J.Bool false); ("error", J.Str (describe e)) ]
  in
  print_endline (J.to_string result);
  exit (match J.member "ok" result with Some (J.Bool true) -> 0 | _ -> 1)
