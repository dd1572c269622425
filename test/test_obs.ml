(* Tests for the observability layer: JSON printer/parser, the metrics
   registry and its Exec.stats compatibility view, the level-filtered
   logger, trace sinks, Chrome trace-event schema conformance,
   critical-path attribution on the simulator timelines, trace determinism
   across the three executor schedulers, and the committed BENCH_pr3.json
   artifact's schema. *)

let check = Alcotest.check

(* ---------- Obs.Json ---------- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [
        ("a", Obs.Json.Int 3);
        ("b", Obs.Json.Float 1.5);
        ("s", Obs.Json.Str "he\"llo\n\t\\");
        ("l", Obs.Json.List [ Obs.Json.Bool true; Obs.Json.Null ]);
        ("o", Obs.Json.Obj [ ("nested", Obs.Json.Str "x") ]);
      ]
  in
  let s = Obs.Json.to_string j in
  let j' = Obs.Json.of_string_exn s in
  check Alcotest.bool "roundtrip compact" true (j = j');
  let j'' = Obs.Json.of_string_exn (Obs.Json.to_string ~indent:2 j) in
  check Alcotest.bool "roundtrip pretty" true (j = j'')

let test_json_accessors () =
  let j = Obs.Json.of_string_exn {|{"x": 2.5, "y": 7, "s": "hi", "l": [1]}|} in
  check (Alcotest.option (Alcotest.float 1e-9)) "float member" (Some 2.5)
    (Option.bind (Obs.Json.member "x" j) Obs.Json.number);
  check (Alcotest.option (Alcotest.float 1e-9)) "int reads as number"
    (Some 7.)
    (Option.bind (Obs.Json.member "y" j) Obs.Json.number);
  check (Alcotest.option Alcotest.string) "string member" (Some "hi")
    (Option.bind (Obs.Json.member "s" j) Obs.Json.string_value);
  check Alcotest.bool "missing member" true (Obs.Json.member "z" j = None);
  check Alcotest.int "list member" 1
    (List.length
       (Option.get (Option.bind (Obs.Json.member "l" j) Obs.Json.to_list)))

let test_json_bad_input () =
  check Alcotest.bool "trailing garbage rejected" true
    (Result.is_error (Obs.Json.of_string "{} trailing"));
  check Alcotest.bool "unterminated rejected" true
    (Result.is_error (Obs.Json.of_string {|{"a": |}))

(* ---------- Obs.Metrics ---------- *)

let test_metrics_registry () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "runs" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  check Alcotest.int "counter" 5 (Obs.Metrics.get c);
  (* Registration is idempotent: same name, same cell. *)
  let c' = Obs.Metrics.counter r "runs" in
  Obs.Metrics.incr c';
  check Alcotest.int "same cell" 6 (Obs.Metrics.get c);
  let v = ref 1.5 in
  Obs.Metrics.gauge r "level" (fun () -> !v);
  v := 2.5;
  check Alcotest.bool "gauge reads live" true
    (Obs.Metrics.find r "level" = Some (`Gauge 2.5));
  check Alcotest.bool "counter value" true
    (Obs.Metrics.find r "runs" = Some (`Counter 6));
  (* The dump is sorted by name. *)
  let names = List.map fst (Obs.Metrics.dump r) in
  check Alcotest.bool "sorted" true (names = List.sort compare names);
  check Alcotest.bool "counter/gauge name clash rejected" true
    (match Obs.Metrics.counter r "level" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_exec_stats_view () =
  (* The Exec.stats record registered against a registry is a view: both
     sides read the same numbers. *)
  let r = Obs.Metrics.create () in
  let stats = Spmd.Exec.fresh_stats ~registry:r () in
  Atomic.incr stats.Spmd.Exec.attempts;
  Atomic.incr stats.Spmd.Exec.attempts;
  Atomic.incr stats.Spmd.Exec.retries;
  check Alcotest.bool "attempts via registry" true
    (Obs.Metrics.find r "exec.attempts" = Some (`Counter 2));
  check Alcotest.bool "retries via registry" true
    (Obs.Metrics.find r "exec.retries" = Some (`Counter 1));
  Obs.Metrics.incr (Obs.Metrics.counter r "exec.attempts");
  check Alcotest.int "registry bump visible in record" 3
    (Atomic.get stats.Spmd.Exec.attempts)

(* ---------- Obs.Log ---------- *)

let test_log_levels () =
  let seen = ref [] in
  Obs.Log.set_sink (fun lvl msg -> seen := (lvl, msg) :: !seen);
  let saved = Obs.Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_level saved;
      Obs.Log.reset_sink ())
    (fun () ->
      Obs.Log.set_level Obs.Log.Warn;
      Obs.Log.err "e%d" 1;
      Obs.Log.warn "w";
      Obs.Log.info "hidden";
      Obs.Log.debug "hidden";
      check Alcotest.int "only err+warn pass" 2 (List.length !seen);
      Obs.Log.set_level Obs.Log.Debug;
      Obs.Log.debug "now visible";
      check Alcotest.int "debug passes at Debug" 3 (List.length !seen);
      check Alcotest.bool "formatted" true
        (List.exists (fun (_, m) -> m = "e1") !seen))

(* ---------- Obs.Trace sinks ---------- *)

let test_trace_null_disabled () =
  check Alcotest.bool "null disabled" false (Obs.Trace.enabled Obs.Trace.null);
  (* Emitting into the null sink is a no-op, not an error. *)
  Obs.Trace.instant Obs.Trace.null ~tid:1 "nothing";
  check Alcotest.int "no events" 0
    (List.length (Obs.Trace.events Obs.Trace.null))

let test_trace_memory_ring () =
  let t = Obs.Trace.memory ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.instant t ~tid:0 (Printf.sprintf "e%d" i)
  done;
  let names = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events t) in
  check (Alcotest.list Alcotest.string) "oldest overwritten"
    [ "e3"; "e4"; "e5"; "e6" ] names;
  check Alcotest.int "dropped counted" 2 (Obs.Trace.dropped t)

let test_trace_stream_sink () =
  let buf = Buffer.create 256 in
  let t = Obs.Trace.stream buf in
  Obs.Trace.instant t ~tid:3 ~cat:"c" "hello";
  Obs.Trace.complete t ~tid:3 ~ts:1. ~dur:2. "span";
  Obs.Trace.finish t;
  let j = Obs.Json.of_string_exn (Buffer.contents buf) in
  let evs =
    Option.get (Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list)
  in
  check Alcotest.int "both events serialized" 2 (List.length evs)

(* Chrome trace-event schema conformance of one serialized event list. *)
let check_chrome_schema j =
  let evs =
    match Option.bind (Obs.Json.member "traceEvents" j) Obs.Json.to_list with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  check Alcotest.bool "displayTimeUnit" true
    (Obs.Json.member "displayTimeUnit" j <> None);
  List.iter
    (fun e ->
      let str k = Option.bind (Obs.Json.member k e) Obs.Json.string_value in
      let num k = Option.bind (Obs.Json.member k e) Obs.Json.number in
      (match str "name" with
      | Some _ -> ()
      | None -> Alcotest.fail "event without name");
      let ph =
        match str "ph" with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      check Alcotest.bool "known ph" true
        (List.mem ph [ "B"; "E"; "I"; "X"; "M" ]);
      check Alcotest.bool "ts" true (ph = "M" || num "ts" <> None);
      check Alcotest.bool "pid/tid" true (num "pid" <> None && num "tid" <> None);
      if ph = "X" then check Alcotest.bool "X has dur" true (num "dur" <> None);
      if ph = "I" then
        check (Alcotest.option Alcotest.string) "I has scope" (Some "t")
          (str "s"))
    evs;
  evs

let test_trace_chrome_schema () =
  let t = Obs.Trace.memory () in
  Obs.Trace.set_process_name t ~pid:0 "p";
  Obs.Trace.set_thread_name t ~tid:2 "t";
  Obs.Trace.instant t ~tid:2 ~args:[ ("k", Obs.Trace.Int 1) ] "i";
  Obs.Trace.with_span t ~tid:2 ~cat:"c" "work" (fun () -> ());
  Obs.Trace.complete_v t ~tid:5 ~ts_s:1. ~dur_s:0.5 "virtual";
  let evs = check_chrome_schema (Obs.Trace.to_chrome_json t) in
  check Alcotest.int "all events present" 5 (List.length evs);
  (* Virtual events land on the virtual pid, in microseconds. *)
  let virt =
    List.find
      (fun e ->
        Option.bind (Obs.Json.member "name" e) Obs.Json.string_value
        = Some "virtual")
      evs
  in
  check (Alcotest.option (Alcotest.float 1e-6)) "virtual pid"
    (Some (float_of_int Obs.Trace.virtual_pid))
    (Option.bind (Obs.Json.member "pid" virt) Obs.Json.number);
  check (Alcotest.option (Alcotest.float 1e-3)) "seconds scaled to us"
    (Some 1e6)
    (Option.bind (Obs.Json.member "ts" virt) Obs.Json.number)

(* ---------- timeline / critical path ---------- *)

let test_timeline_binding () =
  let tl = Realm.Timeline.create () in
  let a =
    Realm.Timeline.op tl ~name:"a" ~track:0 ~start:0. ~finish:2.
      ~pred:Realm.Timeline.nil ()
  in
  let b =
    Realm.Timeline.op tl ~name:"b" ~track:0 ~start:0. ~finish:1.
      ~pred:Realm.Timeline.nil ()
  in
  let t, p = Realm.Timeline.binding [ (2., a); (1., b) ] in
  check (Alcotest.float 1e-9) "argmax time" 2. t;
  check Alcotest.int "argmax pred" a p;
  (* Ties keep the earlier candidate. *)
  let _, p = Realm.Timeline.binding [ (2., a); (2., b) ] in
  check Alcotest.int "tie keeps first" a p

let stencil_sim ?(nodes = 4) ?trace () =
  let cfg = Apps.Stencil.default ~nodes in
  let prog = Apps.Stencil.program cfg in
  let machine = Realm.Machine.make ~nodes () in
  let compiled =
    Cr.Pipeline.compile ?trace (Cr.Pipeline.default ~shards:nodes) prog
  in
  Legion.Sim_spmd.simulate ~machine ~scale:(Apps.Stencil.scale cfg) ~steps:8
    ?trace compiled

let test_critical_path_equals_makespan () =
  let r = stencil_sim () in
  let tl = r.Legion.Sim_spmd.timeline in
  check (Alcotest.float 1e-9) "makespan is reported total"
    r.Legion.Sim_spmd.total (Realm.Timeline.makespan tl);
  let contribs = Realm.Timeline.critical_contributions tl in
  let sum = List.fold_left (fun acc (_, _, d) -> acc +. d) 0. contribs in
  check (Alcotest.float 1e-6) "critical path tiles the makespan"
    (Realm.Timeline.makespan tl) sum;
  (* The contributions tile [0, makespan]: each span starts where the
     previous one ended. *)
  let _ =
    List.fold_left
      (fun at (_, start, d) ->
        check (Alcotest.float 1e-6) "contiguous" at start;
        at +. d)
      0. contribs
  in
  (* Predecessors point backwards: the DAG is in issue order. *)
  List.iter
    (fun (n : Realm.Timeline.node) ->
      check Alcotest.bool "pred precedes node" true
        (n.Realm.Timeline.pred < n.Realm.Timeline.id);
      if n.Realm.Timeline.pred <> Realm.Timeline.nil then
        check Alcotest.bool "pred finish <= node finish" true
          ((Realm.Timeline.node tl n.Realm.Timeline.pred).Realm.Timeline.finish
          <= n.Realm.Timeline.finish +. 1e-12))
    (Realm.Timeline.nodes tl)

let test_implicit_critical_path () =
  let nodes = 4 in
  let cfg = Apps.Stencil.default ~nodes in
  let machine = Realm.Machine.make ~nodes () in
  let r =
    Legion.Sim_implicit.simulate ~machine ~scale:(Apps.Stencil.scale cfg)
      ~steps:6
      (Apps.Stencil.program cfg)
  in
  let tl = r.Legion.Sim_implicit.timeline in
  check (Alcotest.float 1e-9) "makespan is reported total"
    r.Legion.Sim_implicit.total (Realm.Timeline.makespan tl);
  let sum =
    List.fold_left
      (fun acc (_, _, d) -> acc +. d)
      0.
      (Realm.Timeline.critical_contributions tl)
  in
  check (Alcotest.float 1e-6) "critical path tiles the makespan"
    (Realm.Timeline.makespan tl) sum

(* The golden end-to-end artifact: a traced stencil simulation serialized
   as Chrome JSON has per-shard virtual tracks, CR-pipeline phase spans,
   and a critical-path track whose spans sum to the makespan. *)
let test_simulate_trace_golden () =
  let nodes = 4 in
  let trace = Obs.Trace.memory () in
  let r = stencil_sim ~nodes ~trace () in
  let machine = Realm.Machine.make ~nodes () in
  Realm.Timeline.emit
    ~track_names:
      (Legion.Sim_spmd.track_names ~shards:nodes
         ~cores:(Realm.Machine.compute_cores machine))
    r.Legion.Sim_spmd.timeline trace;
  let evs = check_chrome_schema (Obs.Trace.to_chrome_json trace) in
  let name e =
    Option.value ~default:""
      (Option.bind (Obs.Json.member "name" e) Obs.Json.string_value)
  in
  let num k e = Option.bind (Obs.Json.member k e) Obs.Json.number in
  (* CR pipeline phase spans on the wall clock. *)
  List.iter
    (fun phase ->
      check Alcotest.bool (phase ^ " span present") true
        (List.exists (fun e -> name e = phase) evs))
    [ "cr.check"; "cr.normalize"; "cr.replicate"; "cr.placement"; "cr.sync";
      "cr.shard" ];
  (* Per-shard virtual tracks, named via metadata. *)
  let thread_names =
    List.filter_map
      (fun e ->
        if name e = "thread_name" then
          Option.bind (Obs.Json.member "args" e) (fun a ->
              Option.bind (Obs.Json.member "name" a) Obs.Json.string_value)
        else None)
      evs
  in
  for s = 0 to nodes - 1 do
    check Alcotest.bool (Printf.sprintf "shard %d track named" s) true
      (List.exists
         (fun n ->
           (* Any track mentioning this shard counts (ctl/core/net). *)
           let sub = Printf.sprintf "%d" s in
           String.length n >= String.length sub
           && Str.string_match (Str.regexp (".*" ^ sub)) n 0)
         thread_names)
  done;
  (* Critical-path track spans sum to the simulator's makespan. *)
  let crit_spans =
    List.filter
      (fun e ->
        num "tid" e = Some 1_000_000.
        && Option.bind (Obs.Json.member "ph" e) Obs.Json.string_value
           = Some "X")
      evs
  in
  check Alcotest.bool "critical-path track nonempty" true (crit_spans <> []);
  let sum_us =
    List.fold_left
      (fun acc e -> acc +. Option.value ~default:0. (num "dur" e))
      0. crit_spans
  in
  check (Alcotest.float 1e-3) "crit track sums to makespan (us)"
    (r.Legion.Sim_spmd.total *. 1e6)
    sum_us;
  (* Spans marked [crit] exist on their home tracks too. *)
  check Alcotest.bool "crit-marked spans" true
    (List.exists
       (fun e ->
         Option.bind (Obs.Json.member "args" e) (Obs.Json.member "crit")
         = Some (Obs.Json.Bool true))
       evs)

(* ---------- executor trace determinism ---------- *)

(* Same program + same seed: the per-tid (phase, name) sequences are
   identical under all three schedulers — only wall-clock timestamps and
   interleaving across shards may differ. *)
let per_tid_signature trace =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let key = e.Obs.Trace.tid in
      let ph =
        match e.Obs.Trace.ph with
        | Obs.Trace.B -> "B"
        | Obs.Trace.E -> "E"
        | Obs.Trace.I -> "I"
        | Obs.Trace.X _ -> "X"
        | Obs.Trace.M -> "M"
      in
      Hashtbl.replace tbl key
        ((ph, e.Obs.Trace.name)
        :: (try Hashtbl.find tbl key with Not_found -> [])))
    (Obs.Trace.events trace);
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []
  |> List.sort compare

let traced_run sched =
  let nodes = 3 in
  let prog = Apps.Stencil.program (Apps.Stencil.test_config ~nodes) in
  let compiled = Cr.Pipeline.compile (Cr.Pipeline.default ~shards:nodes) prog in
  let ctx = Interp.Run.create compiled.Spmd.Prog.source in
  let trace = Obs.Trace.memory () in
  Spmd.Exec.run ~sched ~trace compiled ctx;
  per_tid_signature trace

let test_trace_determinism_across_scheds () =
  let rr = traced_run `Round_robin in
  let rnd = traced_run (`Random 17) in
  let dom = traced_run `Domains in
  check Alcotest.bool "round_robin = random" true (rr = rnd);
  check Alcotest.bool "round_robin = domains" true (rr = dom);
  (* And the signature is non-trivial: per-shard tracks saw instructions. *)
  check Alcotest.bool "per-shard events exist" true
    (List.exists
       (fun (tid, evs) -> tid >= Spmd.Exec.shard_tid 0 && List.length evs > 0)
       rr)

let test_trace_run_repeatable () =
  (* Two identical runs produce identical signatures (wall-clock fields
     excluded by construction). *)
  check Alcotest.bool "repeatable" true
    (traced_run (`Random 5) = traced_run (`Random 5))

(* ---------- BENCH_pr3.json schema + data-plane thresholds ---------- *)

let bench_json_path = "../BENCH_pr3.json"

let test_bench_artifact_schema () =
  let ic = open_in bench_json_path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let j = Obs.Json.of_string_exn s in
  check (Alcotest.option Alcotest.string) "schema" (Some "crc-bench/1")
    (Option.bind (Obs.Json.member "schema" j) Obs.Json.string_value);
  let figures =
    Option.get (Option.bind (Obs.Json.member "figures" j) Obs.Json.to_list)
  in
  check Alcotest.int "four figures" 4 (List.length figures);
  List.iter
    (fun fig ->
      let series =
        Option.get (Option.bind (Obs.Json.member "series" fig) Obs.Json.to_list)
      in
      check Alcotest.bool "series nonempty" true (series <> []);
      List.iter
        (fun s ->
          let points =
            Option.get
              (Option.bind (Obs.Json.member "points" s) Obs.Json.to_list)
          in
          check Alcotest.bool "points nonempty" true (points <> []);
          List.iter
            (fun p ->
              List.iter
                (fun k ->
                  check Alcotest.bool (k ^ " is a number") true
                    (Option.bind (Obs.Json.member k p) Obs.Json.number <> None))
                [ "nodes"; "per_step_s"; "throughput_per_node" ])
            points)
        series)
    figures;
  check Alcotest.bool "table1 rows" true
    (Option.bind (Obs.Json.member "table1" j) Obs.Json.to_list
    |> Option.map (fun l -> l <> [])
    |> Option.value ~default:false);
  check Alcotest.bool "ablations object" true
    (Obs.Json.member "ablations" j <> None
    && Obs.Json.member "per_step_s" (Option.get (Obs.Json.member "ablations" j))
       <> None);
  check Alcotest.bool "metrics object" true (Obs.Json.member "metrics" j <> None);
  (* Table 1 rows carry the partition-pair cache columns. *)
  List.iter
    (fun row ->
      List.iter
        (fun k ->
          check Alcotest.bool (k ^ " is a number") true
            (Option.bind (Obs.Json.member k row) Obs.Json.number <> None))
        [ "shallow_ms"; "complete_ms"; "cold_ms"; "cached_ms" ])
    (Option.value ~default:[]
       (Option.bind (Obs.Json.member "table1" j) Obs.Json.to_list))

let read_bench_json () =
  let ic = open_in bench_json_path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Obs.Json.of_string_exn s

(* The committed artifact must meet the PR3 acceptance thresholds: copy
   plans >= 5x the per-element baseline, cached intersections >= 10x cold. *)
let test_bench_data_plane_thresholds () =
  let j = read_bench_json () in
  let dp = Option.get (Obs.Json.member "data_plane" j) in
  let num path v =
    match Option.bind v Obs.Json.number with
    | Some x -> x
    | None -> Alcotest.failf "missing number %s" path
  in
  let copy_cases =
    Option.get (Option.bind (Obs.Json.member "copy" dp) Obs.Json.to_list)
  in
  check Alcotest.bool "copy cases present" true (copy_cases <> []);
  let headline =
    num "copy[0].copy_speedup"
      (Obs.Json.member "copy_speedup" (List.hd copy_cases))
  in
  check Alcotest.bool
    (Printf.sprintf "copy plan speedup %.1fx >= 5x" headline)
    true (headline >= 5.);
  List.iter
    (fun case ->
      check Alcotest.bool "every copy case beats the baseline" true
        (num "copy_speedup" (Obs.Json.member "copy_speedup" case) > 1.
        && num "reduce_speedup" (Obs.Json.member "reduce_speedup" case) > 1.))
    copy_cases;
  let isect = Option.get (Obs.Json.member "intersections" dp) in
  let isect_speedup = num "intersections.speedup" (Obs.Json.member "speedup" isect) in
  check Alcotest.bool
    (Printf.sprintf "cached intersection speedup %.1fx >= 10x" isect_speedup)
    true (isect_speedup >= 10.);
  check Alcotest.bool "cache hits recorded" true
    (num "intersections.cache_hits" (Obs.Json.member "cache_hits" isect) > 0.);
  let kernel = Option.get (Obs.Json.member "kernel" dp) in
  check Alcotest.bool "bulk kernel beats per-element accessors" true
    (num "kernel.speedup" (Obs.Json.member "speedup" kernel) > 1.)

(* EXPERIMENTS.md's data-plane table quotes the committed artifact: every
   microbenchmark speedup it records must appear there as printed. *)
let test_experiments_quote_artifact () =
  let ic = open_in "../EXPERIMENTS.md" in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains sub =
    let n = String.length sub in
    let rec from i =
      i + n <= String.length doc && (String.sub doc i n = sub || from (i + 1))
    in
    from 0
  in
  let dp = Option.get (Obs.Json.member "data_plane" (read_bench_json ())) in
  let num v = Option.get (Option.bind v Obs.Json.number) in
  let copies =
    Option.get (Option.bind (Obs.Json.member "copy" dp) Obs.Json.to_list)
  in
  let kernel = Option.get (Obs.Json.member "kernel" dp) in
  let speedups =
    List.concat_map
      (fun case ->
        [
          num (Obs.Json.member "copy_speedup" case);
          num (Obs.Json.member "reduce_speedup" case);
        ])
      copies
    @ [ num (Obs.Json.member "speedup" kernel) ]
  in
  List.iter
    (fun x ->
      let cell = Printf.sprintf "**%.1f\xc3\x97**" x in
      check Alcotest.bool (cell ^ " quoted in EXPERIMENTS.md") true
        (contains cell))
    speedups

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "bad input" `Quick test_json_bad_input;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "exec stats view" `Quick
            test_metrics_exec_stats_view;
        ] );
      ("log", [ Alcotest.test_case "levels" `Quick test_log_levels ]);
      ( "trace",
        [
          Alcotest.test_case "null disabled" `Quick test_trace_null_disabled;
          Alcotest.test_case "memory ring" `Quick test_trace_memory_ring;
          Alcotest.test_case "stream sink" `Quick test_trace_stream_sink;
          Alcotest.test_case "chrome schema" `Quick test_trace_chrome_schema;
        ] );
      ( "critical path",
        [
          Alcotest.test_case "binding argmax" `Quick test_timeline_binding;
          Alcotest.test_case "spmd sim tiles makespan" `Quick
            test_critical_path_equals_makespan;
          Alcotest.test_case "implicit sim tiles makespan" `Quick
            test_implicit_critical_path;
          Alcotest.test_case "golden stencil trace" `Quick
            test_simulate_trace_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "schedulers agree" `Quick
            test_trace_determinism_across_scheds;
          Alcotest.test_case "runs repeatable" `Quick test_trace_run_repeatable;
        ] );
      ( "bench artifact",
        [
          Alcotest.test_case "schema" `Quick test_bench_artifact_schema;
          Alcotest.test_case "data plane thresholds" `Quick
            test_bench_data_plane_thresholds;
          Alcotest.test_case "EXPERIMENTS.md quotes it" `Quick
            test_experiments_quote_artifact;
        ] );
    ]
