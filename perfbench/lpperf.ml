(* lpperf: the benchmark's workload runner.  run.py starts one fresh process of it
   per workload run; see README.md for the workloads and metrics.

     lpperf gen --program P --input I --scale S --dir D [--v3]
       runs workload program P on input I at scale S and writes D/P-I.lpt
       as `lpalloc trace -o D/P-I.lpt` does (with --v3 also D/P-I.v3.lpt,
       as `lpalloc convert --v3` does); prints {"generate_s", "encode_s"}.

     lpperf run --workload W --dir D --tune-seed N --out F
                [--setup-only] [--trace FILE --run-id ID]
       runs workload W over the inputs in D, calling the same library
       functions in the same order as the lpalloc subcommands it stands
       for, and writes their user-visible output (the simulate, tune or
       audit JSON) to F.  Prints one JSON line: the wall-clock instant
       set-up ended (the first replay or audit fold begins), the events
       replayed or folded, and the configurations evaluated.
       --setup-only exits at the end of set-up.  --trace runs the same
       work split into spans around each public layer call, runs the
       subtraction probes after it, writes the spans to FILE as Chrome
       trace-event JSON and adds the per-layer metrics to the line. *)

module Trace = Lp_trace.Trace
module Io = Lp_trace.Io
module Source = Lp_trace.Source
module Sharded = Lp_trace.Sharded
module Binio = Lp_trace.Binio
module Driver = Lp_allocsim.Driver
module Backend = Lp_allocsim.Backend
module Metrics = Lp_allocsim.Metrics
module Cost_model = Lp_allocsim.Cost_model
module Json = Lp_report.Json
module Timings = Lp_obs.Timings
module L = Lifetime

(* lpalloc's defaults: --threshold 32768 and the five registry backends
   every replay workload runs *)
let config = { L.Config.default with short_lived_threshold = 32768 }
let backends = [ "first-fit"; "best-fit"; "bsd"; "segfit"; "arena" ]

(* tune-perl's search size: the 46-point grid plus one seeded generation *)
let tune_generations = 1
let tune_population = 4
let tune_workload = "perl-test"
let ok = function Ok v -> v | Error msg -> failwith msg

let backend_of_spec name =
  ok
    (Lp_allocsim.Registry.backend_of_spec
       ~arena_config:(L.Config.arena_config config)
       name)

let now = Unix.gettimeofday

(* -- per-layer metrics (traced run) ------------------------------------------ *)

(* Every per-layer metric lpperf reports, on every workload; a layer a
   workload does not exercise at the timed boundary reads 0.  run.py adds
   obs.overhead_ratio and workloads.generate_s, which need other
   processes. *)
let layer_names =
  [
    "trace.decode_s";
    "trace.decode_mev_per_s";
    "trace.read_amplification";
    "trace.decodes";
    "trace.index_s";
    "driver.prepare_s";
    "driver.validations";
    "driver.null_replay_s";
  ]
  @ List.map (Printf.sprintf "replay.%s_s") backends
  @ List.map (Printf.sprintf "backend.%s_self_s") backends
  @ List.map (Printf.sprintf "replay.stream_%s_s") backends
  @ [
      "replay.stream_vs_materialized";
      "gc.minor_words_per_event";
      "gc.major_collections";
      "gc.top_heap_mwords";
      "train.collect_s";
      "train.build_s";
      "shard.train_s";
      "oracle.static_cost_s";
      "oracle.online_cost_s";
      "oracle.mispredict_ratio";
      "tune.search_s";
      "tune.candidates";
      "tune.candidate_p50_ms";
      "tune.candidate_p90_ms";
      "tune.overhead_s";
      "parallel.speedup_2d";
      "audit.fold_s";
      "audit.fold_mev_per_s";
      "audit.diagnostics";
      "report.render_s";
      "obs.unattributed_ratio";
    ]

let layer : (string, float) Hashtbl.t = Hashtbl.create 64
let () = List.iter (fun n -> Hashtbl.replace layer n 0.) layer_names

let set name v =
  if not (Hashtbl.mem layer name) then failwith ("lpperf: unknown metric " ^ name);
  Hashtbl.replace layer name v

let set_int name n = set name (float_of_int n)

(* a probe that does not reproduce the run it is subtracted from would
   make the subtraction meaningless: fail the run instead *)
let check what b = if not b then failwith ("lpperf: probe mismatch: " ^ what)

let mispredict_ratio (m : Metrics.t) =
  float_of_int (m.mispredicts_short_lived + m.mispredicts_long_lived)
  /. float_of_int m.predictions

(* -- shared pieces ------------------------------------------------------------- *)

type ctx = { dir : string; tune_seed : int; mark_setup : unit -> unit }

type outcome = {
  output : string;  (* the subcommand's stdout, byte for byte *)
  events : int;  (* events replayed or folded *)
  configs : int;  (* allocator configurations (or models) evaluated *)
  reads : string list;  (* trace files the workload reads, for read amplification *)
  probes : unit -> unit;  (* the traced run's subtraction probes *)
}

let no_probes () = ()
let file ctx name = Filename.concat ctx.dir name

(* `lpalloc simulate --json` *)
let simulate_json results =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, m) -> Printf.sprintf "%S:%s" name (Metrics.to_json m))
         results)
  ^ "}\n"

let sim_results sim =
  List.map (fun n -> (n, L.Simulate.metrics sim n)) (L.Simulate.names sim)

(* `lpalloc tune --format json` *)
let tune_json outcome =
  let engine =
    List.filter
      (fun (k, _) -> k = "trace.decodes" || k = "replay.validations")
      (Timings.counters ())
  in
  Json.to_pretty_string (L.Tune.json_of_outcome ~engine outcome)

let tune_options ctx =
  {
    L.Tune.seed = ctx.tune_seed;
    generations = tune_generations;
    population = tune_population;
    max_candidates = L.Tune.default_options.L.Tune.max_candidates;
  }

(* `lpalloc audit --json` *)
let audit_json diags = Lp_analysis.Diagnostic.list_to_json diags ^ "\n"

(* `lpalloc audit`'s options with every flag at its default *)
let audit_options model =
  Lp_analysis.Audit.with_model
    {
      Lp_analysis.Audit.default_options with
      au_threshold = config.short_lived_threshold;
      au_margin = Lp_analysis.Coverage.default_margin;
      au_hotspot_share = Lp_analysis.Liveint.default_hotspot_share;
      au_online = None;
      au_only = None;
      au_disable = None;
    }
    model

(* `lpalloc train --sharded FILE --save MODEL`, minus its stdout summary *)
let train_model ~traced sh =
  let span name f = if traced then Span.with_ name f else f () in
  let st = span "shard.train" (fun () -> L.Shard.train ~config sh) in
  let funcs = Binio.indexed_funcs (Sharded.index sh) in
  let predictor =
    span "train.build" (fun () -> L.Predictor.build ~config ~funcs st.L.Train.table)
  in
  span "model.build" (fun () ->
      L.Model.of_training_parts ~config
        ~program:(Sharded.header sh).Binio.program
        ~funcs ~clock:st.L.Train.end_clock st.L.Train.table predictor)

(* -- untraced runs: the lpalloc command sequences ------------------------------ *)

(* lpalloc simulate --train perl-train.lpt --test perl-test.lpt
     --allocators first-fit,best-fit,bsd,segfit,arena --json *)
let simulate_perl ctx =
  List.iter (fun n -> ignore (backend_of_spec n : Backend.t)) backends;
  let train = Io.read_file (file ctx "perl-train.lpt") in
  let table = L.Train.collect ~config train in
  let predictor = L.Predictor.build ~config ~funcs:train.Trace.funcs table in
  let oracle = ok (L.Oracle.of_spec ~config ~predictor L.Oracle.Spec_static) in
  let test = Io.read_file (file ctx "perl-test.lpt") in
  (* Simulate.run starts with this call; it is memoized on the trace, so
     making it here only brings the end of set-up into view *)
  ignore (Driver.prepare test : Driver.prepared);
  ctx.mark_setup ();
  let results =
    sim_results (L.Simulate.run ~allocators:backends ~config ~oracle ~test ())
  in
  {
    output = simulate_json results;
    events = Array.length test.events * List.length results;
    configs = List.length results;
    reads = [];
    probes = no_probes;
  }

(* lpalloc simulate --stream --oracle online --test gawk-test.lpt
     --allocators first-fit,best-fit,bsd,segfit,arena --json *)
let stream_gawk ctx =
  List.iter (fun n -> ignore (backend_of_spec n : Backend.t)) backends;
  let oracle =
    ok (L.Oracle.of_spec ~config (ok (L.Oracle.spec_of_string "online")))
  in
  let path = file ctx "gawk-test.lpt" in
  (* run_streamed opens one source to read the stream's totals, then one
     per replay job: the second open is the first replay beginning *)
  let opened = ref 0 and n_events = ref 0 in
  let source () =
    incr opened;
    if !opened = 2 then ctx.mark_setup ();
    let src = Source.of_file path in
    n_events := Option.value src.n_events_hint ~default:0;
    src
  in
  let results =
    sim_results
      (L.Simulate.run_streamed ~allocators:backends ~config ~oracle ~source ())
  in
  {
    output = simulate_json results;
    events = !n_events * List.length results;
    configs = List.length results;
    reads = [];
    probes = no_probes;
  }

(* lpalloc tune --train perl-train.lpt --test perl-test.lpt --seed N
     --generations 1 --population 4 --format json *)
let tune_perl ctx =
  (* lpalloc tune turns the counters on: its JSON embeds trace.decodes and
     replay.validations *)
  Timings.set_enabled true;
  let train = Io.read_file (file ctx "perl-train.lpt") in
  let test = Io.read_file (file ctx "perl-test.lpt") in
  ignore (Driver.prepare test : Driver.prepared);
  ctx.mark_setup ();
  let outcome =
    L.Tune.search ~options:(tune_options ctx) ~workload:tune_workload ~train ~test ()
  in
  let n = List.length outcome.results in
  {
    output = tune_json outcome;
    events = Array.length test.events * (n + List.length outcome.baselines);
    configs = n;
    reads = [];
    probes = no_probes;
  }

(* lpalloc train --sharded perl-train.v3.lpt --save perl.lpmodel, then
   lpalloc audit --sharded --model perl.lpmodel perl-test.v3.lpt --json *)
let audit_perl ctx =
  let model = train_model ~traced:false (Sharded.load (file ctx "perl-train.v3.lpt")) in
  let model_path = Filename.temp_file ~temp_dir:ctx.dir "perl" ".lpmodel" in
  L.Model.save model_path model;
  let opts = audit_options (L.Model.load model_path) in
  Sys.remove model_path;
  let sh = Sharded.load (file ctx "perl-test.v3.lpt") in
  ctx.mark_setup ();
  let diags = Lp_analysis.Audit.run_sharded opts sh in
  {
    output = audit_json diags;
    events = Sharded.n_events sh;
    configs = 1;
    reads = [];
    probes = no_probes;
  }

(* -- traced runs: the same calls, one span each -------------------------------- *)

let span = Span.with_

let decode path =
  let t = span "trace.decode" (fun () -> Io.read_file path) in
  (t, Array.length t.Trace.events)

let set_decode ~events =
  let s = Span.total "trace.decode" in
  set "trace.decode_s" s;
  if s > 0. then set "trace.decode_mev_per_s" (float_of_int events /. s /. 1e6)

(* Simulate.run's jobs, each in a span [prefix ^ job name] *)
let replay_materialized ~prefix ~oracle ~test prepared =
  let jobs =
    List.concat_map
      (fun name ->
        let backend = backend_of_spec name in
        let display = Backend.name backend in
        if Backend.uses_prediction backend then
          let with_cost predict_cost () =
            let inst =
              L.Oracle.instance_for_trace ~pooled:true oracle ~predict_cost test
            in
            Driver.run_prepared ~predictor:(L.Oracle.driver_predictor inst)
              prepared backend
          in
          [
            (display, with_cost Cost_model.predict_len4);
            (display ^ "-cce", with_cost (L.Simulate.cce_cost test));
          ]
        else [ (display, fun () -> Driver.run_prepared prepared backend) ])
      backends
  in
  let metrics =
    L.Parallel.all (List.map (fun (name, job) () -> span (prefix ^ name) job) jobs)
  in
  List.map2 (fun (name, _) m -> (name, m)) jobs metrics

(* seconds in backend [b]'s jobs (arena runs twice: both pricings) *)
let backend_time ~prefix b =
  Span.total (prefix ^ b)
  +. if b = "arena" then Span.total (prefix ^ "arena-cce") else 0.

let jobs_of b = if b = "arena" then 2. else 1.

let set_replays ~prefix ~null =
  List.iter
    (fun b ->
      let t = backend_time ~prefix b in
      set (Printf.sprintf "replay.%s_s" b) t;
      set (Printf.sprintf "backend.%s_self_s" b) (t -. (jobs_of b *. null)))
    backends

let null_replay prepared =
  ignore (span "probe.null_replay" (fun () -> Driver.run_prepared prepared Probes.null)
    : Metrics.t);
  let null = Span.total "probe.null_replay" in
  set "driver.null_replay_s" null;
  null

(* tape the arena's verdicts from [predictor] in a replay by [record_with],
   play them back in one by [play_with], and check both reproduce
   [expect]; returns the played-back replay's seconds *)
let oracle_probe ~predictor ~expect ~record_with ~play_with =
  let recorder, tape = Probes.recording predictor in
  check "taped replay"
    (span "probe.oracle_record" (fun () -> record_with recorder) = expect);
  let played = Probes.playback tape recorder in
  check "played-back replay"
    (span "probe.oracle_playback" (fun () -> play_with played) = expect);
  Span.total "probe.oracle_playback"

let simulate_perl_traced ctx =
  let train_path = file ctx "perl-train.lpt" and test_path = file ctx "perl-test.lpt" in
  let train, train_events = decode train_path in
  let table = span "train.collect" (fun () -> L.Train.collect ~config train) in
  let predictor =
    span "train.build" (fun () ->
        L.Predictor.build ~config ~funcs:train.Trace.funcs table)
  in
  let oracle =
    span "oracle.build" (fun () ->
        ok (L.Oracle.of_spec ~config ~predictor L.Oracle.Spec_static))
  in
  let test, test_events = decode test_path in
  let prepared = span "driver.prepare" (fun () -> Driver.prepare test) in
  let results =
    span "simulate" (fun () -> replay_materialized ~prefix:"replay." ~oracle ~test prepared)
  in
  let output = span "report.render" (fun () -> simulate_json results) in
  set_decode ~events:(train_events + test_events);
  set "train.collect_s" (Span.total "train.collect");
  set "train.build_s" (Span.total "train.build");
  let arena = List.assoc "arena" results in
  set "oracle.mispredict_ratio" (mispredict_ratio arena);
  let probes () =
    set_replays ~prefix:"replay." ~null:(null_replay prepared);
    let arena_backend = backend_of_spec "arena" in
    let inst =
      L.Oracle.instance_for_trace ~pooled:true oracle
        ~predict_cost:Cost_model.predict_len4 test
    in
    let replay predictor = Driver.run_prepared ~predictor prepared arena_backend in
    let playback_s =
      oracle_probe ~predictor:(L.Oracle.driver_predictor inst) ~expect:arena
        ~record_with:replay ~play_with:replay
    in
    set "oracle.static_cost_s" (Span.total "replay.arena" -. playback_s)
  in
  {
    output;
    events = test_events * List.length results;
    configs = List.length results;
    reads = [ train_path; test_path ];
    probes;
  }

let stream_gawk_traced ctx =
  let path = file ctx "gawk-test.lpt" in
  let oracle =
    span "oracle.build" (fun () ->
        ok (L.Oracle.of_spec ~config (ok (L.Oracle.spec_of_string "online"))))
  in
  (* Simulate.run_streamed's probe and jobs, each job in a span *)
  let source () = span "trace.open" (fun () -> Source.of_file path) in
  let n_events = ref 0 in
  let results =
    span "simulate" (fun () ->
        let calls, allocs =
          let probe = source () in
          n_events := Option.value probe.n_events_hint ~default:0;
          match (probe.counters_now (), probe.n_objects_hint) with
          | Some c, Some n -> (c.calls, n)
          | _ -> failwith "lpperf: gawk-test.lpt does not declare its totals"
        in
        let jobs =
          List.concat_map
            (fun name ->
              let backend = backend_of_spec name in
              let display = Backend.name backend in
              let job label f =
                (label, fun src -> span ("replay.stream_" ^ label) (fun () -> f src))
              in
              if Backend.uses_prediction backend then
                let with_cost predict_cost src =
                  let inst = L.Oracle.instance_for_source oracle ~predict_cost src in
                  Driver.run_source ~predictor:(L.Oracle.driver_predictor inst) src
                    backend
                in
                [
                  job display (with_cost Cost_model.predict_len4);
                  job (display ^ "-cce")
                    (with_cost (L.Simulate.cce_cost_of ~calls ~allocs));
                ]
              else [ job display (fun src -> Driver.run_source src backend) ])
            backends
        in
        let metrics = L.Parallel.map_sources source (List.map snd jobs) in
        List.map2 (fun (name, _) m -> (name, m)) jobs metrics)
  in
  let output = span "report.render" (fun () -> simulate_json results) in
  List.iter
    (fun b ->
      set (Printf.sprintf "replay.stream_%s_s" b) (backend_time ~prefix:"replay.stream_" b))
    backends;
  let arena = List.assoc "arena" results in
  set "oracle.mispredict_ratio" (mispredict_ratio arena);
  let probes () =
    (* the materialized replay of the same trace: per-backend times, the
       null replay, and the streamed/materialized ratio *)
    let test = span "probe.decode" (fun () -> Io.read_file path) in
    let prepared = span "probe.prepare" (fun () -> Driver.prepare test) in
    let materialized =
      replay_materialized ~prefix:"probe.replay." ~oracle ~test prepared
    in
    check "streamed == materialized" (materialized = results);
    set_replays ~prefix:"probe.replay." ~null:(null_replay prepared);
    let total prefix =
      List.fold_left (fun acc b -> acc +. backend_time ~prefix b) 0. backends
    in
    set "replay.stream_vs_materialized"
      (total "replay.stream_" /. total "probe.replay.");
    (* taped from a materialized replay, played back over the stream *)
    let arena_backend = backend_of_spec "arena" in
    let inst =
      L.Oracle.instance_for_trace oracle ~predict_cost:Cost_model.predict_len4 test
    in
    let playback_s =
      oracle_probe ~predictor:(L.Oracle.driver_predictor inst) ~expect:arena
        ~record_with:(fun predictor ->
          Driver.run_prepared ~predictor prepared arena_backend)
        ~play_with:(fun predictor ->
          Driver.run_source ~predictor (Source.of_file path) arena_backend)
    in
    set "oracle.online_cost_s" (Span.total "replay.stream_arena" -. playback_s)
  in
  {
    output;
    events = !n_events * List.length results;
    configs = List.length results;
    reads = [ path ];
    probes;
  }

(* nearest-rank percentile *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let tune_perl_traced ctx =
  let train_path = file ctx "perl-train.lpt" and test_path = file ctx "perl-test.lpt" in
  let train, train_events = decode train_path in
  let test, test_events = decode test_path in
  let prepared = span "driver.prepare" (fun () -> Driver.prepare test) in
  let outcome =
    span "tune.search" (fun () ->
        L.Tune.search ~options:(tune_options ctx) ~workload:tune_workload ~train
          ~test ())
  in
  let output = span "report.render" (fun () -> tune_json outcome) in
  set_decode ~events:(train_events + test_events);
  let search_s = Span.total "tune.search" in
  let n = List.length outcome.results in
  set "tune.search_s" search_s;
  set_int "tune.candidates" n;
  let arena = List.assoc "arena-len4" outcome.baselines in
  set "oracle.mispredict_ratio" (mispredict_ratio arena.metrics);
  let probes () =
    (* each result's spec replayed alone, with the predictor the search
       trained for its (threshold, depth) *)
    let predictors = Hashtbl.create 16 in
    let predictor_for (c : L.Tune.candidate) =
      let k = (c.threshold, c.depth) in
      match Hashtbl.find_opt predictors k with
      | Some p -> p
      | None ->
          let config =
            {
              L.Config.default with
              short_lived_threshold = c.threshold;
              policy =
                (if c.depth = 0 then Lp_callchain.Site.Complete_chain
                 else Lp_callchain.Site.Last_callers c.depth);
            }
          in
          let p =
            span "probe.train" (fun () ->
                L.Predictor.build ~config ~funcs:train.funcs
                  (L.Train.collect ~config train))
          in
          Hashtbl.replace predictors k p;
          p
    in
    let replay ~predict_cost (c : L.Tune.candidate) =
      let backend = backend_of_spec (L.Tune.spec_string c) in
      if L.Tune.uses_prediction c then
        Driver.run_prepared
          ~predictor:
            {
              Driver.predicted = L.Predictor.for_trace_pooled (predictor_for c) test;
              predict_cost;
              short_threshold = c.threshold;
              on_outcome = None;
            }
          prepared backend
      else Driver.run_prepared prepared backend
    in
    let len4 = Cost_model.predict_len4 in
    List.iter
      (fun (r : L.Tune.result) ->
        if L.Tune.uses_prediction r.candidate then ignore (predictor_for r.candidate))
      outcome.results;
    let timed =
      List.map
        (fun (r : L.Tune.result) ->
          let s = Span.enter "probe.candidate" in
          let m = replay ~predict_cost:len4 r.candidate in
          Span.leave s;
          check (L.Tune.key r.candidate) (m = r.metrics);
          (L.Tune.key r.candidate, Span.duration s))
        outcome.results
    in
    List.iter
      (fun (name, (r : L.Tune.result)) ->
        let predict_cost = if name = "arena-cce" then L.Simulate.cce_cost test else len4 in
        check name
          (span "probe.baseline" (fun () -> replay ~predict_cost r.candidate) = r.metrics))
      outcome.baselines;
    let candidate_s = List.map snd timed in
    let sum = List.fold_left ( +. ) 0. in
    set "tune.candidate_p50_ms" (1000. *. percentile 0.5 candidate_s);
    set "tune.candidate_p90_ms" (1000. *. percentile 0.9 candidate_s);
    set "tune.overhead_s"
      (search_s -. sum candidate_s -. Span.total "probe.baseline");
    let null = null_replay prepared in
    List.iter
      (fun b ->
        let t =
          Option.value ~default:0.
            (List.assoc_opt
               (Printf.sprintf "%s|d0|t%d" b config.short_lived_threshold)
               timed)
        in
        set (Printf.sprintf "replay.%s_s" b) t;
        set (Printf.sprintf "backend.%s_self_s" b) (t -. null))
      backends;
    let parallel =
      span "probe.parallel_2d" (fun () ->
          L.Parallel.map ~domains:2 (replay ~predict_cost:len4)
            (List.map (fun (r : L.Tune.result) -> r.candidate) outcome.results))
    in
    check "2-domain replays"
      (parallel = List.map (fun (r : L.Tune.result) -> r.metrics) outcome.results);
    set "parallel.speedup_2d" (sum candidate_s /. Span.total "probe.parallel_2d")
  in
  {
    output;
    events = test_events * (n + List.length outcome.baselines);
    configs = n;
    reads = [ train_path; test_path ];
    probes;
  }

let audit_perl_traced ctx =
  let train_path = file ctx "perl-train.v3.lpt" and test_path = file ctx "perl-test.v3.lpt" in
  let model =
    train_model ~traced:true (span "trace.index" (fun () -> Sharded.load train_path))
  in
  let model_path = Filename.temp_file ~temp_dir:ctx.dir "perl" ".lpmodel" in
  span "model.save" (fun () -> L.Model.save model_path model);
  let opts = audit_options (span "model.load" (fun () -> L.Model.load model_path)) in
  Sys.remove model_path;
  let sh = span "trace.index" (fun () -> Sharded.load test_path) in
  let diags = span "audit.fold" (fun () -> Lp_analysis.Audit.run_sharded opts sh) in
  let output = span "report.render" (fun () -> audit_json diags) in
  let fold_s = Span.total "audit.fold" in
  set "trace.index_s" (Span.total "trace.index");
  set "shard.train_s" (Span.total "shard.train");
  set "train.build_s" (Span.total "train.build");
  set "audit.fold_s" fold_s;
  set "audit.fold_mev_per_s" (float_of_int (Sharded.n_events sh) /. fold_s /. 1e6);
  set_int "audit.diagnostics" (List.length diags);
  {
    output;
    events = Sharded.n_events sh;
    configs = 1;
    reads = [ train_path; test_path ];
    probes = no_probes;
  }

let workloads =
  [
    ("simulate-perl", (simulate_perl, simulate_perl_traced));
    ("stream-gawk-online", (stream_gawk, stream_gawk_traced));
    ("tune-perl", (tune_perl, tune_perl_traced));
    ("audit-perl", (audit_perl, audit_perl_traced));
  ]

(* -- the traced run's bookkeeping ---------------------------------------------- *)

let file_size path = (Unix.stat path).Unix.st_size

let traced workload ctx ~trace_file ~run_id =
  Timings.set_enabled true;
  let gc0 = Gc.quick_stat () in
  let root = Span.enter workload in
  let r = (snd (List.assoc workload workloads)) ctx in
  Span.leave root;
  let gc1 = Gc.quick_stat () in
  let counter k = Option.value (List.assoc_opt k (Timings.counters ())) ~default:0 in
  set_int "trace.decodes" (counter "trace.decodes");
  set_int "driver.validations" (counter "replay.validations");
  set "driver.prepare_s" (Span.total "driver.prepare");
  set "report.render_s" (Span.total "report.render");
  (let bytes = counter "trace.bytes_read" in
   if bytes > 0 then
     set "trace.read_amplification"
       (float_of_int bytes
       /. float_of_int (List.fold_left (fun a p -> a + file_size p) 0 r.reads)));
  set "gc.minor_words_per_event"
    ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int r.events);
  set_int "gc.major_collections" (gc1.Gc.major_collections - gc0.Gc.major_collections);
  set "gc.top_heap_mwords" (float_of_int gc1.Gc.top_heap_words /. 1e6);
  set "obs.unattributed_ratio" (Span.self root /. Span.duration root);
  let probes = Span.enter "probes" in
  r.probes ();
  Span.leave probes;
  Out_channel.with_open_bin trace_file (fun oc ->
      output_string oc (Json.to_string (Span.to_chrome_json ~run_id)));
  Printf.eprintf "%-32s %6s %10s %10s\n" "span" "calls" "total_s" "self_s";
  List.iter
    (fun (name, (calls, tot, slf)) ->
      Printf.eprintf "%-32s %6d %10.4f %10.4f\n" name calls tot slf)
    (Span.self_table ());
  (r, Span.duration probes)

(* -- commands -------------------------------------------------------------------- *)

let parse spec usage =
  let args = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  Arg.parse_argv ~current:(ref 0) args spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage

let gen () =
  let program = ref "" and input = ref "" and scale = ref 1.0 and dir = ref "." in
  let v3 = ref false in
  parse
    [
      ("--program", Arg.Set_string program, "P workload program");
      ("--input", Arg.Set_string input, "I input set");
      ("--scale", Arg.Set_float scale, "S input scale");
      ("--dir", Arg.Set_string dir, "D output directory");
      ("--v3", Arg.Set v3, " also write the sharded v3 form");
    ]
    "lpperf gen --program P --input I --scale S --dir D [--v3]";
  let t0 = now () in
  let trace = Lp_workloads.Registry.trace ~scale:!scale ~program:!program ~input:!input () in
  let t1 = now () in
  let base = Filename.concat !dir (!program ^ "-" ^ !input) in
  Io.write_file (base ^ ".lpt") trace;
  if !v3 then begin
    let trace = Trace.tile (Io.read_file (base ^ ".lpt")) 1 in
    Out_channel.with_open_bin (base ^ ".v3.lpt") (fun oc -> Binio.output_v3 oc trace)
  end;
  Printf.printf "{\"generate_s\": %.6f, \"encode_s\": %.6f}\n" (t1 -. t0) (now () -. t1)

let run () =
  let workload = ref "" and dir = ref "." and tune_seed = ref 42 and out = ref "" in
  let setup_only = ref false and trace_file = ref "" and run_id = ref "" in
  parse
    [
      ("--workload", Arg.Set_string workload, "W workload name");
      ("--dir", Arg.Set_string dir, "D input directory");
      ("--tune-seed", Arg.Set_int tune_seed, "N Tune.search seed");
      ("--out", Arg.Set_string out, "F where to write the output");
      ("--setup-only", Arg.Set setup_only, " exit when set-up ends");
      ("--trace", Arg.Set_string trace_file, "FILE traced run; spans go here");
      ("--run-id", Arg.Set_string run_id, "ID run id stamped on every span");
    ]
    "lpperf run --workload W --dir D --tune-seed N --out F [--setup-only] \
     [--trace FILE --run-id ID]";
  if not (List.mem_assoc !workload workloads) then
    failwith
      (Printf.sprintf "lpperf: unknown workload %S (known: %s)" !workload
         (String.concat ", " (List.map fst workloads)));
  (* one domain: the benchmark is a single-domain closed loop *)
  L.Parallel.set_domains 1;
  let setup_end = ref nan in
  let line ~events ~configs extra =
    Printf.printf "{\"setup_end\": %s, \"events\": %d, \"configs\": %d%s}\n%!"
      (if Float.is_nan !setup_end then "null" else Printf.sprintf "%.6f" !setup_end)
      events configs extra
  in
  let mark_setup () =
    setup_end := now ();
    if !setup_only then begin
      line ~events:0 ~configs:0 "";
      exit 0
    end
  in
  let ctx = { dir = !dir; tune_seed = !tune_seed; mark_setup } in
  let r, extra =
    if !trace_file = "" then ((fst (List.assoc !workload workloads)) ctx, "")
    else
      let r, probes_s = traced !workload ctx ~trace_file:!trace_file ~run_id:!run_id in
      let metrics =
        String.concat ", "
          (List.map
             (fun n -> Printf.sprintf "%S: %.9g" n (Hashtbl.find layer n))
             layer_names)
      in
      (r, Printf.sprintf ", \"probes_s\": %.6f, \"metrics\": {%s}" probes_s metrics)
  in
  Out_channel.with_open_bin !out (fun oc -> output_string oc r.output);
  line ~events:r.events ~configs:r.configs extra

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "gen" -> gen ()
  | "run" -> run ()
  | _ ->
      prerr_endline "usage: lpperf (gen|run) ...  (see the comment at the top of lpperf.ml)";
      exit 2
