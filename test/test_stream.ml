(* Streamed-vs-materialized equivalence for the pull-based event-source
   architecture: every registry backend must produce byte-identical
   metrics whether it replays a materialized trace or pulls the same
   events from a text parser, a binary decoder, an in-memory cursor, or a
   live workload generator — sequentially and across domains.  Plus the
   satellite contracts: streaming training/stats/lifetimes/lint
   equivalence, the LPALLOC_DOMAINS usage error, the streaming
   observability counters, and file/offset context on I/O failures. *)

module Rt = Lp_ialloc.Runtime
module Source = Lp_trace.Source
module D = Lp_analysis.Diagnostic

(* random traces via the instrumented runtime, as in test_properties *)
let random_trace_gen =
  QCheck.Gen.(
    list_size (int_range 1 60) (pair (int_range 1 200) (int_range 0 6))
    >|= fun ops ->
    let rt = Rt.create ~program:"fuzz" ~input:"gen" () in
    let funcs = Array.init 4 (fun i -> Rt.func rt (Printf.sprintf "f%d" i)) in
    let live = ref [] in
    List.iter
      (fun (size, action) ->
        match action with
        | 0 | 1 | 2 ->
            let depth = 1 + (size mod 3) in
            for d = 0 to depth - 1 do
              Rt.enter rt funcs.(d)
            done;
            let h = Rt.alloc rt ~size in
            Rt.touch rt h (1 + (size mod 4));
            for _ = 1 to depth do
              Rt.leave rt
            done;
            live := h :: !live
        | 3 | 4 -> (
            match !live with
            | h :: rest ->
                Rt.free rt h;
                live := rest
            | [] -> ())
        | _ -> Rt.non_heap_refs rt size)
      ops;
    Rt.finish rt)

(* the realloc-bearing twin of [random_trace_gen], for the v3-only paths
   (the v1/v2 writers refuse these traces); every generated trace carries
   at least one resize, and both grow and shrink directions occur *)
let random_realloc_trace_gen =
  QCheck.Gen.(
    list_size (int_range 5 60) (pair (int_range 1 200) (int_range 0 8))
    >|= fun ops ->
    let rt = Rt.create ~program:"fuzz" ~input:"realloc" () in
    let funcs = Array.init 4 (fun i -> Rt.func rt (Printf.sprintf "f%d" i)) in
    let live = ref [] in
    let reallocs = ref 0 in
    List.iter
      (fun (size, action) ->
        match action with
        | 0 | 1 | 2 ->
            let depth = 1 + (size mod 3) in
            for d = 0 to depth - 1 do
              Rt.enter rt funcs.(d)
            done;
            let h = Rt.alloc rt ~size in
            Rt.touch rt h (1 + (size mod 4));
            for _ = 1 to depth do
              Rt.leave rt
            done;
            live := h :: !live
        | 3 | 4 -> (
            match !live with
            | h :: rest ->
                Rt.free rt h;
                live := rest
            | [] -> ())
        | 5 | 6 -> (
            (* resize the most recent survivor inside a frame, so the
               resize site has its own call-chain *)
            match !live with
            | h :: _ ->
                Rt.enter rt funcs.(size mod 4);
                ignore (Rt.realloc rt h ~new_size:(1 + (size * 7 mod 311)) : int);
                Rt.leave rt;
                incr reallocs
            | [] -> ())
        | _ -> Rt.non_heap_refs rt size)
      ops;
    if !reallocs = 0 then begin
      let h = Rt.alloc rt ~size:48 in
      ignore (Rt.realloc rt h ~new_size:96 : int)
    end;
    Rt.finish rt)

let arena_config = Lifetime.Config.arena_config Lifetime.Config.default

(* the three serialized/in-memory source kinds of one trace *)
let sources_of trace =
  let text = Lp_trace.Textio.to_string trace in
  let bin = Lp_trace.Binio.to_string trace in
  [
    ("of_trace", fun () -> Source.of_trace trace);
    ("text", fun () -> Source.of_string ~name:"fuzz.txt" text);
    ("binary", fun () -> Source.of_string ~name:"fuzz.lpt" bin);
  ]

(* -- replay: every backend, every source kind ------------------------------------ *)

let backend_replay_equivalence =
  QCheck.Test.make ~count:30
    ~name:"streamed replay equals materialized for every backend and source"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let srcs = sources_of trace in
      List.for_all
        (fun name ->
          let expect =
            Lp_allocsim.Metrics.to_json
              (Lp_allocsim.Driver.run trace
                 (Lp_allocsim.Registry.backend ~arena_config name))
          in
          List.for_all
            (fun (kind, make) ->
              let got =
                Lp_allocsim.Metrics.to_json
                  (Lp_allocsim.Driver.run_source (make ())
                     (Lp_allocsim.Registry.backend ~arena_config name))
              in
              if got <> expect then
                QCheck.Test.fail_reportf "%s via %s source:\n%s\nvs\n%s" name
                  kind got expect;
              true)
            srcs)
        (Lp_allocsim.Registry.names ()))

(* the realloc twin: v3 is the only binary version that carries resizes,
   decoded sequentially and through the index with chunk boundaries *)
let realloc_replay_equivalence =
  QCheck.Test.make ~count:30
    ~name:"streamed replay equals materialized on realloc traces"
    (QCheck.make random_realloc_trace_gen)
    (fun trace ->
      let v3 = Lp_trace.Binio.to_string_v3 ~chunk_events:5 trace in
      let text = Lp_trace.Textio.to_string trace in
      let srcs =
        [
          ("of_trace", fun () -> Source.of_trace trace);
          ("text", fun () -> Source.of_string ~name:"fuzz.txt" text);
          ("v3", fun () -> Source.of_string ~name:"fuzz.lpt" v3);
          ( "v3 indexed",
            fun () ->
              Source.of_indexed
                (Lp_trace.Binio.index ~name:"fuzz.lpt"
                   (Lp_trace.Binio.big_of_string v3)) );
        ]
      in
      List.for_all
        (fun name ->
          let backend () = Lp_allocsim.Registry.backend ~arena_config name in
          let expect =
            Lp_allocsim.Metrics.to_json (Lp_allocsim.Driver.run trace (backend ()))
          in
          List.iter
            (fun (kind, make) ->
              let got =
                Lp_allocsim.Metrics.to_json
                  (Lp_allocsim.Driver.run_source (make ()) (backend ()))
              in
              if got <> expect then
                QCheck.Test.fail_reportf "%s via %s source:\n%s\nvs\n%s" name
                  kind got expect)
            srcs;
          true)
        (Lp_allocsim.Registry.names ()))

(* -- the generator source: effect-inverted workloads ------------------------------- *)

let generator_source_matches_trace program () =
  let trace = Lp_workloads.Registry.trace ~program ~input:"tiny" () in
  let gen = Lp_workloads.Registry.source ~program ~input:"tiny" () in
  let expect = Lp_trace.Source.fold (fun acc e -> e :: acc) [] (Source.of_trace trace) in
  let got = Lp_trace.Source.fold (fun acc e -> e :: acc) [] gen in
  Alcotest.(check int)
    (program ^ " event count")
    (List.length expect) (List.length got);
  if got <> expect then Alcotest.failf "%s: generator events differ" program;
  let c = Source.counters gen in
  Alcotest.(check (list int))
    (program ^ " counters")
    [ trace.instructions; trace.calls; trace.heap_refs; trace.total_refs ]
    [ c.Source.instructions; c.Source.calls; c.Source.heap_refs; c.Source.total_refs ];
  Alcotest.(check int) (program ^ " objects") trace.n_objects (Source.n_objects gen);
  for obj = 0 to trace.n_objects - 1 do
    if gen.Source.refs_of obj <> trace.obj_refs.(obj) then
      Alcotest.failf "%s: refs_of %d differs" program obj
  done

(* -- the full pipeline: Simulate.run_streamed -------------------------------------- *)

let sim_fingerprint sim =
  List.map
    (fun n -> (n, Lp_allocsim.Metrics.to_json (Lifetime.Simulate.metrics sim n)))
    (Lifetime.Simulate.names sim)

let simulate_streamed_equivalence () =
  let config = Lifetime.Config.default in
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let table = Lifetime.Train.collect ~config trace in
  let predictor = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
  let allocators = Lp_allocsim.Registry.names () in
  let oracle = Lifetime.Oracle.static predictor in
  let expect =
    sim_fingerprint
      (Lifetime.Simulate.run ~allocators ~config ~oracle ~test:trace ())
  in
  let bin = Lp_trace.Binio.to_string trace in
  let check_source what source =
    List.iter
      (fun domains ->
        let got =
          Lifetime.Parallel.with_domains domains (fun () ->
              sim_fingerprint
                (Lifetime.Simulate.run_streamed ~allocators ~config ~oracle
                   ~source ()))
        in
        Alcotest.(check (list (pair string string)))
          (Printf.sprintf "%s, %d domains" what domains)
          expect got)
      [ 1; 2 ]
  in
  check_source "binary" (fun () -> Source.of_string ~name:"perl.lpt" bin);
  check_source "of_trace" (fun () -> Source.of_trace trace);
  check_source "generator" (fun () ->
      Lp_workloads.Registry.source ~program:"perl" ~input:"tiny" ())

(* -- training ----------------------------------------------------------------------- *)

let train_streamed_equivalence =
  QCheck.Test.make ~count:50
    ~name:"streamed training produces an identical model"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let config = Lifetime.Config.default in
      let table = Fold_reference.collect ~config trace in
      let predictor = Lifetime.Predictor.build ~config ~funcs:trace.funcs table in
      let expect =
        Lifetime.Model.to_string
          (Lifetime.Model.of_training ~config ~trace table predictor)
      in
      List.for_all
        (fun (kind, make) ->
          let src : Source.t = make () in
          let st = Lp_trace.Pass.run (Lifetime.Train.pass ~config ()) src in
          let funcs = src.Source.funcs () in
          let predictor' =
            Lifetime.Predictor.build ~config ~funcs st.Lifetime.Train.table
          in
          let got =
            Lifetime.Model.to_string
              (Lifetime.Model.of_training_parts ~config
                 ~program:src.Source.program ~funcs
                 ~clock:st.Lifetime.Train.end_clock st.Lifetime.Train.table
                 predictor')
          in
          if got <> expect then
            QCheck.Test.fail_reportf "model differs via %s source" kind;
          true)
        (sources_of trace))

(* -- stats and lifetimes ------------------------------------------------------------- *)

let stats_streamed_equivalence =
  QCheck.Test.make ~count:50 ~name:"streamed stats equal materialized stats"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let expect = Fold_reference.stats trace in
      List.for_all
        (fun (kind, make) ->
          let got = Lp_trace.Pass.run Lp_trace.Stats.pass (make ()) in
          if got <> expect then
            QCheck.Test.fail_reportf "stats differ via %s source" kind;
          true)
        (sources_of trace))

let lifetimes_streamed_equivalence =
  QCheck.Test.make ~count:50
    ~name:"streamed lifetime summary equals materialized fold"
    (QCheck.make random_trace_gen)
    (fun trace ->
      let threshold = 32768 in
      (* the materialized fold as the lifetimes CLI performs it *)
      let lifetimes = Lp_trace.Lifetimes.compute trace in
      let hist = Lp_quantile.Histogram.create () in
      let short = ref 0 and total = ref 0 in
      Lp_trace.Trace.iter_allocs trace (fun ~obj ~size ~chain:_ ~key:_ ~tag:_ ->
          Lp_quantile.Histogram.observe_weighted hist ~weight:size
            (float_of_int lifetimes.lifetime.(obj));
          total := !total + size;
          if Lp_trace.Lifetimes.is_short_lived lifetimes ~threshold obj then
            short := !short + size);
      List.for_all
        (fun (kind, make) ->
          let s =
            Lp_trace.Pass.run (Lp_trace.Lifetimes.summary ~threshold) (make ())
          in
          let same_quartiles =
            (* a trace without allocations has an empty histogram on both
               paths; quartiles raise there, so compare counts instead *)
            if Lp_quantile.Histogram.count hist = 0 then
              Lp_quantile.Histogram.count s.Lp_trace.Lifetimes.hist = 0
            else
              Lp_quantile.Histogram.quartiles s.Lp_trace.Lifetimes.hist
              = Lp_quantile.Histogram.quartiles hist
          in
          if
            (not same_quartiles)
            || s.Lp_trace.Lifetimes.short_bytes <> !short
            || s.Lp_trace.Lifetimes.total_alloc_bytes <> !total
          then QCheck.Test.fail_reportf "lifetime summary differs via %s" kind;
          true)
        (sources_of trace))

(* -- lint: identical diagnostics on the corrupt corpus ------------------------------ *)

let corpus_files =
  [
    "double_free.txt";
    "free_without_alloc.txt";
    "touch_after_free.txt";
    "size_mismatch_at_free.txt";
    "nonpositive_size.txt";
    "realloc_of_unallocated.txt";
    "realloc_after_free.txt";
    "realloc_size_regression.txt";
    "non_monotonic_birth.txt";
    "leaked_at_exit.txt";
    "chain_anomaly.txt";
  ]

let lint_stream_corpus_equivalence () =
  List.iter
    (fun file ->
      let path = "corrupt_traces/" ^ file in
      let expect = D.list_to_json (Lp_analysis.Lint.run (Lp_trace.Io.read_file path)) in
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let got =
        D.list_to_json
          (Lp_trace.Pass.run (Lp_analysis.Lint.pass ())
             (Source.of_string ~name:path contents))
      in
      Alcotest.(check string) file expect got)
    corpus_files

(* -- satellite: LPALLOC_DOMAINS usage errors ---------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let domains_env_parse () =
  (match Lifetime.Parallel.parse_env_value "4" with
  | Ok 4 -> ()
  | _ -> Alcotest.fail "\"4\" should parse as 4");
  (match Lifetime.Parallel.parse_env_value " 2 " with
  | Ok 2 -> ()
  | _ -> Alcotest.fail "whitespace should be tolerated");
  List.iter
    (fun bad ->
      match Lifetime.Parallel.parse_env_value bad with
      | Ok n -> Alcotest.failf "%S should not parse (got %d)" bad n
      | Error msg ->
          if not (contains msg (Printf.sprintf "%S" bad)) then
            Alcotest.failf "error for %S does not name the value: %s" bad msg)
    [ "banana"; "0"; "-3"; ""; "2.5" ]

let domains_env_check () =
  Unix.putenv "LPALLOC_DOMAINS" "banana";
  (match Lifetime.Parallel.check_env () with
  | Error msg ->
      if not (String.length msg > 0 && String.sub msg 0 14 = "LPALLOC_DOMAIN") then
        Alcotest.failf "unexpected message: %s" msg
  | Ok () -> Alcotest.fail "invalid env value accepted");
  Unix.putenv "LPALLOC_DOMAINS" "2";
  match Lifetime.Parallel.check_env () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "valid env value rejected: %s" msg

(* -- satellite: streaming observability counters ------------------------------------ *)

let counter value = Option.value ~default:0 (List.assoc_opt value (Lp_obs.Timings.counters ()))

let streaming_counters () =
  Lp_obs.Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Lp_obs.Timings.set_enabled false) @@ fun () ->
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 11 |]) random_trace_gen
  in
  let before = counter "trace.events_streamed" in
  Source.iter ignore (Source.of_trace trace);
  let streamed = counter "trace.events_streamed" - before in
  Alcotest.(check int) "events_streamed counts the drain"
    (Array.length trace.events) streamed;
  if counter "trace.peak_resident_words" <= 0 then
    Alcotest.fail "peak_resident_words not recorded"

(* -- satellite: I/O failures carry file context ------------------------------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "lpstream" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      f path)

let expect_failure_naming path f =
  match f () with
  | _ -> Alcotest.failf "no failure raised for %s" path
  | exception Failure msg ->
      if not (contains msg path) then
        Alcotest.failf "failure message lacks the file name: %s" msg

let io_error_context () =
  (* text: malformed line -> name and line number *)
  with_temp_file "trace 1\nbogus line\n" (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path);
      expect_failure_naming path (fun () ->
          Source.iter ignore (Source.of_file path)));
  (* text: truncated (no end) *)
  with_temp_file "trace 1\nprogram p\ninput i\n" (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path));
  (* binary: truncated after the magic *)
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 5 |]) random_trace_gen
  in
  let bin = Lp_trace.Binio.to_string trace in
  with_temp_file (String.sub bin 0 (String.length bin / 2)) (fun path ->
      expect_failure_naming path (fun () -> Lp_trace.Io.read_file path);
      expect_failure_naming path (fun () ->
          Source.iter ignore (Source.of_file path)))

(* -- satellite: deferred decode errors and event counts ---------------------------- *)

(* objects 0..39 allocated (events 0..39), object 0 freed twice (events
   40 and 41), then objects 1..39 freed: 81 events, well inside one
   block *)
let double_free_event = 41

let double_free_trace () =
  let funcs = Lp_callchain.Func.create_table () in
  let main = Lp_callchain.Func.intern funcs "main" in
  let n = 40 in
  let alloc obj = Lp_trace.Event.Alloc { obj; size = 16; chain = 0; key = 5; tag = -1 } in
  let free obj = Lp_trace.Event.Free { obj; size = -1 } in
  {
    Lp_trace.Trace.program = "t";
    input = "i";
    events =
      Array.concat
        [ Array.init n alloc; [| free 0; free 0 |]; Array.init (n - 1) (fun i -> free (i + 1)) ];
    chains = [| [| main |] |];
    funcs;
    n_objects = n;
    instructions = 1;
    calls = 1;
    heap_refs = 1;
    total_refs = 1;
    obj_refs = Array.make n 1;
    tags = [||];
  }

(* events a source yields before its decode error *)
let yielded_before_failure src =
  let n = ref 0 in
  match
    while Source.next src <> None do
      incr n
    done
  with
  | () -> Alcotest.fail "corrupt trace drained without error"
  | exception Failure _ -> !n

let deferred_decode_errors () =
  let trace = double_free_trace () in
  let expect =
    Printf.sprintf
      "Driver.run: free of never-allocated or already-freed object 0 at event %d"
      double_free_event
  in
  let check kind make =
    (* the bytes go bad after the double free but inside its block *)
    let yielded = yielded_before_failure (make ()) in
    if yielded <= double_free_event + 1 then
      Alcotest.failf "%s: corruption at event %d is not after the double free" kind
        yielded;
    match
      Lp_allocsim.Driver.run_source (make ()) (Lp_allocsim.Registry.backend "bsd")
    with
    | _ -> Alcotest.failf "%s: replay of a double free succeeded" kind
    | exception Failure msg -> Alcotest.(check string) kind expect msg
  in
  let bin = Lp_trace.Binio.to_string trace in
  let cut = String.sub bin 0 (String.length bin - 12) in
  check "binary" (fun () -> Source.of_string ~name:"cut.lpt" cut);
  let text = Lp_trace.Textio.to_string trace in
  let lines = String.split_on_char '\n' text in
  let bad =
    String.concat "\n"
      (List.map (fun l -> if l = "f 30" then "f thirty" else l) lines)
  in
  if bad = text then Alcotest.fail "text corruption did not apply";
  check "text" (fun () -> Source.of_string ~name:"bad.txt" bad)

let stage_items name =
  match
    List.find_opt
      (fun (s : Lp_obs.Timings.stage) -> s.Lp_obs.Timings.name = name)
      (Lp_obs.Timings.stages ())
  with
  | Some s -> s.Lp_obs.Timings.items
  | None -> 0

let replay_counts_events () =
  Lp_obs.Timings.set_enabled true;
  Fun.protect ~finally:(fun () -> Lp_obs.Timings.set_enabled false) @@ fun () ->
  (* several blocks' worth of events, so counting blocks would show *)
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let n = Array.length trace.Lp_trace.Trace.events in
  let bin = Lp_trace.Binio.to_string trace in
  let streamed = counter "trace.events_streamed" in
  let items = stage_items "replay/first-fit" in
  ignore
    (Lp_allocsim.Driver.run_source
       (Source.of_string ~name:"perl.lpt" bin)
       (Lp_allocsim.Registry.backend "first-fit"));
  Alcotest.(check int) "trace.events_streamed" n
    (counter "trace.events_streamed" - streamed);
  Alcotest.(check int) "replay/first-fit items" n
    (stage_items "replay/first-fit" - items)

(* -- Grow: the shared growable-array substrate -------------------------------------- *)

let grow_basics () =
  let g = Lp_trace.Grow.create ~default:(-7) 2 in
  Alcotest.(check int) "empty length" 0 (Lp_trace.Grow.length g);
  Alcotest.(check int) "default beyond length" (-7) (Lp_trace.Grow.get g 41);
  Lp_trace.Grow.set g 5 99;
  Alcotest.(check int) "set extends" 6 (Lp_trace.Grow.length g);
  Alcotest.(check int) "gap holds default" (-7) (Lp_trace.Grow.get g 3);
  Alcotest.(check int) "set value" 99 (Lp_trace.Grow.get g 5);
  Lp_trace.Grow.push g 7;
  Alcotest.(check int) "push appends" 7 (Lp_trace.Grow.get g 6);
  Alcotest.(check (array int)) "to_array"
    [| -7; -7; -7; -7; -7; 99; 7 |] (Lp_trace.Grow.to_array g)

let suites =
  [
    ( "stream",
      [
        QCheck_alcotest.to_alcotest backend_replay_equivalence;
        QCheck_alcotest.to_alcotest realloc_replay_equivalence;
        QCheck_alcotest.to_alcotest train_streamed_equivalence;
        QCheck_alcotest.to_alcotest stats_streamed_equivalence;
        QCheck_alcotest.to_alcotest lifetimes_streamed_equivalence;
        Alcotest.test_case "simulate --stream pipeline equivalence" `Quick
          simulate_streamed_equivalence;
        Alcotest.test_case "lint streams the corrupt corpus identically" `Quick
          lint_stream_corpus_equivalence;
        Alcotest.test_case "grow array basics" `Quick grow_basics;
      ]
      @ List.map
          (fun program ->
            Alcotest.test_case
              (Printf.sprintf "generator source: %s" program)
              `Quick
              (generator_source_matches_trace program))
          Lp_workloads.Registry.names );
    ( "stream-satellites",
      [
        Alcotest.test_case "LPALLOC_DOMAINS parse errors" `Quick domains_env_parse;
        Alcotest.test_case "LPALLOC_DOMAINS env check" `Quick domains_env_check;
        Alcotest.test_case "streaming counters" `Quick streaming_counters;
        Alcotest.test_case "I/O failures name the file" `Quick io_error_context;
        Alcotest.test_case "decode errors wait behind replay errors" `Quick
          deferred_decode_errors;
        Alcotest.test_case "streamed replay counts events, not blocks" `Quick
          replay_counts_events;
      ] );
  ]
