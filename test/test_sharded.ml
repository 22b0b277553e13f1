(* The sharded (.lpt v3) trace layout and its satellites: v2 -> v3 -> v2
   byte-identity, seek/sub window determinism, every fold-protocol pass
   (stats, lifetimes, training, lint, audit) agreeing over every source
   kind, random covering partitions and domain counts, the corrupt
   corpus linted range-parallel, and the codec/capacity/GC regression
   tests for the bugs fixed alongside. *)

module Rt = Lp_ialloc.Runtime
module B = Lp_trace.Binio
module Source = Lp_trace.Source
module Sharded = Lp_trace.Sharded
module D = Lp_analysis.Diagnostic

let events src = List.rev (Source.fold (fun acc e -> e :: acc) [] src)

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t

let rec take n l =
  if n <= 0 then [] else match l with [] -> [] | h :: t -> h :: take (n - 1) t

(* -- wire codec satellites: zigzag/varint over the full int range ------------------- *)

let wire_corner_cases =
  [ min_int; min_int + 1; -129; -128; -2; -1; 0; 1; 2; 63; 64; 127; 128;
    0x3FFF; 0x4000; max_int - 1; max_int ]

let wire_explicit () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "unzigzag (zigzag %d)" n)
        n
        (B.Wire.unzigzag (B.Wire.zigzag n));
      Alcotest.(check int)
        (Printf.sprintf "zigzag wire %d" n)
        n
        (B.Wire.zigzag_of_string (B.Wire.zigzag_to_string n));
      Alcotest.(check int)
        (Printf.sprintf "varint_bits wire %d" n)
        n
        (B.Wire.varint_bits_of_string (B.Wire.varint_bits_to_string n));
      if n >= 0 then
        Alcotest.(check int)
          (Printf.sprintf "varint wire %d" n)
          n
          (B.Wire.varint_of_string (B.Wire.varint_to_string n)))
    wire_corner_cases;
  (* small magnitudes get small codes — the property the deltas rely on *)
  Alcotest.(check int) "zigzag 0" 0 (B.Wire.zigzag 0);
  Alcotest.(check int) "zigzag -1" 1 (B.Wire.zigzag (-1));
  Alcotest.(check int) "zigzag 1" 2 (B.Wire.zigzag 1);
  Alcotest.(check int) "zigzag -2" 3 (B.Wire.zigzag (-2))

(* a generator that actually reaches the top bits, unlike Gen.int *)
let any_int =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      frequency
        [
          (1, oneofl [ min_int; min_int + 1; -1; 0; 1; max_int - 1; max_int ]);
          ( 6,
            map2
              (fun hi lo -> (hi lsl 31) lxor lo)
              (int_range (-(1 lsl 31)) ((1 lsl 31) - 1))
              (int_range 0 ((1 lsl 31) - 1)) );
        ])

let wire_roundtrip_prop =
  QCheck.Test.make ~count:500
    ~name:"wire codecs round-trip the full native int range" any_int
    (fun n ->
      B.Wire.unzigzag (B.Wire.zigzag n) = n
      && B.Wire.zigzag_of_string (B.Wire.zigzag_to_string n) = n
      && B.Wire.varint_bits_of_string (B.Wire.varint_bits_to_string n) = n
      && (n < 0 || B.Wire.varint_of_string (B.Wire.varint_to_string n) = n))

let expect_failure name sub f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Failure" name
  | exception Failure m ->
      if
        not
          (String.length m >= String.length sub
          && (let found = ref false in
              for i = 0 to String.length m - String.length sub do
                if String.sub m i (String.length sub) = sub then found := true
              done;
              !found))
      then Alcotest.failf "%s: %S does not mention %S" name m sub

let wire_rejections () =
  (match B.Wire.varint_to_string (-1) with
  | _ -> Alcotest.fail "encoding -1 as unsigned varint should be rejected"
  | exception Invalid_argument _ -> ());
  expect_failure "negative bit pattern into unsigned decode" "unsigned"
    (fun () -> B.Wire.varint_of_string (B.Wire.varint_bits_to_string (-1)));
  expect_failure "overlong varint" "too long" (fun () ->
      B.Wire.varint_bits_of_string (String.make 10 '\xff'));
  expect_failure "trailing bytes" "trailing bytes" (fun () ->
      B.Wire.varint_of_string "\x05\x00");
  expect_failure "truncated varint" "unexpected end" (fun () ->
      B.Wire.varint_of_string "\xff")

(* -- satellite: Grow.ensure clamps at Sys.max_array_length -------------------------- *)

let grow_capacity_overflow () =
  let g = Lp_trace.Grow.create 4 in
  Lp_trace.Grow.set g 2 7;
  Alcotest.(check int) "set/get" 7 (Lp_trace.Grow.get g 2);
  let oob n =
    Alcotest.check_raises
      (Printf.sprintf "ensure %d" n)
      (Failure
         (Printf.sprintf
            "Grow.ensure: requested length %d exceeds Sys.max_array_length (%d)"
            n Sys.max_array_length))
      (fun () -> Lp_trace.Grow.ensure g n)
  in
  oob (Sys.max_array_length + 1);
  oob max_int;
  (* the huge requests must not have disturbed the array *)
  Alcotest.(check int) "contents survive the rejection" 7 (Lp_trace.Grow.get g 2);
  Lp_trace.Grow.ensure g 64;
  Alcotest.(check int) "normal growth still works" 7 (Lp_trace.Grow.get g 2)

(* -- satellite: flag bytes and zero-copy freeze ------------------------------------- *)

let grow_flags_and_freeze () =
  let f = Lp_trace.Grow.Flags.create 2 in
  Alcotest.(check int) "unwritten reads 0" 0 (Lp_trace.Grow.Flags.get f 1000);
  Lp_trace.Grow.Flags.add f 100 1;
  Lp_trace.Grow.Flags.add f 100 4;
  Alcotest.(check int) "bits accumulate" 5 (Lp_trace.Grow.Flags.get f 100);
  Alcotest.(check bool) "mem" true (Lp_trace.Grow.Flags.mem f 100 4);
  Alcotest.(check bool) "not mem" false (Lp_trace.Grow.Flags.mem f 100 2);
  Alcotest.(check int) "neighbours untouched" 0 (Lp_trace.Grow.Flags.get f 99);
  (* an exactly full table hands over its storage; any other copies *)
  let g = Lp_trace.Grow.create 16 in
  for i = 0 to 15 do Lp_trace.Grow.push g i done;
  let a = Lp_trace.Grow.freeze g in
  Alcotest.(check (array int)) "full" (Array.init 16 Fun.id) a;
  let g = Lp_trace.Grow.create 16 in
  Lp_trace.Grow.push g 7;
  Alcotest.(check (array int)) "partial" [| 7 |] (Lp_trace.Grow.freeze g)

(* -- satellite: the decoder allocates only the events it yields ------------------- *)

(* each decoded event costs its own block plus the [Some] around it
   (at most 7 + 2 words); the per-event closures the decoder once built
   cost about 22 words an event, so a bound of 12 catches their return *)
let decode_minor_words () =
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let buf = B.big_of_string (B.to_string trace) in
  let d = B.decoder ~name:"perl-tiny.lpt" buf in
  let n = ref 0 in
  let w0 = Gc.minor_words () in
  let rec go () =
    match B.decode_next d with
    | Some _ ->
        incr n;
        go ()
    | None -> ()
  in
  go ();
  let per_event = (Gc.minor_words () -. w0) /. float_of_int !n in
  Alcotest.(check int) "every event decoded"
    (Array.length trace.Lp_trace.Trace.events) !n;
  if per_event > 12. then
    Alcotest.failf "decoding allocates %.1f minor words per event (bound 12)"
      per_event

(* -- satellite: no stop-the-world full major per job in parallel fan-out ------------ *)

let map_sources_gc_behavior () =
  let trace =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |])
      Test_stream.random_trace_gen
  in
  let make () = Source.of_trace trace in
  let job src = Source.fold (fun n _ -> n + 1) 0 src in
  let jobs = List.init 8 (fun _ -> job) in
  let majors () = (Gc.quick_stat ()).Gc.major_collections in
  (* sequential path: one forced full major per job keeps the high-water
     mark one-job-sized *)
  let before = majors () in
  ignore (Lifetime.Parallel.map_sources ~domains:1 make jobs);
  let seq_delta = majors () - before in
  if seq_delta < List.length jobs then
    Alcotest.failf
      "sequential map_sources ran %d major cycles for %d jobs (expected one per job)"
      seq_delta (List.length jobs);
  (* parallel path: a full major per job is a stop-the-world barrier that
     serializes the pool, so it must not happen *)
  let before = majors () in
  ignore (Lifetime.Parallel.map_sources ~domains:2 make jobs);
  let par_delta = majors () - before in
  if par_delta >= List.length jobs then
    Alcotest.failf "parallel map_sources forced %d major cycles for %d jobs"
      par_delta (List.length jobs)

(* -- v3: golden round trip and sequential-decode equivalence ------------------------ *)

let chunked_gen =
  QCheck.Gen.(pair Test_stream.random_trace_gen (int_range 1 40))

let print_chunked (_, chunk_events) =
  Printf.sprintf "<trace> chunk_events=%d" chunk_events

let v3_roundtrip =
  QCheck.Test.make ~count:40 ~name:"v2 -> v3 -> v2 is byte-identical"
    (QCheck.make ~print:print_chunked chunked_gen)
    (fun (trace, chunk_events) ->
      let v2 = B.to_string trace in
      let v3 = B.to_string_v3 ~chunk_events trace in
      let back = B.to_string (B.of_string ~name:"rt.lpt" v3) in
      if back <> v2 then
        QCheck.Test.fail_reportf "v2->v3->v2 differs (chunk_events=%d)"
          chunk_events;
      let expect = events (Source.of_trace trace) in
      (* the streaming decoder walks v3 chunk by chunk *)
      if events (Source.of_string ~name:"rt.lpt" v3) <> expect then
        QCheck.Test.fail_reportf "sequential v3 decode differs";
      (* the seekable index yields the same stream *)
      let ix = B.index ~name:"rt.lpt" (B.big_of_string v3) in
      let src = Source.of_indexed ix in
      if events src <> expect then
        QCheck.Test.fail_reportf "indexed v3 decode differs";
      let c = Source.counters src in
      c.Source.instructions = trace.Lp_trace.Trace.instructions
      && c.Source.calls = trace.Lp_trace.Trace.calls
      && c.Source.heap_refs = trace.Lp_trace.Trace.heap_refs
      && c.Source.total_refs = trace.Lp_trace.Trace.total_refs
      && Source.n_objects src = trace.Lp_trace.Trace.n_objects)

(* -- v3: seek and sub are deterministic windows ------------------------------------- *)

let seek_gen =
  QCheck.Gen.(
    triple Test_stream.random_trace_gen (int_range 1 16) (int_range 0 9999))

let seek_sub_determinism =
  QCheck.Test.make ~count:40
    ~name:"Source.seek/sub windows equal slices of the full stream"
    (QCheck.make seek_gen)
    (fun (trace, chunk_events, salt) ->
      let v3 = B.to_string_v3 ~chunk_events trace in
      let ix = B.index ~name:"rt.lpt" (B.big_of_string v3) in
      let all = events (Source.of_indexed ix) in
      let n = List.length all in
      let pos = if n = 0 then 0 else salt mod (n + 1) in
      let first = pos in
      let count = if n = first then 0 else salt * 7 mod (n - first + 1) in
      List.iter
        (fun (kind, fresh) ->
          (* seek forward from the start *)
          let s = fresh () in
          Source.seek s pos;
          if events s <> drop pos all then
            QCheck.Test.fail_reportf "%s: seek %d differs" kind pos;
          (* seek back after a partial drain *)
          let s = fresh () in
          let half = n / 2 in
          for _ = 1 to half do
            ignore (Source.next s)
          done;
          Source.seek s pos;
          if events s <> drop pos all then
            QCheck.Test.fail_reportf "%s: rewind to %d differs" kind pos;
          (* sub yields exactly the requested window *)
          let w = Source.sub (fresh ()) ~first ~count in
          if events w <> take count (drop first all) then
            QCheck.Test.fail_reportf "%s: sub %d+%d differs" kind first count;
          (* and a sub of the sub nests *)
          let inner = min count 3 in
          let w2 = Source.sub (fresh ()) ~first ~count in
          let w2 = Source.sub w2 ~first:0 ~count:inner in
          if events w2 <> take inner (take count (drop first all)) then
            QCheck.Test.fail_reportf "%s: nested sub differs" kind)
        [
          ("indexed", fun () -> Source.of_indexed ix);
          ("of_trace", fun () -> Source.of_trace trace);
        ];
      true)

(* -- every pass over every source kind and partition ---------------------------------- *)

module Pass = Lp_trace.Pass

let summary_fingerprint (s : Lp_trace.Lifetimes.summary) =
  let count = Lp_quantile.Histogram.count s.Lp_trace.Lifetimes.hist in
  let quart =
    if count = 0 then "-"
    else
      let q = Lp_quantile.Histogram.quartiles s.Lp_trace.Lifetimes.hist in
      Printf.sprintf "%h %h %h %h %h" q.min q.q25 q.median q.q75 q.max
  in
  Printf.sprintf "%d %s %d %d" count quart s.Lp_trace.Lifetimes.short_bytes
    s.Lp_trace.Lifetimes.total_alloc_bytes

let stats_fingerprint (s : Lp_trace.Stats.t) =
  Printf.sprintf "%s %s %d %d %d %d %d %d %h %d %h" s.program s.input
    s.instructions s.calls s.total_bytes s.total_objects s.max_bytes
    s.max_objects s.heap_ref_pct s.distinct_chains s.mean_object_size

let model_string ~config (src : Source.t) (st : Lifetime.Train.streamed) =
  let funcs = src.funcs () in
  let predictor =
    Lifetime.Predictor.build ~config ~funcs st.Lifetime.Train.table
  in
  Lifetime.Model.to_string
    (Lifetime.Model.of_training_parts ~config ~program:src.program ~funcs
       ~clock:st.Lifetime.Train.end_clock st.Lifetime.Train.table predictor)

(* A row is one pass with its result rendered to a string, so every row
   compares the same way, plus the materialized reference it must match
   where one exists outside the pass. *)
type row =
  | Row :
      string * ('p, string) Pass.t * (Lp_trace.Trace.t -> string) option
      -> row

let train_row policy =
  let config = { Lifetime.Config.default with policy } in
  Row
    ( "train " ^ Lp_callchain.Site.policy_to_string policy,
      Pass.map (model_string ~config) (Lifetime.Train.pass ~config ()),
      Some
        (fun t ->
          let table = Fold_reference.collect ~config t in
          let predictor =
            Lifetime.Predictor.build ~config ~funcs:t.Lp_trace.Trace.funcs table
          in
          Lifetime.Model.to_string
            (Lifetime.Model.of_training ~config ~trace:t table predictor)) )

let rows =
  let render f p = Pass.map (fun _ r -> f r) p in
  [
    Row
      ( "stats",
        render stats_fingerprint Lp_trace.Stats.pass,
        Some (fun t -> stats_fingerprint (Fold_reference.stats t)) );
    Row
      ( "lifetimes",
        render summary_fingerprint (Lp_trace.Lifetimes.summary ~threshold:32),
        None );
    (* several chains share a site under [last-2-callers]; the key
       policy interns by key, not chain *)
    train_row Lp_callchain.Site.Complete_chain;
    train_row (Lp_callchain.Site.Last_callers 2);
    train_row Lp_callchain.Site.Encrypted_key;
    Row ("lint", render D.list_to_json (Lp_analysis.Lint.pass ()), None);
    Row
      ( "audit",
        render D.list_to_json
          (Lp_analysis.Audit.pass Lp_analysis.Audit.default_options),
        None );
  ]

(* split [n_chunks] into a covering partition of contiguous ranges,
   consuming widths from [cuts] (1-4 chunks each, remainder in one tail
   range once the list runs out) *)
let partition_of sh cuts =
  let n = Sharded.n_chunks sh in
  let rec go first acc cuts =
    if first >= n then List.rev acc
    else
      let count, rest =
        match cuts with c :: rest -> (min c (n - first), rest) | [] -> (n - first, [])
      in
      go (first + count) (Sharded.range sh ~first ~count :: acc) rest
  in
  go 0 [] cuts

(* Every pass must give one result over the in-memory trace, a text
   stream (no object hint: every table grows from its fallback size), a
   binary stream, the given covering partition of the v3 chunks, and
   [Shard.run] at 1 to 4 domains — and that result must be the
   materialized reference's where the row has one. *)
let check_all_passes (trace, chunk_events, cuts) =
  let text = Lp_trace.Textio.to_string trace in
  let v3 = B.to_string_v3 ~chunk_events trace in
  let sh = Sharded.of_string ~name:"rt.lpt" v3 in
  let ranges = partition_of sh cuts in
  List.iter
    (fun (Row (name, p, reference)) ->
      let expect = Pass.run p (Source.of_trace trace) in
      (match reference with
      | Some f when f trace <> expect ->
          QCheck.Test.fail_reportf "%s: the pass differs from the reference" name
      | _ -> ());
      let check kind got =
        if got <> expect then
          QCheck.Test.fail_reportf "%s via %s:\n%s\nvs\n%s" name kind got expect
      in
      check "text" (Pass.run p (Source.of_string ~name:"rt.txt" text));
      check "binary" (Pass.run p (Source.of_string ~name:"rt.lpt" v3));
      check
        (Printf.sprintf "%d ranges" (List.length ranges))
        (p.merge (Sharded.source sh) (List.map (Pass.run_range p) ranges));
      List.iter
        (fun domains ->
          check
            (Printf.sprintf "Shard.run @%d domains" domains)
            (Lifetime.Shard.run ~domains p sh))
        [ 1; 2; 3; 4 ])
    rows;
  true

let partition_gen =
  QCheck.Gen.(
    triple Test_stream.random_trace_gen (int_range 1 12)
      (list_size (int_range 0 8) (int_range 1 4)))

let realloc_partition_gen =
  QCheck.Gen.(
    triple Test_stream.random_realloc_trace_gen (int_range 1 12)
      (list_size (int_range 0 8) (int_range 1 4)))

let partition_fold_determinism =
  QCheck.Test.make ~count:25
    ~name:"random range partitions merge to the sequential folds"
    (QCheck.make partition_gen)
    check_all_passes

(* the same passes over realloc-bearing traces: chunk boundaries can
   fall between a resize and the object's free, so the carry-in size
   snapshots must report the post-resize size *)
let realloc_partition_fold_determinism =
  QCheck.Test.make ~count:25
    ~name:"realloc-bearing range partitions merge to the sequential folds"
    (QCheck.make realloc_partition_gen)
    check_all_passes

(* deterministic boundary case: with 2-event chunks, object 0's growing
   resize, shrinking resize, and size-declaring free each land in a
   different chunk, so every later range sees the object only through
   its carry-in snapshot.  A carry that recorded the birth size instead
   of the current size would mis-merge live bytes and make lint flag the
   (correct) declared sizes. *)
let realloc_carry_across_chunk_boundary () =
  let text =
    String.concat "\n"
      [
        "trace carry boundary";
        "func 0 main";
        "chain 0 0";
        "counters 0 0 0 0";
        "a 0 40 0 0 -1 0";
        "a 1 16 0 0 -1 0";
        "r 1 1";
        "g 0 40 104 0 0 -1";
        "r 1 1";
        "g 0 104 72 0 0 -1";
        "r 1 1";
        "f 0 72";
        "f 1";
        "end";
        "";
      ]
  in
  let trace = Lp_trace.Textio.of_string text in
  let v3 = B.to_string_v3 ~chunk_events:2 trace in
  let sh = Sharded.of_string ~name:"carry.lpt" v3 in
  Alcotest.(check bool) "enough chunks to split the lifetime" true
    (Sharded.n_chunks sh >= 4);
  (* decode round-trip preserves the realloc payloads exactly *)
  let back = B.of_string ~name:"carry.lpt" v3 in
  Alcotest.(check bool) "events round-trip" true (back.events = trace.events);
  (* one range per chunk: every pass equals its sequential run *)
  let per_chunk = List.init (Sharded.n_chunks sh) (fun _ -> 1) in
  ignore (check_all_passes (trace, 2, per_chunk) : bool);
  let lint = Lp_analysis.Lint.pass () in
  let diags =
    lint.merge (Sharded.source sh)
      (List.map (Pass.run_range lint) (partition_of sh per_chunk))
  in
  Alcotest.(check bool) "range lint sees the declared sizes as correct" false
    (Lp_analysis.Diagnostic.has_errors diags)

(* an empty chain used in three chunks: every per-chunk range sees its
   own first use, and the merge must keep only the global first *)
let chain_anomaly_once_across_ranges () =
  let text =
    String.concat "\n"
      [
        "trace anomaly once";
        "func 0 main";
        "chain 0";
        "chain 1 0";
        "counters 0 0 0 0";
        "a 0 16 0 0 -1 0";
        "a 1 16 1 0 -1 0";
        "a 2 16 0 0 -1 0";
        "f 0";
        "a 3 16 0 0 -1 0";
        "f 1";
        "f 2";
        "f 3";
        "end";
        "";
      ]
  in
  let trace = Lp_trace.Textio.of_string text in
  let per_chunk = [ 1; 1; 1; 1 ] in
  ignore (check_all_passes (trace, 2, per_chunk) : bool);
  let sh = Sharded.of_string ~name:"once.lpt" (B.to_string_v3 ~chunk_events:2 trace) in
  let lint = Lp_analysis.Lint.pass ~only:[ "chain-anomaly" ] () in
  let diags =
    lint.merge (Sharded.source sh)
      (List.map (Pass.run_range lint) (partition_of sh per_chunk))
  in
  Alcotest.(check (list int)) "one anomaly, at the first use" [ 0 ]
    (List.map (fun (d : D.t) -> Option.get d.D.event) diags)

(* -- a real workload across domain counts ------------------------------------------ *)

let shard_orchestrators () =
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  let sh =
    Sharded.of_string ~name:"perl.lpt" (B.to_string_v3 ~chunk_events:64 trace)
  in
  if Sharded.n_chunks sh < 3 then
    Alcotest.failf "expected several chunks, got %d" (Sharded.n_chunks sh);
  ignore (check_all_passes (trace, 64, [ 1; 2; 3 ]) : bool)

(* -- the empty trace: one empty chunk ----------------------------------------------- *)

let empty_trace_edge () =
  let trace = Rt.finish (Rt.create ~program:"empty" ~input:"none" ()) in
  Alcotest.(check int) "no events" 0 (Array.length trace.Lp_trace.Trace.events);
  let v3 = B.to_string_v3 ~chunk_events:8 trace in
  Alcotest.(check string) "v2 round trip"
    (B.to_string trace)
    (B.to_string (B.of_string ~name:"empty.lpt" v3));
  let sh = Sharded.of_string ~name:"empty.lpt" v3 in
  Alcotest.(check int) "one chunk" 1 (Sharded.n_chunks sh);
  Alcotest.(check int) "zero events" 0 (Sharded.n_events sh);
  Alcotest.(check (list pass)) "no events streamed" []
    (events (Sharded.source sh));
  let w = Source.sub (Sharded.source sh) ~first:0 ~count:0 in
  Alcotest.(check (list pass)) "empty sub" [] (events w);
  let st = Lifetime.Shard.run ~domains:2 Lp_trace.Stats.pass sh in
  Alcotest.(check int) "no objects" 0 st.Lp_trace.Stats.total_objects;
  Alcotest.(check (list pass)) "no diagnostics" []
    (Lifetime.Shard.run ~domains:2 (Lp_analysis.Lint.pass ()) sh)

(* -- the corrupt corpus, linted range-parallel -------------------------------------- *)

let lint_sharded_corpus_equivalence () =
  List.iter
    (fun file ->
      let path = "corrupt_traces/" ^ file in
      let trace = Lp_trace.Io.read_file path in
      let expect = D.list_to_json (Lp_analysis.Lint.run trace) in
      (* tiny chunks force the anomalies (double frees, touch-after-free,
         leaks) to straddle chunk boundaries *)
      let sh =
        Sharded.of_string ~name:path (B.to_string_v3 ~chunk_events:3 trace)
      in
      List.iter
        (fun domains ->
          let got =
            D.list_to_json
              (Lifetime.Shard.run ~domains (Lp_analysis.Lint.pass ()) sh)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s @%d domains" file domains)
            expect got)
        [ 1; 2 ])
    Test_stream.corpus_files

let suites =
  [
    ( "sharded",
      [
        QCheck_alcotest.to_alcotest v3_roundtrip;
        QCheck_alcotest.to_alcotest seek_sub_determinism;
        QCheck_alcotest.to_alcotest partition_fold_determinism;
        QCheck_alcotest.to_alcotest realloc_partition_fold_determinism;
        Alcotest.test_case "realloc carry across chunk boundary" `Quick
          realloc_carry_across_chunk_boundary;
        Alcotest.test_case "Shard orchestrators across domain counts" `Quick
          shard_orchestrators;
        Alcotest.test_case "chain anomaly reported once across ranges" `Quick
          chain_anomaly_once_across_ranges;
        Alcotest.test_case "empty trace is one empty chunk" `Quick
          empty_trace_edge;
        Alcotest.test_case "corrupt corpus lints range-parallel identically"
          `Quick lint_sharded_corpus_equivalence;
      ] );
    ( "sharded-satellites",
      [
        Alcotest.test_case "wire codec corner cases" `Quick wire_explicit;
        QCheck_alcotest.to_alcotest wire_roundtrip_prop;
        Alcotest.test_case "wire codec rejections" `Quick wire_rejections;
        Alcotest.test_case "Grow.ensure clamps at max_array_length" `Quick
          grow_capacity_overflow;
        Alcotest.test_case "Grow.Flags bits and Grow.freeze" `Quick
          grow_flags_and_freeze;
        Alcotest.test_case "decoder minor words per event" `Quick
          decode_minor_words;
        Alcotest.test_case "map_sources full-major policy" `Quick
          map_sources_gc_behavior;
      ] );
  ]
