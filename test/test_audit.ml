(* Tests for the audit engine: the golden corpus (a constructed chain
   collision and a coverage-gap model, asserting exact rule ids and
   sites), unit checks for the threshold-sensitivity band and the
   overlap hotspot, qcheck equivalence of the materialized, streamed
   and sharded paths at 1 and 4 domains (and of an unhinted text stream,
   whose per-object tables grow), the (chain, size) pair table against
   a Hashtbl model, SARIF output sanity, and a drift check pinning the
   README's rules table to the registry. *)

module D = Lp_analysis.Diagnostic
module Audit = Lp_analysis.Audit
module Source = Lp_trace.Source
module Site = Lp_callchain.Site

let findings diags =
  List.map (fun (d : D.t) -> (d.D.rule, Option.value d.D.site ~default:"-")) diags

let check_findings what expected diags =
  Alcotest.(check (list (pair string string))) what expected (findings diags)

let corpus_trace file = Lp_trace.Io.read_file ("audit_corpus/" ^ file)
let corpus_model file = Lifetime.Model.load ("audit_corpus/" ^ file)

let collision_key = "[alloc_node<-walk<-build<-main; ~size=16]"

(* -- golden corpus -------------------------------------------------------------- *)

(* two chains that cycle-eliminate onto one complete-chain key, one all
   short-lived and one with a survivor: a collision, warning-severity
   without a model *)
let collision_without_model () =
  let diags = Audit.run Audit.default_options (corpus_trace "collision.txt") in
  check_findings "collision"
    [ ("chain-collision", collision_key); ("live-peak-pressure", "-") ]
    diags;
  Alcotest.(check bool) "clean" true (Audit.clean diags)

(* the same trace against a model that predicts the colliding key
   short-lived: the warning hardens into the audit's only error *)
let collision_with_model () =
  let opts =
    Audit.with_model Audit.default_options (corpus_model "collision.lpmodel")
  in
  let diags = Audit.run opts (corpus_trace "collision.txt") in
  check_findings "mispredict"
    [ ("chain-collision-mispredict", collision_key); ("live-peak-pressure", "-") ]
    diags;
  Alcotest.(check bool) "errors" false (Audit.clean diags)

(* a model disjoint from the trace: every trace key is a cold start,
   every model site is dead — and neither is an error *)
let coverage_gap () =
  let opts =
    Audit.with_model Audit.default_options (corpus_model "coverage_gap.lpmodel")
  in
  let diags = Audit.run opts (corpus_trace "collision.txt") in
  check_findings "gaps"
    [
      ("chain-collision", collision_key);
      ("coverage-cold-start", collision_key);
      ("coverage-dead-site", "[phantom<-main; ~size=8]");
      ("live-peak-pressure", "-");
    ]
    diags;
  Alcotest.(check bool) "clean" true (Audit.clean diags)

(* -- threshold sensitivity and overlap hotspots --------------------------------- *)

(* two objects, both short under threshold 32, whose key's max observed
   lifetime (30) lands inside the 12.5% band around the cutoff *)
let band_trace () =
  Lp_trace.Textio.of_string
    (String.concat "\n"
       [
         "trace audit band"; "func 0 main"; "chain 0 0"; "counters 0 0 0 0";
         "a 0 16 0 0 -1 0"; "a 1 14 0 0 -1 0"; "f 0"; "f 1"; "end"; "";
       ])

let threshold_sensitive () =
  let opts =
    {
      Audit.default_options with
      au_threshold = 32;
      au_only = Some [ "coverage-threshold-sensitive" ];
    }
  in
  let diags = Audit.run opts (band_trace ()) in
  check_findings "in band"
    [ ("coverage-threshold-sensitive", "[main; ~size=16]") ]
    diags;
  (* a tighter margin excludes lifetime 30 from the band *)
  let diags = Audit.run { opts with Audit.au_margin = 0.01 } (band_trace ()) in
  check_findings "out of band" [] diags

let overlap_hotspot () =
  let opts =
    {
      Audit.default_options with
      au_threshold = 32;
      au_only = Some [ "live-overlap-hotspot" ];
    }
  in
  (* at the global peak (30 bytes, event 1) the size-14 site holds 14
     bytes with 16 foreign — both above a quarter of the peak *)
  let diags = Audit.run opts (band_trace ()) in
  check_findings "hotspot" [ ("live-overlap-hotspot", "[main; size=14]") ] diags;
  (* an impossible share threshold silences it *)
  let diags =
    Audit.run { opts with Audit.au_hotspot_share = 1.1 } (band_trace ())
  in
  check_findings "share too high" [] diags

let unknown_rule_rejected () =
  Alcotest.check_raises "unknown id rejected"
    (Invalid_argument
       "Diagnostic.select: unknown rule \"no-such-rule\" in --only (known: \
        chain-collision, chain-collision-mispredict, coverage-cold-start, \
        coverage-dead-site, coverage-threshold-sensitive, \
        coverage-online-cold, live-overlap-hotspot, live-peak-pressure)")
    (fun () ->
      ignore
        (Audit.run
           { Audit.default_options with au_only = Some [ "no-such-rule" ] }
           (band_trace ())))

let policy_of_string_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Site.policy_to_string p) true
        (Site.policy_of_string (Site.policy_to_string p) = Some p))
    [ Site.Complete_chain; Site.Last_callers 3; Site.Size_only; Site.Encrypted_key ];
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (Site.policy_of_string s = None))
    [ "bogus"; "last--1-callers"; "last-0-callers"; "last-3-callers-x"; "" ]

(* -- streamed / sharded equivalence --------------------------------------------- *)

(* audit the trace against a model trained from it, over every path: the
   materialized run is the oracle, the streamed and sharded (1 and 4
   domains) runs must produce byte-identical JSON *)
let check_equivalence trace =
  let cfg = { Lifetime.Config.default with short_lived_threshold = 32 } in
  let table = Lifetime.Train.collect ~config:cfg trace in
  let predictor = Lifetime.Predictor.build ~config:cfg ~funcs:trace.Lp_trace.Trace.funcs table in
  let model = Lifetime.Model.of_training ~config:cfg ~trace table predictor in
  let opts = Audit.with_model Audit.default_options model in
  let expect = D.list_to_json (Audit.run opts trace) in
  (* the v3 encoding expresses every trace, realloc-bearing included *)
  let v3 = Lp_trace.Binio.to_string_v3 ~chunk_events:8 trace in
  let stream =
    D.list_to_json (Audit.run_source opts (Source.of_string ~name:"t.lpt" v3))
  in
  if stream <> expect then QCheck.Test.fail_reportf "streamed audit differs";
  let sh = Lp_trace.Sharded.of_string ~name:"t.lpt" v3 in
  List.iter
    (fun domains ->
      let got =
        Lifetime.Parallel.with_domains domains (fun () ->
            D.list_to_json (Audit.run_sharded opts sh))
      in
      if got <> expect then
        QCheck.Test.fail_reportf "sharded audit differs at %d domains" domains)
    [ 1; 4 ];
  true

let audit_equivalence =
  QCheck.Test.make ~count:30
    ~name:"audit: materialized = streamed = sharded (1 and 4 domains)"
    (QCheck.make Test_stream.random_trace_gen)
    check_equivalence

let audit_equivalence_realloc =
  QCheck.Test.make ~count:30
    ~name:"audit over realloc-bearing traces: all paths agree"
    (QCheck.make Test_stream.random_realloc_trace_gen)
    check_equivalence

(* -- on-demand quartiles ---------------------------------------------------------- *)

(* [lifetime_histograms] against the quartiles of a histogram fed every
   allocation's lifetime in trace order, per (chain, size) site: asked
   for every site (in reverse, and one twice) over a random partition of
   the v3 chunks, each site's histogram must be the reference's *)
let on_demand_quartiles (trace, chunk_events, cuts) =
  let module Profile = Lp_analysis.Absint.Site_profile in
  let lt = Lp_trace.Lifetimes.compute trace in
  let reference = Hashtbl.create 16 in
  Array.iter
    (function
      | Lp_trace.Event.Alloc { obj; size; chain; _ } ->
          let h =
            match Hashtbl.find_opt reference (chain, size) with
            | Some h -> h
            | None ->
                let h = Lp_quantile.Histogram.create () in
                Hashtbl.add reference (chain, size) h;
                h
          in
          Lp_quantile.Histogram.observe h
            (float_of_int lt.Lp_trace.Lifetimes.lifetime.(obj))
      | _ -> ())
    trace.Lp_trace.Trace.events;
  let cfg =
    { Profile.pc_policy = Site.Complete_chain; pc_rounding = 8; pc_threshold = 32 }
  in
  let p = Lp_analysis.Absint.pass ~analyses:[ Profile.domain cfg ] in
  let sh =
    Lp_trace.Sharded.of_string ~name:"q.lpt"
      (Lp_trace.Binio.to_string_v3 ~chunk_events trace)
  in
  let ranges = Test_sharded.partition_of sh cuts in
  let pf =
    match p.merge (Lp_trace.Sharded.source sh) (List.map (Lp_trace.Pass.run_range p) ranges) with
    | [ tok ] -> Profile.project tok
    | _ -> QCheck.Test.fail_report "one token expected"
  in
  let n = Array.length pf.Profile.pf_sites in
  let ids = Array.append (Array.init n (fun g -> n - 1 - g)) (if n > 0 then [| 0 |] else [||]) in
  let hists = Profile.lifetime_histograms pf ids in
  let show h =
    if Lp_quantile.Histogram.count h = 0 then "none"
    else
      Format.asprintf "%d %a" (Lp_quantile.Histogram.count h)
        Lp_quantile.Histogram.pp_quartiles (Lp_quantile.Histogram.quartiles h)
  in
  Array.iteri
    (fun j g ->
      let st = pf.Profile.pf_sites.(g) in
      let want = show (Hashtbl.find reference (st.Profile.st_chain, st.Profile.st_size)) in
      let got = show hists.(j) in
      if got <> want then
        QCheck.Test.fail_reportf "site %d: %s, expected %s" g got want)
    ids;
  Profile.lifetime_histograms pf [||] = [||]

let on_demand_quartiles_match =
  QCheck.Test.make ~count:30
    ~name:"on-demand site quartiles = a per-allocation feed, any partition"
    (QCheck.make Test_sharded.realloc_partition_gen)
    on_demand_quartiles

(* random traces rarely give a site more than the five observations
   after which P² depends on their order; perl's tiny input gives
   hundreds of sites many allocations, spread over 64-event chunks *)
let on_demand_quartiles_perl () =
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  Alcotest.(check bool) "quartiles match" true
    (on_demand_quartiles (trace, 64, [ 1; 2; 3 ]))

(* -- growth fallback: a source with no object-count hint ------------------------- *)

(* a text stream announces no object count, so every per-object table of
   the audit pass starts small and grows; its diagnostics must still be
   the materialized run's, which sizes every table up front *)
let audit_text_stream_growth () =
  let trace = Lp_workloads.Registry.trace ~program:"perl" ~input:"tiny" () in
  Alcotest.(check bool)
    "enough objects to outgrow the fallback tables" true
    (trace.Lp_trace.Trace.n_objects > 4096);
  let opts = Audit.default_options in
  let expect = D.list_to_json (Audit.run opts trace) in
  let src =
    Source.of_string ~name:"perl-tiny.txt" (Lp_trace.Textio.to_string trace)
  in
  Alcotest.(check (option int)) "no object hint" None src.Source.n_objects_hint;
  Alcotest.(check string) "text-stream audit" expect
    (D.list_to_json (Audit.run_source opts src))

(* -- the (chain, size) pair table ------------------------------------------------ *)

module Pair_table = Lp_trace.Pair_table

(* interning against a polymorphic Hashtbl model: ids in first-appearance
   order and repeats resolving to the first id, over negative
   (unresolvable) chains, sizes past 2^31, the int range's ends, and
   pairs built to share a slot at every table size up to 1024 *)
let pair_table_model () =
  let colliding =
    let rec go acc n c =
      if n = 0 then List.rev acc
      else if Pair_table.hash c 48 land 1023 = 0 then go ((c, 48) :: acc) (n - 1) (c + 1)
      else go acc n (c + 1)
    in
    go [] 40 (-5000)
  in
  List.iter
    (fun (c, s) ->
      Alcotest.(check int) "same slot" 0 (Pair_table.hash c s land 1023))
    colliding;
  let special =
    [ (-1, 16); (16, -1); (-1, 17); (-2, 16); (0, 1 lsl 31); (0, (1 lsl 31) + 1);
      (1, 1 lsl 31); (-1, 1 lsl 40); (min_int, max_int); (max_int, min_int);
      (0, 0); (0, 1); (1, 0) ]
  in
  let rng = Random.State.make [| 12 |] in
  let random =
    List.init 500 (fun _ ->
        ( Random.State.int rng 64 - 8,
          if Random.State.bool rng then Random.State.int rng 4096
          else (1 lsl 31) + Random.State.int rng 64 ))
  in
  let pairs = special @ colliding @ random @ List.rev special @ colliding in
  let t = Pair_table.create 1 in
  let model = Hashtbl.create 64 in
  List.iter
    (fun (c, s) ->
      let expect =
        match Hashtbl.find_opt model (c, s) with
        | Some id -> id
        | None ->
            let id = Hashtbl.length model in
            Hashtbl.add model (c, s) id;
            id
      in
      Alcotest.(check int) (Printf.sprintf "intern (%d, %d)" c s) expect
        (Pair_table.intern t c s))
    pairs;
  Alcotest.(check int) "length" (Hashtbl.length model) (Pair_table.length t);
  Hashtbl.iter
    (fun (c, s) id ->
      Alcotest.(check int) "chain" c (Pair_table.chain t id);
      Alcotest.(check int) "size" s (Pair_table.size t id))
    model;
  let chains = Pair_table.chains t and sizes = Pair_table.sizes t in
  Alcotest.(check int) "chains in id order" (Hashtbl.length model)
    (Array.length chains);
  Array.iteri
    (fun id c ->
      Alcotest.(check (option int)) "chains/sizes in id order" (Some id)
        (Hashtbl.find_opt model (c, sizes.(id))))
    chains

(* -- SARIF ---------------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let sarif_output () =
  let opts =
    Audit.with_model Audit.default_options (corpus_model "collision.lpmodel")
  in
  let diags = Audit.run opts (corpus_trace "collision.txt") in
  let sarif =
    Lp_analysis.Sarif.to_string ~tool_name:"lpalloc audit" ~rules:Audit.rules
      ~source:"audit_corpus/collision.txt" diags
  in
  Alcotest.(check bool) "one line" false (String.contains sarif '\n');
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains sarif needle))
    [
      "\"version\":\"2.1.0\"";
      "\"name\":\"lpalloc audit\"";
      "\"ruleId\":\"chain-collision-mispredict\"";
      "\"level\":\"error\"";
      (* info severities map onto SARIF's note level *)
      "\"level\":\"note\"";
      "\"uri\":\"audit_corpus/collision.txt\"";
      "\"event\":0";
    ];
  (* every registry rule appears as a reportingDescriptor *)
  List.iter
    (fun (r : D.rule) ->
      Alcotest.(check bool) r.D.id true
        (contains sarif (Printf.sprintf "{\"id\":%S" r.D.id)))
    Audit.rules

(* -- README drift --------------------------------------------------------------- *)

(* the README's audit rules table is generated by [Audit.rules_markdown]
   (and `lpalloc audit --list-rules`); adding or editing a rule without
   regenerating the table fails here *)
let readme_rules_table () =
  let readme = In_channel.with_open_bin "../README.md" In_channel.input_all in
  Alcotest.(check bool)
    "README embeds the generated audit rules table" true
    (contains readme (Audit.rules_markdown ()))

let suites =
  [
    ( "audit",
      [
        Alcotest.test_case "collision without model" `Quick
          collision_without_model;
        Alcotest.test_case "collision with model" `Quick collision_with_model;
        Alcotest.test_case "coverage gap" `Quick coverage_gap;
        Alcotest.test_case "threshold sensitivity" `Quick threshold_sensitive;
        Alcotest.test_case "overlap hotspot" `Quick overlap_hotspot;
        Alcotest.test_case "unknown rule rejected" `Quick unknown_rule_rejected;
        Alcotest.test_case "policy_of_string" `Quick policy_of_string_roundtrip;
        Alcotest.test_case "SARIF output" `Quick sarif_output;
        Alcotest.test_case "README rules table" `Quick readme_rules_table;
        QCheck_alcotest.to_alcotest audit_equivalence;
        QCheck_alcotest.to_alcotest audit_equivalence_realloc;
        QCheck_alcotest.to_alcotest on_demand_quartiles_match;
        Alcotest.test_case "on-demand quartiles over perl tiny" `Quick
          on_demand_quartiles_perl;
        Alcotest.test_case "audit of an unhinted text stream" `Quick
          audit_text_stream_growth;
        Alcotest.test_case "pair table against a Hashtbl model" `Quick
          pair_table_model;
      ] );
  ]
