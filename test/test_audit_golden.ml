(* The audit's JSON output, pinned byte for byte, through every source.

   Three audits are pinned in audit_golden.expected, one per line (label,
   tab, the JSON array): the constructed collision corpus without and
   with its model, and espresso at scale 0.1 — its test input audited
   against a model trained on its train input.  Espresso's chain-collision
   diagnostic quotes the lifetime quartiles of two sites with 79 and 85
   allocations, far past the five observations P² needs before its
   markers move, so the pin covers the quartile estimator's state and
   not only its exact start-up phase.

   Each audit is run materialized, streamed from text and from binary
   bytes, over several covering partitions of a sharded (v3) encoding,
   and through [Shard.run] at 1 and 4 domains; every run must print the
   pinned line.  The pin is what the CLI prints:

   {v
   lpalloc audit test/audit_corpus/collision.txt --json
   lpalloc audit test/audit_corpus/collision.txt \
     --model test/audit_corpus/collision.lpmodel --json
   lpalloc trace -p espresso -i train --scale 0.1 -o tr.lpt
   lpalloc trace -p espresso -i test --scale 0.1 -o te.lpt
   lpalloc train tr.lpt --save m.lpm
   lpalloc audit te.lpt --model m.lpm --json
   v}

   Like the other pins, regenerating it is manual, and every changed
   byte needs a reason. *)

module Audit = Lp_analysis.Audit
module Source = Lp_trace.Source
module Pass = Lp_trace.Pass
module Sharded = Lp_trace.Sharded
module B = Lp_trace.Binio

let expected label =
  let lines = In_channel.with_open_text "audit_golden.expected" In_channel.input_lines in
  let prefix = label ^ "\t" in
  match List.find_opt (String.starts_with ~prefix) lines with
  | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
  | None -> Alcotest.failf "no pinned line %S" label

let model_of_string s = Lifetime.Model.of_string ~name:"model" s

(* what [lpalloc train --save] writes for a trace *)
let trained_model trace =
  let config = Lifetime.Config.default in
  let src = Source.of_trace trace in
  let st = Pass.run (Lifetime.Train.pass ~config ()) src in
  let funcs = src.funcs () in
  let predictor = Lifetime.Predictor.build ~config ~funcs st.Lifetime.Train.table in
  Lifetime.Model.to_string
    (Lifetime.Model.of_training_parts ~config ~program:src.program ~funcs
       ~clock:st.Lifetime.Train.end_clock st.Lifetime.Train.table predictor)

(* covering partitions of [n] chunks: one range per chunk, alternating
   widths, and the whole trace as one range *)
let partitions sh =
  let n = Sharded.n_chunks sh in
  let cut widths =
    let rec go first acc widths =
      if first >= n then List.rev acc
      else
        let w, rest =
          match widths with w :: rest -> (min w (n - first), rest @ [ w ]) | [] -> (n - first, [])
        in
        go (first + w) (Sharded.range sh ~first ~count:w :: acc) rest
    in
    go 0 [] widths
  in
  [ cut [ 1 ]; cut [ 2; 3; 1 ]; cut [ n ] ]

let audit_everywhere ~label ~chunk_events ?model trace =
  let want = expected label in
  let opts =
    match model with
    | None -> Audit.default_options
    | Some m -> Audit.with_model Audit.default_options (model_of_string m)
  in
  let p = Audit.pass opts in
  let json = Lp_analysis.Diagnostic.list_to_json in
  let check path diags = Alcotest.(check string) (label ^ " " ^ path) want (json diags) in
  check "materialized" (Audit.run opts trace);
  check "text stream"
    (Pass.run p (Source.of_string ~name:"g.txt" (Lp_trace.Textio.to_string trace)));
  check "binary stream" (Pass.run p (Source.of_string ~name:"g.lpt" (B.to_string trace)));
  let sh = Sharded.of_string ~name:"g.lpt" (B.to_string_v3 ~chunk_events trace) in
  if Sharded.n_chunks sh < 4 then
    Alcotest.failf "%s: expected several chunks, got %d" label (Sharded.n_chunks sh);
  List.iter
    (fun ranges ->
      check
        (Printf.sprintf "%d ranges" (List.length ranges))
        (p.merge (Sharded.source sh) (List.map (Pass.run_range p) ranges)))
    (partitions sh);
  List.iter
    (fun domains ->
      check (Printf.sprintf "sharded @%d domains" domains) (Audit.run_sharded ~domains opts sh))
    [ 1; 4 ]

let corpus file = "audit_corpus/" ^ file

let collision () =
  let trace = Lp_trace.Io.read_file (corpus "collision.txt") in
  audit_everywhere ~label:"collision" ~chunk_events:1 trace;
  audit_everywhere ~label:"collision model" ~chunk_events:1
    ~model:(In_channel.with_open_bin (corpus "collision.lpmodel") In_channel.input_all)
    trace

let espresso () =
  let gen input = Lp_workloads.Registry.trace ~scale:0.1 ~program:"espresso" ~input () in
  audit_everywhere ~label:"espresso" ~chunk_events:8192
    ~model:(trained_model (gen "train"))
    (gen "test")

let suites =
  [
    ( "audit-golden",
      [
        Alcotest.test_case "collision corpus on every path" `Quick collision;
        Alcotest.test_case "espresso train/test on every path" `Quick espresso;
      ] );
  ]
