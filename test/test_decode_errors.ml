(* The binary decoder's error contract, pinned byte for byte.

   For two small traces — a v2 trace (cfrac tiny with sized frees) and a
   realloc-bearing v3 trace (the first 400 events of pint tiny, written
   in 100-event chunks so chunk boundaries occur) — every truncation
   offset and a fixed sample of corrupted opcode/varint bytes is decoded
   three ways:

   - streamed through [Source.next], recording how many events it yields
     before failing and the exact [Failure] message (byte offset
     included);
   - loaded whole through [Binio.of_string], the decode behind
     [Io.read_file];
   - for v3, also through the seekable index ([Source.of_indexed]), the
     path sharded range decoders take.

   The expected records live in decode_errors.expected, one per line:
   label, then each decode's outcome.  To keep the file small a message
   ["Binio.input: <name>: byte N: ..."] is written ["@N: ..."], and a
   column equal to the streamed one is written ["="].  Regenerating it
   is deliberately manual, like golden_metrics.expected: print
   [generated_lines ()] to the file and justify every changed line — an
   error message or offset change is a contract change. *)

module B = Lp_trace.Binio
module Source = Lp_trace.Source

(* cfrac's runtime never emits sized frees, so give every other free its
   object's size: the v1/v2 writer then picks version 2 *)
let v2_trace () =
  let t = Lp_workloads.Registry.trace ~program:"cfrac" ~input:"tiny" () in
  let sizes = Array.make t.Lp_trace.Trace.n_objects 0 in
  let nth = ref 0 in
  let events =
    Array.map
      (function
        | Lp_trace.Event.Alloc { obj; size; _ } as e ->
            sizes.(obj) <- size;
            e
        | Lp_trace.Event.Free { obj; _ } as e ->
            incr nth;
            if !nth mod 2 = 0 then Lp_trace.Event.Free { obj; size = sizes.(obj) }
            else e
        | e -> e)
      t.Lp_trace.Trace.events
  in
  B.to_string { t with Lp_trace.Trace.events }

let v3_trace () =
  let t = Lp_workloads.Registry.trace ~program:"pint" ~input:"tiny" () in
  B.to_string_v3 ~chunk_events:100
    { t with Lp_trace.Trace.events = Array.sub t.Lp_trace.Trace.events 0 400 }

let abbreviate name m =
  let prefix = Printf.sprintf "Binio.input: %s: byte " name in
  let n = String.length prefix in
  if String.length m >= n && String.sub m 0 n = prefix then
    "@" ^ String.sub m n (String.length m - n)
  else m

(* "ok <events>" or "<events> <message>": events yielded before the
   failure (-1 when the source could not even be opened) *)
let drain name open_source =
  match open_source () with
  | exception Failure m -> Printf.sprintf "-1 %s" (abbreviate name m)
  | src -> (
      let n = ref 0 in
      match
        while Source.next src <> None do
          incr n
        done
      with
      | () -> Printf.sprintf "ok %d" !n
      | exception Failure m -> Printf.sprintf "%d %s" !n (abbreviate name m))

let load name s =
  match B.of_string ~name s with
  | t -> Printf.sprintf "ok %d" (Array.length t.Lp_trace.Trace.events)
  | exception Failure m -> abbreviate name m

let record ~indexed label name s =
  let next = drain name (fun () -> Source.of_string ~name s) in
  (* the streamed outcome minus its event count, to spot equal columns *)
  let next_outcome =
    match String.index_opt next ' ' with
    | Some i when not (String.starts_with ~prefix:"ok" next) ->
        String.sub next (i + 1) (String.length next - i - 1)
    | _ -> next
  in
  let read = load name s in
  let read = if read = next_outcome then "=" else read in
  let ix =
    if indexed then
      let ix =
        drain name (fun () -> Source.of_indexed (B.index ~name (B.big_of_string s)))
      in
      "\t" ^ if ix = next then "=" else ix
    else ""
  in
  Printf.sprintf "%s\t%s\t%s%s" label next read ix

(* corruptions at every [stride]-th byte past the magic: an opcode that
   is reserved (v2) or realloc (v3), the sized-free opcode, a bare
   continuation byte, an all-ones byte, and a run of continuation bytes
   long enough to overflow any varint *)
let stride = 11

let corruptions =
  [
    ("op04", fun b i -> Bytes.set b i '\x04');
    ("op05", fun b i -> Bytes.set b i '\x05');
    ("x80", fun b i -> Bytes.set b i '\x80');
    ("xff", fun b i -> Bytes.set b i '\xff');
    ( "run",
      fun b i -> Bytes.fill b i (min 10 (Bytes.length b - i)) '\xff' );
  ]

let case_lines ~indexed tag s =
  let name = tag ^ ".lpt" in
  let n = String.length s in
  let cuts =
    List.init n (fun k ->
        record ~indexed (Printf.sprintf "%s cut %d" tag k) name (String.sub s 0 k))
  in
  let corrupt =
    List.concat_map
      (fun i ->
        List.map
          (fun (what, f) ->
            let b = Bytes.of_string s in
            f b i;
            record ~indexed
              (Printf.sprintf "%s %s %d" tag what i)
              name (Bytes.to_string b))
          corruptions)
      (List.filter (fun i -> i mod stride = 0) (List.init (n - 5) (fun i -> i + 5)))
  in
  record ~indexed (tag ^ " intact") name s :: (cuts @ corrupt)

let generated_lines () =
  case_lines ~indexed:false "v2" (v2_trace ())
  @ case_lines ~indexed:true "v3" (v3_trace ())

let expected_lines () =
  In_channel.with_open_text "decode_errors.expected" In_channel.input_lines

let versions_are_as_named () =
  Alcotest.(check int) "v2 trace version" 2 (Char.code (v2_trace ()).[4]);
  Alcotest.(check int) "v3 trace version" 3 (Char.code (v3_trace ()).[4])

let contract_matches_pin () =
  let expected = expected_lines () in
  let got = generated_lines () in
  Alcotest.(check int) "record count" (List.length expected) (List.length got);
  List.iter2
    (fun want have -> if want <> have then Alcotest.(check string) "record" want have)
    expected got

(* The same contract through the fold protocol: a pass over a source
   that stops with a decode error must raise the drain's message, after
   the source has handed the pass every event before the failing one
   (the deferred error), and a pass over an intact prefix must see every
   event.  Checked for Stats and the audit engine on every truncated and
   corrupted input above that opens. *)
let pass_outcome name s pass =
  match Source.of_string ~name s with
  | exception Failure _ -> None
  | src -> (
      match pass src with
      | () -> Some (Printf.sprintf "ok %d" (Source.events_streamed src))
      | exception Failure m ->
          Some (Printf.sprintf "%d %s" (Source.events_streamed src) (abbreviate name m)))

let passes =
  [
    ("stats", fun src -> ignore (Lp_trace.Pass.run Lp_trace.Stats.pass src : Lp_trace.Stats.t));
    ( "audit",
      fun src ->
        ignore
          (Lp_trace.Pass.run (Lp_analysis.Audit.pass Lp_analysis.Audit.default_options) src
            : Lp_analysis.Diagnostic.t list) );
  ]

let inputs tag s =
  let n = String.length s in
  List.init n (fun k -> (Printf.sprintf "%s cut %d" tag k, String.sub s 0 k))
  @ List.concat_map
      (fun i ->
        List.map
          (fun (what, f) ->
            let b = Bytes.of_string s in
            f b i;
            (Printf.sprintf "%s %s %d" tag what i, Bytes.to_string b))
          corruptions)
      (List.filter (fun i -> i mod stride = 0) (List.init (n - 5) (fun i -> i + 5)))
  @ [ (tag ^ " intact", s) ]

let passes_raise_the_drain_error () =
  List.iter
    (fun (tag, s) ->
      let name = tag ^ ".lpt" in
      List.iter
        (fun (label, input) ->
          let drained = drain name (fun () -> Source.of_string ~name input) in
          List.iter
            (fun (pass_name, pass) ->
              match pass_outcome name input pass with
              | None -> ()
              | Some got ->
                  Alcotest.(check string) (label ^ " via " ^ pass_name) drained got)
            passes)
        (inputs tag s))
    [ ("v2", v2_trace ()); ("v3", v3_trace ()) ]

let suites =
  [
    ( "decode-errors",
      [
        Alcotest.test_case "pinned traces carry their versions" `Quick
          versions_are_as_named;
        Alcotest.test_case "truncation/corruption errors match the pin" `Quick
          contract_matches_pin;
        Alcotest.test_case "passes raise the drain's error after its events"
          `Quick passes_raise_the_drain_error;
      ] );
  ]
