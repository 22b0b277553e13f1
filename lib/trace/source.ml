type counters = {
  instructions : int;
  calls : int;
  heap_refs : int;
  total_refs : int;
}

type t = {
  program : string;
  input : string;
  n_objects_hint : int option;
  n_events_hint : int option;
  funcs : unit -> Lp_callchain.Func.table;
  chain : int -> Lp_callchain.Chain.t;
  n_chains : unit -> int;
  tag : int -> string;
  n_tags : unit -> int;
  counters_now : unit -> counters option;
  refs_of : int -> int;
  n_objects_now : unit -> int;
  fill : Block.t -> unit;
  mutable blk : Block.t;
  mutable pos : int;
  mutable streamed : int;
  mutable finished : bool;
}

let finish t =
  if not t.finished then begin
    t.finished <- true;
    Lp_obs.Timings.count "trace.events_streamed" t.streamed;
    Lp_obs.Timings.note_peak_heap ()
  end

(* Fetch the next block; false at exhaustion.  Every cursor answers an
   empty block again once exhausted, so a drained source stays drained
   without a guard here. *)
let refill t =
  if Block.slots t.blk = 0 then t.blk <- Block.create ();
  let b = t.blk in
  t.fill b;
  t.pos <- 0;
  if b.Block.len > 0 then true
  else begin
    finish t;
    false
  end

let rec next t =
  let i = t.pos in
  if i < t.blk.Block.len then begin
    t.pos <- i + 1;
    t.streamed <- t.streamed + 1;
    Some (Block.get t.blk i)
  end
  else if refill t then next t
  else None

let iter_blocks f t =
  let rec go () =
    let lo = t.pos and hi = t.blk.Block.len in
    if lo < hi then begin
      t.pos <- hi;
      t.streamed <- t.streamed + (hi - lo);
      f t.blk lo hi;
      go ()
    end
    else if refill t then go ()
  in
  go ()

(* The one adapter from a per-event cursor to blocks, for every source
   that does not decode [.lpt] bytes.  Like {!Binio.fill} it defers an
   error: the events before it are returned first, and the call that
   would start at the failing event raises it. *)
let fill_of_events next_ev =
  let pending = ref None in
  fun (b : Block.t) ->
    (match !pending with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    b.Block.len <- 0;
    let rec go () =
      if b.Block.len < Block.slots b then
        match next_ev () with
        | Some e ->
            Block.push b e;
            go ()
        | None -> ()
    in
    (try go ()
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       pending := Some (e, bt);
       if b.Block.len = 0 then Printexc.raise_with_backtrace e bt)

let iter f t =
  let rec go () =
    match next t with
    | Some e ->
        f e;
        go ()
    | None -> ()
  in
  go ()

let fold f acc t =
  let rec go acc =
    match next t with Some e -> go (f acc e) | None -> acc
  in
  go acc

let events_streamed t = t.streamed

let counters t =
  match t.counters_now () with
  | Some c -> c
  | None ->
      invalid_arg
        "Source.counters: counters not yet known (drain the source first)"

let n_objects t =
  if not t.finished then
    invalid_arg "Source.n_objects: source not yet drained";
  t.n_objects_now ()

(* -- in-memory trace ----------------------------------------------------------- *)

let of_trace (tr : Trace.t) =
  let pos = ref 0 in
  {
    program = tr.Trace.program;
    input = tr.Trace.input;
    n_objects_hint = Some tr.Trace.n_objects;
    n_events_hint = Some (Array.length tr.Trace.events);
    funcs = (fun () -> tr.Trace.funcs);
    chain = (fun id -> tr.Trace.chains.(id));
    n_chains = (fun () -> Array.length tr.Trace.chains);
    tag = (fun id -> tr.Trace.tags.(id));
    n_tags = (fun () -> Array.length tr.Trace.tags);
    counters_now =
      (fun () ->
        Some
          {
            instructions = tr.Trace.instructions;
            calls = tr.Trace.calls;
            heap_refs = tr.Trace.heap_refs;
            total_refs = tr.Trace.total_refs;
          });
    refs_of = (fun obj -> tr.Trace.obj_refs.(obj));
    n_objects_now = (fun () -> tr.Trace.n_objects);
    fill =
      fill_of_events (fun () ->
          if !pos >= Array.length tr.Trace.events then None
          else begin
            let e = tr.Trace.events.(!pos) in
            incr pos;
            Some e
          end);
    blk = Block.empty;
    pos = 0;
    streamed = 0;
    finished = false;
  }

(* -- binary decoder ------------------------------------------------------------ *)

let of_decoder d =
  let h = Binio.header d in
  {
    program = h.Binio.program;
    input = h.Binio.input;
    n_objects_hint = Some h.Binio.n_objects;
    n_events_hint = Some h.Binio.n_events;
    funcs = (fun () -> Binio.decoder_funcs d);
    chain = (fun id -> Binio.decoder_chain d id);
    n_chains = (fun () -> Binio.decoder_n_chains d);
    tag = (fun id -> Binio.decoder_tag d id);
    n_tags = (fun () -> Binio.decoder_n_tags d);
    counters_now =
      (fun () ->
        Some
          {
            instructions = h.Binio.instructions;
            calls = h.Binio.calls;
            heap_refs = h.Binio.heap_refs;
            total_refs = h.Binio.total_refs;
          });
    refs_of = (fun obj -> h.Binio.obj_refs.(obj));
    n_objects_now = (fun () -> h.Binio.n_objects);
    fill = (fun b -> Binio.fill d b);
    blk = Block.empty;
    pos = 0;
    streamed = 0;
    finished = false;
  }

(* -- windows over a sharded (v3) index ------------------------------------------ *)

(* The window [first, first+count) of an indexed trace, opened with a
   range decoder at the chunk holding event [first] that discards up to
   it — at most one chunk's worth of decode. *)
let of_indexed ?(first = 0) ?count (ix : Binio.indexed) =
  let h = Binio.indexed_header ix in
  let count = Option.value count ~default:(h.Binio.n_events - first) in
  if first < 0 || count < 0 || first + count > h.Binio.n_events then
    invalid_arg
      (Printf.sprintf "Source.of_indexed: window %d+%d out of range" first count);
  let chunks = Binio.indexed_chunks ix in
  let n_chunks = Array.length chunks in
  (* greatest chunk whose first event is <= first *)
  let c =
    let lo = ref 0 and hi = ref (n_chunks - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if chunks.(mid).Binio.ch_first_event <= first then lo := mid
      else hi := mid - 1
    done;
    !lo
  in
  let d = Binio.range_decoder ix ~first:c ~count:(n_chunks - c) in
  let skip = ref (first - chunks.(c).Binio.ch_first_event) in
  if !skip > 0 then begin
    let b = Block.create () in
    while !skip > 0 do
      Binio.fill ~max:!skip d b;
      skip := if b.Block.len = 0 then 0 else !skip - b.Block.len
    done
  end;
  let remaining = ref count in
  {
    program = h.Binio.program;
    input = h.Binio.input;
    n_objects_hint = Some h.Binio.n_objects;
    n_events_hint = Some count;
    funcs = (fun () -> Binio.indexed_funcs ix);
    chain = (fun id -> Binio.indexed_chain ix id);
    n_chains = (fun () -> Binio.indexed_n_chains ix);
    tag = (fun id -> Binio.indexed_tag ix id);
    n_tags = (fun () -> Binio.indexed_n_tags ix);
    counters_now =
      (fun () ->
        Some
          {
            instructions = h.Binio.instructions;
            calls = h.Binio.calls;
            heap_refs = h.Binio.heap_refs;
            total_refs = h.Binio.total_refs;
          });
    refs_of = (fun obj -> h.Binio.obj_refs.(obj));
    n_objects_now = (fun () -> h.Binio.n_objects);
    fill =
      (fun b ->
        if !remaining <= 0 then b.Block.len <- 0
        else begin
          Binio.fill ~max:!remaining d b;
          remaining := !remaining - b.Block.len
        end);
    blk = Block.empty;
    pos = 0;
    streamed = 0;
    finished = false;
  }

(* -- text stream --------------------------------------------------------------- *)

(* [next_ev] is the event cursor, [s.s_next] unless the caller wraps it *)
let of_text_stream ?next_ev (s : Textio.stream) =
  {
    program = s.Textio.s_program;
    input = s.Textio.s_input;
    n_objects_hint = None;
    n_events_hint = None;
    funcs = (fun () -> s.Textio.s_funcs);
    chain = s.Textio.s_chain;
    n_chains = s.Textio.s_n_chains;
    tag = s.Textio.s_tag;
    n_tags = s.Textio.s_n_tags;
    counters_now =
      (fun () ->
        let instructions, calls, heap_refs, total_refs =
          s.Textio.s_counters ()
        in
        Some { instructions; calls; heap_refs; total_refs });
    refs_of = s.Textio.s_refs;
    n_objects_now = s.Textio.s_n_objects;
    fill = fill_of_events (Option.value next_ev ~default:s.Textio.s_next);
    blk = Block.empty;
    pos = 0;
    streamed = 0;
    finished = false;
  }

let lines_of_string s =
  let pos = ref 0 in
  let len = String.length s in
  fun () ->
    if !pos >= len then None
    else begin
      let stop =
        match String.index_from_opt s !pos '\n' with
        | Some i -> i
        | None -> len
      in
      let line = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      Some line
    end

let of_string ?name s =
  match Io.detect s with
  | Io.Binary -> of_decoder (Binio.decoder ?name (Binio.big_of_string s))
  | Io.Text -> of_text_stream (Textio.stream ?name (lines_of_string s))

(* -- file ---------------------------------------------------------------------- *)

let of_file path =
  match Io.map_file path with
  | Some buf
    when Bigarray.Array1.dim buf >= 4
         && String.equal (String.init 4 (Bigarray.Array1.get buf)) Binio.magic
    ->
      Lp_obs.Timings.count "trace.bytes_read" (Bigarray.Array1.dim buf);
      (* a sharded (v3) map streams through its index; v1/v2 linearly *)
      if
        Bigarray.Array1.dim buf >= 5
        && Char.code (Bigarray.Array1.get buf 4) = Binio.version_sharded
      then of_indexed (Binio.index ~name:path buf)
      else of_decoder (Binio.decoder ~name:path buf)
  | _ -> (
      match Io.format_for_path path with
      | Io.Binary ->
          (* an .lpt we could not mmap: read it in and stream the copy *)
          let s = In_channel.with_open_bin path In_channel.input_all in
          Lp_obs.Timings.count "trace.bytes_read" (String.length s);
          of_string ~name:path s
      | Io.Text ->
          let ic = In_channel.open_bin path in
          let closed = ref false in
          let bytes = ref 0 in
          let close () =
            if not !closed then begin
              closed := true;
              In_channel.close ic;
              Lp_obs.Timings.count "trace.bytes_read" !bytes
            end
          in
          let next_line () =
            if !closed then None
            else
              match In_channel.input_line ic with
              | Some l ->
                  bytes := !bytes + String.length l + 1;
                  Some l
              | None ->
                  close ();
                  None
          in
          let s =
            try Textio.stream ~name:path next_line
            with e ->
              close ();
              raise e
          in
          of_text_stream s ~next_ev:(fun () ->
              match s.Textio.s_next () with
              | Some _ as ev -> ev
              | None ->
                  close ();
                  None))

(* -- workload generator -------------------------------------------------------- *)

type _ Effect.t += Yield : Event.t -> unit Effect.t

let of_generator ~program ~input produce =
  let summary : Trace.t option ref = ref None in
  let resume :
      (unit, Event.t option) Effect.Deep.continuation option ref =
    ref None
  in
  let sink = Trace.Builder.sink (fun e -> Effect.perform (Yield e)) in
  let start () =
    Effect.Deep.match_with
      (fun () -> produce ~sink)
      ()
      {
        Effect.Deep.retc =
          (fun tr ->
            summary := Some tr;
            None);
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield e ->
                Some
                  (fun (k : (a, Event.t option) Effect.Deep.continuation) ->
                    resume := Some k;
                    Some e)
            | _ -> None);
      }
  in
  let started = ref false in
  let pending = ref None in
  (* The generator runs lazily: [ensure_started] advances it to its first
     event so the builder (and hence the interning view) exists before
     any table lookup.  Each continuation is taken out of [resume] before
     being continued — one-shot by construction. *)
  let ensure_started () =
    if not !started then begin
      started := true;
      pending := start ()
    end
  in
  let view () =
    ensure_started ();
    match sink.Trace.Builder.view with
    | Some v -> v
    | None -> invalid_arg "Source.of_generator: generator never built a trace"
  in
  let next_ev () =
    ensure_started ();
    match !pending with
    | Some _ as ev ->
        pending := None;
        ev
    | None -> (
        match !resume with
        | None -> None
        | Some k ->
            resume := None;
            Effect.Deep.continue k ())
  in
  {
    program;
    input;
    n_objects_hint = None;
    n_events_hint = None;
    funcs = (fun () -> (view ()).Trace.Builder.view_funcs);
    chain = (fun id -> (view ()).Trace.Builder.chain_of id);
    n_chains = (fun () -> (view ()).Trace.Builder.n_chains ());
    tag = (fun id -> (view ()).Trace.Builder.tag_of id);
    n_tags = (fun () -> (view ()).Trace.Builder.n_tags ());
    counters_now =
      (fun () ->
        Option.map
          (fun (tr : Trace.t) ->
            {
              instructions = tr.Trace.instructions;
              calls = tr.Trace.calls;
              heap_refs = tr.Trace.heap_refs;
              total_refs = tr.Trace.total_refs;
            })
          !summary);
    refs_of = (fun obj -> (view ()).Trace.Builder.refs_of obj);
    n_objects_now = (fun () -> (view ()).Trace.Builder.n_objects_so_far ());
    fill = fill_of_events next_ev;
    blk = Block.empty;
    pos = 0;
    streamed = 0;
    finished = false;
  }
