(* A sharded (.lpt v3) trace opened for range-parallel replay: the
   index plus the range arithmetic every sharded fold needs.  [Binio]
   owns the bytes; this module owns the semantics of "replay chunks
   [first, first+count) as if the stream had been played up to
   [first]" — entry counters from the footer and a merged carry-in set
   describing the pre-range state of every object the range references
   but does not itself allocate. *)

type t = { ix : Binio.indexed }

let of_bigarray ?name buf = { ix = Binio.index ?name buf }

let of_string ?name s = of_bigarray ?name (Binio.big_of_string s)

let load path =
  match Io.map_file path with
  | Some buf ->
      Lp_obs.Timings.count "trace.bytes_read" (Bigarray.Array1.dim buf);
      of_bigarray ~name:path buf
  | None ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let s = really_input_string ic (in_channel_length ic) in
          Lp_obs.Timings.count "trace.bytes_read" (String.length s);
          of_string ~name:path s)

let header t = Binio.indexed_header t.ix
let name t = Binio.indexed_name t.ix
let index t = t.ix
let chunks t = Binio.indexed_chunks t.ix
let n_chunks t = Array.length (chunks t)
let chunk_events t = Binio.indexed_chunk_events t.ix
let n_events t = (header t).Binio.n_events

type range = {
  rg_trace : t;
  rg_first_chunk : int;
  rg_n_chunks : int;
  rg_first_event : int;
  rg_n_events : int;
  rg_next_obj : int;
  rg_start_clock : int;
  rg_live_bytes : int;
  rg_live_objs : int;
  rg_carry : Binio.carry array;
}

(* The carry-in set of a chunk range.  Each chunk's set snapshots the
   pre-*chunk* state of the objects that chunk references, so for an
   object referenced by several chunks of the range only the entry from
   the earliest such chunk describes the pre-*range* state — later
   chunks see modifications made inside the range.  An object whose
   earliest entry records an allocation at or after the range start was
   born inside the range, so the range's own replay will (re)create its
   state and no carry entry is needed; after keep-earliest this can only
   happen if the object's sole pre-chunk births are in-range, which the
   per-chunk snapshot semantics already exclude, but the guard keeps the
   merge locally airtight. *)
let merge_carry ix ~first ~count ~first_event =
  if count = 1 then Binio.indexed_carry ix first
  else begin
    let seen : (int, Binio.carry) Hashtbl.t = Hashtbl.create 256 in
    for c = first to first + count - 1 do
      Array.iter
        (fun (cr : Binio.carry) ->
          if not (Hashtbl.mem seen cr.Binio.cr_obj) then
            Hashtbl.add seen cr.Binio.cr_obj cr)
        (Binio.indexed_carry ix c)
    done;
    let kept =
      Hashtbl.fold
        (fun _ (cr : Binio.carry) acc ->
          if cr.Binio.cr_alloc_event >= first_event then acc else cr :: acc)
        seen []
    in
    let arr = Array.of_list kept in
    Array.sort
      (fun (a : Binio.carry) (b : Binio.carry) ->
        compare a.Binio.cr_obj b.Binio.cr_obj)
      arr;
    arr
  end

let range t ~first ~count =
  let n = n_chunks t in
  if first < 0 || count < 0 || first + count > n then
    invalid_arg
      (Printf.sprintf "Sharded.range: chunks [%d, %d+%d) outside [0, %d)"
         first first count n);
  let ch = chunks t in
  if count = 0 then
    let first_event =
      if first < n then ch.(first).Binio.ch_first_event else n_events t
    in
    {
      rg_trace = t;
      rg_first_chunk = first;
      rg_n_chunks = 0;
      rg_first_event = first_event;
      rg_n_events = 0;
      rg_next_obj = (if first < n then ch.(first).Binio.ch_next_obj else 0);
      rg_start_clock =
        (if first < n then ch.(first).Binio.ch_start_clock else 0);
      rg_live_bytes = (if first < n then ch.(first).Binio.ch_live_bytes else 0);
      rg_live_objs = (if first < n then ch.(first).Binio.ch_live_objs else 0);
      rg_carry = [||];
    }
  else
    let entry = ch.(first) in
    let first_event = entry.Binio.ch_first_event in
    let last = ch.(first + count - 1) in
    let n_events = last.Binio.ch_first_event + last.Binio.ch_n_events
                   - first_event
    in
    {
      rg_trace = t;
      rg_first_chunk = first;
      rg_n_chunks = count;
      rg_first_event = first_event;
      rg_n_events = n_events;
      rg_next_obj = entry.Binio.ch_next_obj;
      rg_start_clock = entry.Binio.ch_start_clock;
      rg_live_bytes = entry.Binio.ch_live_bytes;
      rg_live_objs = entry.Binio.ch_live_objs;
      rg_carry = merge_carry t.ix ~first ~count ~first_event;
    }

let source t = Source.of_indexed t.ix

(* The object ids a range names are bounded by the next dense-birth id
   at range exit: its own allocations stay below it, and carried objects
   were born before the range.  Handing that bound down as the source's
   object hint lets every fold size its id-indexed tables once. *)
let range_source rg =
  let t = rg.rg_trace in
  let exit = rg.rg_first_chunk + rg.rg_n_chunks in
  let bound =
    if exit < n_chunks t then (chunks t).(exit).Binio.ch_next_obj
    else (header t).Binio.n_objects
  in
  let src =
    Source.sub (source t) ~first:rg.rg_first_event ~count:rg.rg_n_events
  in
  { src with Source.n_objects_hint = Some bound }
