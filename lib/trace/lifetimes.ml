type t = {
  birth_clock : int array;
  lifetime : int array;
  survived : bool array;
  end_clock : int;
}

let compute (trace : Trace.t) =
  let n = trace.n_objects in
  let birth_clock = Array.make n 0 in
  let lifetime = Array.make n 0 in
  let survived = Array.make n true in
  let clock = ref 0 in
  Array.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          birth_clock.(obj) <- !clock;
          clock := !clock + size
      | Event.Free { obj; _ } ->
          lifetime.(obj) <- !clock - birth_clock.(obj);
          survived.(obj) <- false
      | Event.Realloc { old_size; new_size; _ } ->
          (* a resize advances the allocation clock by the grown delta but
             keeps the object's birth: its lifetime spans its resizes *)
          clock := !clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ())
    trace.events;
  let end_clock = !clock in
  for obj = 0 to n - 1 do
    if survived.(obj) then lifetime.(obj) <- end_clock - birth_clock.(obj)
  done;
  { birth_clock; lifetime; survived; end_clock }

let is_short_lived t ~threshold obj =
  (not t.survived.(obj)) && t.lifetime.(obj) < threshold

type summary = {
  hist : Lp_quantile.Histogram.t;
  short_bytes : int;
  total_alloc_bytes : int;
}

(* Streaming twin of [compute] + the byte-weighted fold the lifetimes CLI
   does on top of it: one pass over the source keeping per-object birth
   state and one (object, size) record per allocation, then a deferred
   fold in allocation order into the P² quantile histogram — the same
   observation sequence as the materialized path, so the histogram state
   (and its quartiles) is identical.  Memory scales with the allocation
   count, never the event count. *)
let summary_source ~threshold (src : Source.t) =
  let hint =
    match src.Source.n_objects_hint with Some n -> max 1 n | None -> 1024
  in
  let a_obj = Grow.create 1024 in
  let a_size = Grow.create 1024 in
  let n_allocs = ref 0 in
  let birth = Grow.create hint in
  let lifetime = Grow.create hint in
  let survived = Grow.create ~default:1 hint in
  let clock = ref 0 in
  Source.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          Grow.push a_obj obj;
          Grow.push a_size size;
          incr n_allocs;
          Grow.set birth obj !clock;
          clock := !clock + size
      | Event.Free { obj; _ } ->
          Grow.set lifetime obj (!clock - Grow.get birth obj);
          Grow.set survived obj 0
      | Event.Realloc { old_size; new_size; _ } ->
          clock := !clock + max 0 (new_size - old_size)
      | Event.Touch _ -> ())
    src;
  let end_clock = !clock in
  let hist = Lp_quantile.Histogram.create () in
  let short = ref 0 and total = ref 0 in
  for i = 0 to !n_allocs - 1 do
    let obj = Grow.get a_obj i in
    let size = Grow.get a_size i in
    let surv = Grow.get survived obj = 1 in
    let lt =
      if surv then end_clock - Grow.get birth obj else Grow.get lifetime obj
    in
    Lp_quantile.Histogram.observe_weighted hist ~weight:size (float_of_int lt);
    total := !total + size;
    if (not surv) && lt < threshold then short := !short + size
  done;
  { hist; short_bytes = !short; total_alloc_bytes = !total }

(* The range quarter of [summary_source]: replay one sharded chunk range
   seeded with its carry-in birth clocks and the absolute allocation
   clock, recording the range's allocations (in order) and, per object
   the range wrote, the range-final birth/lifetime/survival values.
   Applying the folds of a covering partition in range order ([resolve])
   reconstructs exactly the arrays the sequential pass ends with, because
   each fold's end values equal the sequential machine's state at that
   point of the stream: births are absolute clocks (seeded from
   [rg_start_clock]), a free's lifetime subtracts either an in-range
   birth or the carried pre-range birth clock, and later ranges overwrite
   earlier ones just as later events overwrite earlier ones. *)
type range_fold = {
  rf_a_obj : int array;
  rf_a_size : int array;
  rf_touched : int array;
  rf_born : Bytes.t;
  rf_birth : int array;
  rf_freed : Bytes.t;
  rf_life : int array;
  rf_end_clock : int;
}

(* Incremental form of the range fold: the same state machine exposed one
   event at a time, so passes that interleave their own per-event work
   with lifetime accumulation (the audit engine's analyses) drive a
   [Fold.t] from their own event loop instead of duplicating the clock
   and birth/free bookkeeping.  [fold_range] below is the one-shot loop
   over it.

   Per-object state is indexed by absolute object id: two word tables
   (birth clock, lifetime) and one flag byte holding the born, freed and
   touched bits.  The caller sizes them from the range's object-id bound
   ([objects]) and its allocation records from the expected allocation
   count ([allocs]); both still grow if a source outruns them. *)
module Fold = struct
  let born = 1
  let freed = 2
  let touched = 4

  type t = {
    f_a_obj : Grow.t;
    f_a_size : Grow.t;
    f_birth : Grow.t;
    f_life : Grow.t;
    f_flags : Grow.Flags.t;
    f_touched : Grow.t;
    mutable f_n_allocs : int;
    mutable f_clock : int;
  }

  let create ~objects ~allocs ~start_clock ~carry =
    let t =
      {
        f_a_obj = Grow.create allocs;
        f_a_size = Grow.create allocs;
        f_birth = Grow.create objects;
        f_life = Grow.create objects;
        f_flags = Grow.Flags.create objects;
        f_touched = Grow.create (max 256 (allocs + Array.length carry));
        f_n_allocs = 0;
        f_clock = start_clock;
      }
    in
    Array.iter
      (fun (cr : Binio.carry) ->
        Grow.set t.f_birth cr.Binio.cr_obj cr.Binio.cr_birth_clock)
      carry;
    t

  let clock t = t.f_clock
  let n_allocs t = t.f_n_allocs

  let touch t obj bit =
    if not (Grow.Flags.mem t.f_flags obj touched) then
      Grow.push t.f_touched obj;
    Grow.Flags.add t.f_flags obj (bit lor touched)

  let step t = function
    | Event.Alloc { obj; size; _ } ->
        Grow.push t.f_a_obj obj;
        Grow.push t.f_a_size size;
        t.f_n_allocs <- t.f_n_allocs + 1;
        touch t obj born;
        Grow.set t.f_birth obj t.f_clock;
        t.f_clock <- t.f_clock + size
    | Event.Free { obj; _ } ->
        touch t obj freed;
        Grow.set t.f_life obj (t.f_clock - Grow.get t.f_birth obj)
    | Event.Realloc { old_size; new_size; _ } ->
        t.f_clock <- t.f_clock + max 0 (new_size - old_size)
    | Event.Touch _ -> ()

  let finish t =
    let touched = Grow.freeze t.f_touched in
    let n = Array.length touched in
    let born_b = Bytes.make n '\000' and freed_b = Bytes.make n '\000' in
    let birth = Array.make n 0 and life = Array.make n 0 in
    for i = 0 to n - 1 do
      let obj = touched.(i) in
      let flags = Grow.Flags.get t.f_flags obj in
      if flags land born <> 0 then Bytes.set born_b i '\001';
      if flags land freed <> 0 then Bytes.set freed_b i '\001';
      birth.(i) <- Grow.get t.f_birth obj;
      life.(i) <- Grow.get t.f_life obj
    done;
    {
      rf_a_obj = Grow.freeze t.f_a_obj;
      rf_a_size = Grow.freeze t.f_a_size;
      rf_touched = touched;
      rf_born = born_b;
      rf_birth = birth;
      rf_freed = freed_b;
      rf_life = life;
      rf_end_clock = t.f_clock;
    }
end

let fold_range ?on_alloc (rg : Sharded.range) =
  let src = Sharded.range_source rg in
  let objects = Option.value src.Source.n_objects_hint ~default:0 in
  let fold =
    Fold.create ~objects
      ~allocs:(objects - rg.Sharded.rg_next_obj)
      ~start_clock:rg.Sharded.rg_start_clock ~carry:rg.Sharded.rg_carry
  in
  Source.iter
    (fun ev ->
      (match (ev, on_alloc) with
      | Event.Alloc { size; chain; key; _ }, Some f -> f src ~size ~chain ~key
      | _ -> ());
      Fold.step fold ev)
    src;
  Fold.finish fold

(* final per-object state after applying a covering partition's folds in
   range order, in tables sized to the largest object id the folds
   touched; lookups outside it read as never-allocated survivors, the
   same default the sequential pass's growable tables give *)
type resolved = {
  rv_birth : int array;
  rv_life : int array;
  rv_freed : Bytes.t;
  rv_end_clock : int;
}

let resolve folds =
  let bound = ref 0 in
  List.iter
    (fun f ->
      Array.iter (fun obj -> if obj >= !bound then bound := obj + 1) f.rf_touched)
    folds;
  let bound = !bound in
  let birth = Array.make bound 0 in
  let life = Array.make bound 0 in
  let freed = Bytes.make bound '\000' in
  let end_clock =
    List.fold_left (fun _ f -> f.rf_end_clock) 0 folds
  in
  List.iter
    (fun f ->
      for i = 0 to Array.length f.rf_touched - 1 do
        let obj = f.rf_touched.(i) in
        if Bytes.get f.rf_born i = '\001' then birth.(obj) <- f.rf_birth.(i);
        if Bytes.get f.rf_freed i = '\001' then begin
          life.(obj) <- f.rf_life.(i);
          Bytes.set freed obj '\001'
        end
      done)
    folds;
  { rv_birth = birth; rv_life = life; rv_freed = freed; rv_end_clock = end_clock }

let in_bounds r obj = obj >= 0 && obj < Array.length r.rv_birth

let resolved_survived r obj =
  not (in_bounds r obj && Bytes.get r.rv_freed obj = '\001')

let resolved_lifetime r obj =
  if not (in_bounds r obj) then r.rv_end_clock
  else if Bytes.get r.rv_freed obj = '\001' then r.rv_life.(obj)
  else r.rv_end_clock - r.rv_birth.(obj)

let resolved_end_clock r = r.rv_end_clock

let merge_summaries ~threshold folds =
  let r = resolve folds in
  let hist = Lp_quantile.Histogram.create () in
  let short = ref 0 and total = ref 0 in
  List.iter
    (fun f ->
      Array.iteri
        (fun i obj ->
          let size = f.rf_a_size.(i) in
          let surv = resolved_survived r obj in
          let lt = resolved_lifetime r obj in
          Lp_quantile.Histogram.observe_weighted hist ~weight:size
            (float_of_int lt);
          total := !total + size;
          if (not surv) && lt < threshold then short := !short + size)
        f.rf_a_obj)
    folds;
  { hist; short_bytes = !short; total_alloc_bytes = !total }

let max_live (trace : Trace.t) =
  let sizes = Array.make trace.n_objects 0 in
  let live_bytes = ref 0 and live_objs = ref 0 in
  let max_bytes = ref 0 and max_objs = ref 0 in
  Array.iter
    (function
      | Event.Alloc { obj; size; _ } ->
          sizes.(obj) <- size;
          live_bytes := !live_bytes + size;
          incr live_objs;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes;
          if !live_objs > !max_objs then max_objs := !live_objs
      | Event.Free { obj; _ } ->
          live_bytes := !live_bytes - sizes.(obj);
          decr live_objs
      | Event.Realloc { obj; new_size; _ } ->
          live_bytes := !live_bytes - sizes.(obj) + new_size;
          sizes.(obj) <- new_size;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes
      | Event.Touch _ -> ())
    trace.events;
  (!max_bytes, !max_objs)
