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

(* The range fold: one range replayed with absolute clocks (seeded from
   the entry's start clock and carry-in birth clocks), recording the
   range's allocations (in order) and, per object the range wrote, the
   range-final birth/lifetime/survival values.  Applying the folds of a
   covering partition in range order ([resolve]) reconstructs exactly
   the per-object state the sequential pass ends with, because each
   fold's end values equal the sequential machine's state at that point
   of the stream: births are absolute clocks, a free's lifetime
   subtracts either an in-range birth or the carried pre-range birth
   clock, and later ranges overwrite earlier ones just as later events
   overwrite earlier ones.  The deferred per-allocation observations
   then run in global allocation order, so a histogram fed from them
   ends in the sequential state. *)
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

(* The range fold's state machine, a block at a time, so passes that
   keep their own per-event work next to lifetime accumulation
   (training, the audit's site profile) step a [Fold.t] over each block
   after their own loop over it, instead of duplicating the clock and
   birth/free bookkeeping.

   Per-object state is indexed by absolute object id: two word tables
   (birth clock, lifetime) and one flag byte holding the born, freed and
   touched bits, sized from the range's object-id bound; the allocation
   records are sized from the allocations that bound leaves the range.
   Both still grow if a source outruns them. *)
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
    mutable f_clock : int;
  }

  let enter src (en : Pass.entry) =
    let objects = Pass.objects src in
    let allocs = objects - en.en_next_obj in
    let t =
      {
        f_a_obj = Grow.create allocs;
        f_a_size = Grow.create allocs;
        f_birth = Grow.create objects;
        f_life = Grow.create objects;
        f_flags = Grow.Flags.create objects;
        f_touched = Grow.create (max 256 (allocs + Array.length en.en_carry));
        f_clock = en.en_start_clock;
      }
    in
    Array.iter
      (fun (cr : Binio.carry) ->
        Grow.set t.f_birth cr.Binio.cr_obj cr.Binio.cr_birth_clock)
      en.en_carry;
    t

  let touch t obj bit =
    if not (Grow.Flags.mem t.f_flags obj touched) then
      Grow.push t.f_touched obj;
    Grow.Flags.add t.f_flags obj (bit lor touched)

  let step t (b : Block.t) lo hi =
    let clock = ref t.f_clock in
    for i = lo to hi - 1 do
      match Bytes.unsafe_get b.kinds i with
      | '\000' (* alloc *) ->
          let obj = Array.unsafe_get b.obj i in
          let size = Array.unsafe_get b.size i in
          Grow.push t.f_a_obj obj;
          Grow.push t.f_a_size size;
          touch t obj born;
          Grow.set t.f_birth obj !clock;
          clock := !clock + size
      | '\001' (* free *) ->
          let obj = Array.unsafe_get b.obj i in
          touch t obj freed;
          Grow.set t.f_life obj (!clock - Grow.get t.f_birth obj)
      | '\002' (* realloc *) ->
          clock :=
            !clock
            + max 0 (Array.unsafe_get b.new_size i - Array.unsafe_get b.size i)
      | _ (* touch *) -> ()
    done;
    t.f_clock <- !clock

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

let iter_allocs r f each =
  Array.iteri
    (fun i obj ->
      each ~obj ~size:f.rf_a_size.(i) ~lifetime:(resolved_lifetime r obj)
        ~survived:(resolved_survived r obj))
    f.rf_a_obj

let summary ~threshold =
  let enter src en =
    let fold = Fold.enter src en in
    (Fold.step fold, fun () -> Fold.finish fold)
  in
  let merge _src folds =
    let r = resolve folds in
    let hist = Lp_quantile.Histogram.create () in
    let short = ref 0 and total = ref 0 in
    List.iter
      (fun f ->
        iter_allocs r f (fun ~obj:_ ~size ~lifetime ~survived ->
            Lp_quantile.Histogram.observe_weighted hist ~weight:size
              (float_of_int lifetime);
            total := !total + size;
            if (not survived) && lifetime < threshold then
              short := !short + size))
      folds;
    { hist; short_bytes = !short; total_alloc_bytes = !total }
  in
  { Pass.enter; merge }
