type t = {
  program : string;
  input : string;
  instructions : int;
  calls : int;
  total_bytes : int;
  total_objects : int;
  max_bytes : int;
  max_objects : int;
  heap_ref_pct : float;
  distinct_chains : int;
  mean_object_size : float;
}

(* A range replays with absolute live counters (seeded from its entry)
   and a per-object size table preloaded from the carry-in set, so a
   free of an earlier-born object subtracts the size the sequential pass
   would.  The maxima only move at allocations and resizes, so the
   global maxima are the max over the ranges' candidates (0, the
   sequential initial value, is the identity for a range without
   allocations); the merge is a sum and a max. *)
type partial = {
  pt_total_bytes : int;
  pt_max_bytes : int;
  pt_max_objects : int;
}

let enter src (en : Pass.entry) =
  let sizes = Grow.create (Pass.objects src) in
  Array.iter
    (fun (cr : Binio.carry) -> Grow.set sizes cr.Binio.cr_obj cr.Binio.cr_size)
    en.en_carry;
  let total_bytes = ref 0 in
  let live_bytes = ref en.en_live_bytes in
  let live_objs = ref en.en_live_objs in
  let max_bytes = ref 0 and max_objs = ref 0 in
  let step (b : Block.t) lo hi =
    for i = lo to hi - 1 do
      let obj = Array.unsafe_get b.obj i in
      match Bytes.unsafe_get b.kinds i with
      | '\000' (* alloc *) ->
          let size = Array.unsafe_get b.size i in
          Grow.set sizes obj size;
          total_bytes := !total_bytes + size;
          live_bytes := !live_bytes + size;
          incr live_objs;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes;
          if !live_objs > !max_objs then max_objs := !live_objs
      | '\001' (* free *) ->
          live_bytes := !live_bytes - Grow.get sizes obj;
          decr live_objs
      | '\002' (* realloc *) ->
          (* the clock charges the declared grown delta (as
             [Trace.total_bytes] does); live bytes swap the tracked
             current size for the new one (as the free path subtracts) *)
          let new_size = Array.unsafe_get b.new_size i in
          total_bytes :=
            !total_bytes + max 0 (new_size - Array.unsafe_get b.size i);
          live_bytes := !live_bytes - Grow.get sizes obj + new_size;
          Grow.set sizes obj new_size;
          if !live_bytes > !max_bytes then max_bytes := !live_bytes
      | _ (* touch *) -> ()
    done
  in
  let finish () =
    {
      pt_total_bytes = !total_bytes;
      pt_max_bytes = !max_bytes;
      pt_max_objects = !max_objs;
    }
  in
  (step, finish)

let merge (src : Source.t) parts =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
  let max_of f = List.fold_left (fun acc p -> max acc (f p)) 0 parts in
  let total_bytes = sum (fun p -> p.pt_total_bytes) in
  let total_objects = src.n_objects_now () in
  let c = Source.counters src in
  {
    program = src.program;
    input = src.input;
    instructions = c.instructions;
    calls = c.calls;
    total_bytes;
    total_objects;
    max_bytes = max_of (fun p -> p.pt_max_bytes);
    max_objects = max_of (fun p -> p.pt_max_objects);
    heap_ref_pct =
      (if c.total_refs = 0 then 0.
       else 100. *. float_of_int c.heap_refs /. float_of_int c.total_refs);
    distinct_chains = src.n_chains ();
    mean_object_size =
      (if total_objects = 0 then 0.
       else float_of_int total_bytes /. float_of_int total_objects);
  }

let pass = { Pass.enter; merge }
let compute trace = Pass.run pass (Source.of_trace trace)

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s (%s):@ instructions %d@ calls %d@ bytes %d in %d objects (mean %.1f)@ max \
     live %d bytes / %d objects@ heap refs %.1f%%@ distinct chains %d@]"
    t.program t.input t.instructions t.calls t.total_bytes t.total_objects
    t.mean_object_size t.max_bytes t.max_objects t.heap_ref_pct t.distinct_chains
