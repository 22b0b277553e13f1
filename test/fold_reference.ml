(* Materialized reference implementations of the training and stats
   folds, kept as the independent expectation for the fold-protocol
   passes (Train.pass, Stats.pass).  These are the direct array
   computations over a decoded [Trace.t] that the library shipped before
   its consumers became passes: lifetimes from [Lifetimes.compute], sites
   derived per allocation in [iter_allocs] order, and the live-heap
   maxima from one scan over the event array.

   Do not rewrite these in terms of the passes: their value is that they
   share no code with what they check. *)

module Site = Lp_callchain.Site
module Trace = Lp_trace.Trace
module Event = Lp_trace.Event

let collect ?(config = Lifetime.Config.default) (trace : Trace.t) :
    Lifetime.Train.site_table =
  let lifetimes = Lp_trace.Lifetimes.compute trace in
  let table : Lifetime.Train.site_table = Site.Table.create 256 in
  Trace.iter_allocs trace (fun ~obj ~size ~chain ~key ~tag:_ ->
      let site =
        Site.make config.policy
          ~raw_chain:(Trace.chain_of_alloc trace chain)
          ~key ~size
      in
      let stats =
        match Site.Table.find_opt table site with
        | Some s -> s
        | None ->
            let s = Lifetime.Site_stats.create () in
            Site.Table.add table site s;
            s
      in
      let short =
        Lp_trace.Lifetimes.is_short_lived lifetimes
          ~threshold:config.short_lived_threshold obj
      in
      Lifetime.Site_stats.observe stats ~size
        ~lifetime:lifetimes.lifetime.(obj) ~survived:lifetimes.survived.(obj)
        ~short ~refs:trace.obj_refs.(obj));
  table

(* [(max_bytes, max_objects)] — the largest numbers of bytes and of
   objects simultaneously alive (Table 2); they may occur at different
   times *)
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

let stats (trace : Trace.t) : Lp_trace.Stats.t =
  let total_bytes = Trace.total_bytes trace in
  let total_objects = Trace.total_objects trace in
  let max_bytes, max_objects = max_live trace in
  {
    program = trace.program;
    input = trace.input;
    instructions = trace.instructions;
    calls = trace.calls;
    total_bytes;
    total_objects;
    max_bytes;
    max_objects;
    heap_ref_pct =
      (if trace.total_refs = 0 then 0.
       else
         100. *. float_of_int trace.heap_refs /. float_of_int trace.total_refs);
    distinct_chains = Array.length trace.chains;
    mean_object_size =
      (if total_objects = 0 then 0.
       else float_of_int total_bytes /. float_of_int total_objects);
  }
