open Diagnostic

let rules =
  [
    { id = "double-free"; default_severity = Error; doc = "an object is freed twice" };
    {
      id = "free-without-alloc";
      default_severity = Error;
      doc = "a free with no preceding allocation of the object";
    };
    {
      id = "touch-after-free";
      default_severity = Error;
      doc = "a heap reference to an object outside its lifetime";
    };
    {
      id = "size-mismatch-at-free";
      default_severity = Error;
      doc = "a declared sized-deallocation size differs from the allocation";
    };
    {
      id = "realloc-of-unallocated";
      default_severity = Error;
      doc = "a realloc of an object with no preceding allocation";
    };
    {
      id = "realloc-after-free";
      default_severity = Error;
      doc = "a realloc of an object after its free";
    };
    {
      id = "realloc-size-regression";
      default_severity = Error;
      doc = "a realloc whose declared old size is not the object's current size";
    };
    {
      id = "nonpositive-size";
      default_severity = Error;
      doc = "an allocation of zero or negative size";
    };
    {
      id = "non-monotonic-birth";
      default_severity = Error;
      doc = "an allocation out of dense birth-timestamp order";
    };
    {
      id = "leaked-at-exit";
      default_severity = Warning;
      doc = "an object still live at the end of the trace";
    };
    {
      id = "chain-anomaly";
      default_severity = Warning;
      doc = "an allocation call-chain that is empty or absurdly deep";
    };
  ]

let default_max_chain_depth = 256

module Source = Lp_trace.Source
module Pass = Lp_trace.Pass
module Grow = Lp_trace.Grow

(* Per-object replay state: [unborn], [live], or (values >= 0) the event
   index of the object's free. *)
let unborn = -2
let live = -1

(* A range replays the linter's state machine seeded from its entry:
   per-object state and last-alloc metadata from the carry-in set, the
   next dense-birth id, and the absolute first event index, so every
   in-range diagnostic carries exactly the indices and messages of the
   sequential pass.  Two rules stitch at the merge: [chain-anomaly]
   fires once per chain at its first use, so each range reports its own
   first use tagged with the chain and the merge keeps the earliest
   (ranges are walked in order, so "first seen" is "globally first");
   [leaked-at-exit] needs the end-of-trace state, which the merge gets
   by overlaying the ranges' end states in order — each range's end
   state equals the sequential machine's at that point of the stream,
   so the last overlay wins exactly like the last event does. *)
type diag =
  | Plain of Diagnostic.t
  | Chain_once of int * Diagnostic.t  (** chain-anomaly, dedup at merge *)

type part = {
  lr_diags : diag list;  (** chronological *)
  lr_objs : int array;  (** objects whose state the range wrote *)
  lr_state : int array;  (** unborn / live / first-free event (absolute) *)
  lr_size : int array;
  lr_aevent : int array;
  lr_achain : int array;
}

let enter ~enabled ~max_chain_depth (src : Source.t) (en : Pass.entry) =
  let out = ref [] in
  let emit ~rule ~severity ?event ?obj ?site message =
    if enabled rule then
      out := Plain (make ~rule ~severity ?event ?obj ?site message) :: !out
  in
  let emit_chain_once ~chain ~severity ?event ?obj ?site message =
    if enabled "chain-anomaly" then
      out :=
        Chain_once
          (chain, make ~rule:"chain-anomaly" ~severity ?event ?obj ?site message)
        :: !out
  in
  let site = Absint.render_chain src in
  let objects = Pass.objects src in
  let state = Grow.create ~default:unborn objects in
  let alloc_size = Grow.create objects in
  let alloc_event = Grow.create ~default:(-1) objects in
  let alloc_chain = Grow.create ~default:(-1) objects in
  let chain_reported = Grow.Flags.create 64 in
  let touched =
    Grow.create (objects - en.en_next_obj + Array.length en.en_carry)
  in
  let stamp = Grow.Flags.create objects in
  let touch obj =
    if not (Grow.Flags.mem stamp obj 1) then begin
      Grow.Flags.add stamp obj 1;
      Grow.push touched obj
    end
  in
  Array.iter
    (fun (cr : Lp_trace.Binio.carry) ->
      let obj = cr.cr_obj in
      Grow.set state obj (if cr.cr_freed_at >= 0 then cr.cr_freed_at else live);
      Grow.set alloc_size obj cr.cr_size;
      Grow.set alloc_event obj cr.cr_alloc_event;
      Grow.set alloc_chain obj cr.cr_alloc_chain)
    en.en_carry;
  let next_obj = ref en.en_next_obj in
  let event = ref (en.en_first_event - 1) in
  let step (b : Lp_trace.Block.t) lo hi =
    for i = lo to hi - 1 do
      incr event;
      let event = !event in
      let obj = Array.unsafe_get b.obj i in
      match Bytes.unsafe_get b.kinds i with
      | '\000' (* alloc *) ->
          let size = Array.unsafe_get b.size i in
          let chain = Array.unsafe_get b.chain i in
          if size <= 0 then
            emit ~rule:"nonpositive-size" ~severity:Error ~event ~obj
              ~site:(site chain)
              (Printf.sprintf "allocation of object %d with size %d" obj size);
          if obj <> !next_obj then
            emit ~rule:"non-monotonic-birth" ~severity:Error ~event ~obj
              (Printf.sprintf
                 "allocation of object %d out of birth order (expected object \
                  %d)"
                 obj !next_obj);
          if obj >= 0 then begin
            if obj >= !next_obj then next_obj := obj + 1;
            touch obj;
            Grow.set state obj live;
            Grow.set alloc_size obj size;
            Grow.set alloc_event obj event;
            Grow.set alloc_chain obj chain
          end
          else incr next_obj;
          if
            chain >= 0
            && chain < src.n_chains ()
            && not (Grow.Flags.mem chain_reported chain 1)
          then begin
            let depth = Array.length (src.chain chain) in
            if depth = 0 then begin
              Grow.Flags.add chain_reported chain 1;
              emit_chain_once ~chain ~severity:Warning ~event ~obj
                ~site:"<empty chain>"
                (Printf.sprintf "allocation call-chain %d is empty" chain)
            end
            else if depth > max_chain_depth then begin
              Grow.Flags.add chain_reported chain 1;
              emit_chain_once ~chain ~severity:Warning ~event ~obj
                ~site:(site chain)
                (Printf.sprintf "allocation call-chain %d has depth %d (limit %d)"
                   chain depth max_chain_depth)
            end
          end
      | '\001' (* free *) ->
          let size = Array.unsafe_get b.size i in
          if obj < 0 || Grow.get state obj = unborn then
            emit ~rule:"free-without-alloc" ~severity:Error ~event ~obj
              (Printf.sprintf "free of object %d which has not been allocated" obj)
          else begin
            let st = Grow.get state obj in
            (if st >= 0 then
               emit ~rule:"double-free" ~severity:Error ~event ~obj
                 ~site:(site (Grow.get alloc_chain obj))
                 (Printf.sprintf "object %d freed again (first freed at event %d)"
                    obj st));
            if size >= 0 && size <> Grow.get alloc_size obj then
              emit ~rule:"size-mismatch-at-free" ~severity:Error ~event ~obj
                ~site:(site (Grow.get alloc_chain obj))
                (Printf.sprintf
                   "free declares size %d but object %d was allocated with size \
                    %d at event %d"
                   size obj (Grow.get alloc_size obj) (Grow.get alloc_event obj));
            if st = live then begin
              touch obj;
              Grow.set state obj event
            end
          end
      | '\002' (* realloc *) ->
          let old_size = Array.unsafe_get b.size i in
          let new_size = Array.unsafe_get b.new_size i in
          let chain = Array.unsafe_get b.chain i in
          if new_size <= 0 then
            emit ~rule:"nonpositive-size" ~severity:Error ~event ~obj
              ~site:(site chain)
              (Printf.sprintf "realloc of object %d to size %d" obj new_size);
          if obj < 0 || Grow.get state obj = unborn then
            emit ~rule:"realloc-of-unallocated" ~severity:Error ~event ~obj
              ~site:(site chain)
              (Printf.sprintf "realloc of object %d which has not been allocated"
                 obj)
          else begin
            let st = Grow.get state obj in
            if st >= 0 then
              emit ~rule:"realloc-after-free" ~severity:Error ~event ~obj
                ~site:(site (Grow.get alloc_chain obj))
                (Printf.sprintf "realloc of object %d after its free at event %d"
                   obj st)
            else begin
              (if old_size <> Grow.get alloc_size obj then
                 emit ~rule:"realloc-size-regression" ~severity:Error ~event ~obj
                   ~site:(site (Grow.get alloc_chain obj))
                   (Printf.sprintf
                      "realloc declares old size %d but object %d currently has \
                       size %d (allocated at event %d)"
                      old_size obj (Grow.get alloc_size obj)
                      (Grow.get alloc_event obj)));
              (* later size checks are against the resized object (the
                 carry-in sets snapshot post-realloc sizes too) *)
              touch obj;
              Grow.set alloc_size obj new_size
            end
          end
      | _ (* touch *) ->
          if obj < 0 || Grow.get state obj = unborn then
            emit ~rule:"touch-after-free" ~severity:Error ~event ~obj
              (Printf.sprintf "touch of object %d before its allocation" obj)
          else
            let st = Grow.get state obj in
            if st >= 0 then
              emit ~rule:"touch-after-free" ~severity:Error ~event ~obj
                ~site:(site (Grow.get alloc_chain obj))
                (Printf.sprintf "touch of object %d after its free at event %d"
                   obj st)
    done
  in
  let finish () =
    let objs = Grow.freeze touched in
    {
      lr_diags = List.rev !out;
      lr_objs = objs;
      lr_state = Array.map (Grow.get state) objs;
      lr_size = Array.map (Grow.get alloc_size) objs;
      lr_aevent = Array.map (Grow.get alloc_event) objs;
      lr_achain = Array.map (Grow.get alloc_chain) objs;
    }
  in
  (step, finish)

let merge ~enabled (src : Source.t) parts =
  let objects = Pass.objects src in
  let state = Grow.create ~default:unborn objects in
  let alloc_size = Grow.create objects in
  let alloc_event = Grow.create ~default:(-1) objects in
  let alloc_chain = Grow.create ~default:(-1) objects in
  List.iter
    (fun r ->
      Array.iteri
        (fun i obj ->
          Grow.set state obj r.lr_state.(i);
          Grow.set alloc_size obj r.lr_size.(i);
          Grow.set alloc_event obj r.lr_aevent.(i);
          Grow.set alloc_chain obj r.lr_achain.(i))
        r.lr_objs)
    parts;
  let seen_chains = Hashtbl.create 16 in
  let diags =
    List.concat_map
      (fun r ->
        List.filter_map
          (function
            | Plain d -> Some d
            | Chain_once (chain, d) ->
                if Hashtbl.mem seen_chains chain then None
                else begin
                  Hashtbl.add seen_chains chain ();
                  Some d
                end)
          r.lr_diags)
      parts
  in
  let leaks = ref [] in
  if enabled "leaked-at-exit" then
    for obj = src.n_objects_now () - 1 downto 0 do
      if Grow.get state obj = live then
        leaks :=
          make ~rule:"leaked-at-exit" ~severity:Warning
            ~event:(Grow.get alloc_event obj) ~obj
            ~site:(Absint.render_chain src (Grow.get alloc_chain obj))
            (Printf.sprintf "object %d (size %d) still live at end of trace" obj
               (Grow.get alloc_size obj))
          :: !leaks
    done;
  diags @ !leaks

let pass ?only ?disable ?(max_chain_depth = default_max_chain_depth) () =
  let enabled = select ~rules ?only ?disable () in
  { Pass.enter = enter ~enabled ~max_chain_depth; merge = merge ~enabled }

let run ?only ?disable ?max_chain_depth trace =
  Pass.run (pass ?only ?disable ?max_chain_depth ()) (Source.of_trace trace)

let clean ds = not (has_errors ds)
