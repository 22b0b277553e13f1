type predictor = {
  predicted : obj:int -> size:int -> chain:int -> key:int -> bool;
  predict_cost : int;
  short_threshold : int;
  on_outcome : (obj:int -> lifetime:int -> survived:bool -> unit) option;
}

(* A malformed trace (free of a never-allocated object, double free, or an
   out-of-range object id) used to push addr_of.(obj) = -1 straight into the
   allocator and crash with an unrelated error deep inside it; validate here
   and name the object and the event index instead. *)
let event_error ~event what obj =
  failwith (Printf.sprintf "Driver.run: %s object %d at event %d" what obj event)

(* -- validation: the one checker ---------------------------------------------- *)

(* The replay contract, checked one event at a time over a live bitmap.
   [bound] is a trace's object count; a stream has none ([max_int]) and
   widens the bitmap as allocated ids arrive, so an id above the final
   count reads as never allocated.  A trace is checked once, by
   [prepare]'s pass, and its replays trust every id; a stream has no
   second pass, so its feed calls the checks inline.  The error messages
   are part of the public contract (tests assert the object id and event
   index) and must not change. *)
type checker = { mutable live : Bytes.t; bound : int }

(* double the bitmap past [obj], capped at the array limit (the replay
   tables follow it) *)
let widen_live c ~event obj =
  if obj >= Sys.max_array_length then event_error ~event "alloc of out-of-range" obj;
  let n = ref (Bytes.length c.live) in
  while obj >= !n do
    n := if !n >= Sys.max_array_length / 2 then Sys.max_array_length else 2 * !n
  done;
  let w = Bytes.make !n '\000' in
  Bytes.blit c.live 0 w 0 (Bytes.length c.live);
  c.live <- w

let[@inline] check_alloc c ~event obj =
  if obj < 0 || obj >= c.bound then event_error ~event "alloc of out-of-range" obj;
  if obj >= Bytes.length c.live then widen_live c ~event obj;
  if Bytes.unsafe_get c.live obj <> '\000' then
    event_error ~event "second alloc of live" obj;
  Bytes.unsafe_set c.live obj '\001'

let[@inline] check_free c ~event obj =
  if obj < 0 || obj >= c.bound then event_error ~event "free of out-of-range" obj;
  if obj >= Bytes.length c.live || Bytes.unsafe_get c.live obj = '\000' then
    event_error ~event "free of never-allocated or already-freed" obj;
  Bytes.unsafe_set c.live obj '\000'

let[@inline] check_realloc c ~event obj =
  if obj < 0 || obj >= c.bound then event_error ~event "realloc of out-of-range" obj;
  if obj >= Bytes.length c.live || Bytes.unsafe_get c.live obj = '\000' then
    event_error ~event "realloc of never-allocated or already-freed" obj

let[@inline] check_touch c ~event obj =
  if obj < 0 || obj >= c.bound then event_error ~event "touch of out-of-range" obj

(* Decode-once/replay-many: a trace is validated in a single pure pass,
   run exactly once per trace — [prepare] memoizes on trace identity —
   so a candidate sweep does not pay it once per backend. *)

type prepared = { trace : Lp_trace.Trace.t }

let validate (trace : Lp_trace.Trace.t) =
  Lp_obs.Timings.count "replay.validations" 1;
  let n_objects = trace.n_objects in
  let c = { live = Bytes.make n_objects '\000'; bound = n_objects } in
  let events = trace.events in
  for event = 0 to Array.length events - 1 do
    match Array.unsafe_get events event with
    | Lp_trace.Event.Alloc { obj; _ } -> check_alloc c ~event obj
    | Lp_trace.Event.Free { obj; _ } -> check_free c ~event obj
    | Lp_trace.Event.Realloc { obj; _ } -> check_realloc c ~event obj
    | Lp_trace.Event.Touch { obj; _ } -> check_touch c ~event obj
  done

(* Traces validated so far, by physical identity.  A Weak array so the memo
   never keeps a trace alive; a few slots suffice (the working set of live
   traces in any run is tiny) and a false miss only costs a re-validation.
   Mutex-guarded: [run] is documented as safe across domains. *)
let memo_lock = Mutex.create ()
let memo : Lp_trace.Trace.t Weak.t = Weak.create 32
let memo_next = ref 0

(* call with [memo_lock] held *)
let memo_scan trace =
  let rec go i =
    i < Weak.length memo
    && match Weak.get memo i with Some t when t == trace -> true | _ -> go (i + 1)
  in
  go 0

let memo_mem trace = Mutex.protect memo_lock (fun () -> memo_scan trace)

let memo_add trace =
  Mutex.protect memo_lock (fun () ->
      if not (memo_scan trace) then begin
        Weak.set memo !memo_next (Some trace);
        memo_next := (!memo_next + 1) mod Weak.length memo
      end)

let prepare (trace : Lp_trace.Trace.t) : prepared =
  if not (memo_mem trace) then begin
    Lp_obs.Timings.time ~stage:"prepare"
      ~items:(Array.length trace.Lp_trace.Trace.events) (fun () ->
        validate trace);
    memo_add trace
  end;
  { trace }

let trace_of_prepared (p : prepared) = p.trace

(* -- the replay kernel --------------------------------------------------------- *)

(* What one replay walks: a prepared trace's events, or a stream's
   blocks, checked as they arrive. *)
type feed = Events of Lp_trace.Trace.t | Blocks of Lp_trace.Source.t

(* Per-replay state.  The per-object tables come from the domain's
   scratch pool; only ids below [limit] index them (the pooled arrays may
   be longer, with stale entries past it).  A stream rebinds them when an
   allocated id passes [limit], which happens on sources that declare no
   object-id bound. *)
type state = {
  mutable limit : int;
  mutable addr_of : int array;  (* obj -> payload address, -1 = dead *)
  mutable size_of : int array;  (* obj -> tracked payload size *)
  mutable ref_cursor : int array;  (* obj -> Touch stride cursor *)
  mutable birth_of : int array;  (* obj -> clock at birth, -1 = unborn *)
  mutable flag_of : Bytes.t;  (* obj -> last oracle verdict *)
  mutable live : int;
  mutable max_live : int;
  mutable total_bytes : int;
  mutable reallocs : int;
  mutable realloc_in_place : int;
  mutable realloc_moves : int;
  mutable predictions : int;
  mutable mis_short : int;
  mutable mis_long : int;
}

(* widen every table in use to [n] slots, in private arrays from then on *)
let grow st n =
  let widen a default =
    if Array.length a = 0 then a
    else begin
      let w = Array.make n default in
      Array.blit a 0 w 0 st.limit;
      w
    end
  in
  st.addr_of <- widen st.addr_of (-1);
  st.size_of <- widen st.size_of 0;
  st.ref_cursor <- widen st.ref_cursor 0;
  st.birth_of <- widen st.birth_of (-1);
  if Bytes.length st.flag_of > 0 then begin
    let w = Bytes.make n '\000' in
    Bytes.blit st.flag_of 0 w 0 st.limit;
    st.flag_of <- w
  end;
  st.limit <- n

(* The one replay engine: every backend — first-fit, best-fit, BSD, segfit,
   arena, and whatever the registry grows next — and both feeds run the
   step functions below, so allocation, free, resize, cache replay and
   oracle feedback exist in exactly one place.  The steps are inlined into
   each feed's loop and take [addr_of]/[size_of] as arguments, which the
   feed holds in locals: replay throughput is the benchmark's headline
   number and every indirection here is paid tens of millions of times
   per run.  They index the tables unchecked: every id has passed the
   checker, in [prepare] or inline. *)
let replay ?cache ?predictor feed (module B : Backend.BACKEND) : Metrics.t =
  let hint =
    match feed with
    | Events trace -> trace.n_objects
    | Blocks src -> Option.value src.Lp_trace.Source.n_objects_hint ~default:1024
  in
  (* the object count pre-sizes backend tables; a pure speed knob *)
  let b = B.create ~hint () in
  (* the prediction front-end: only consulted (and billed) for backends
     that act on it, so e.g. a first-fit replay under a predictor stays
     byte-identical to one without *)
  let predictor = if B.uses_prediction then predictor else None in
  let limit = max 16 hint in
  let scratch = Scratch.acquire () in
  Fun.protect ~finally:(fun () -> Scratch.release scratch) @@ fun () ->
  let addr_of, size_of, ref_cursor =
    Scratch.tables scratch ~n_objects:limit ~cursor:(cache <> None)
  in
  (* oracle outcome tracking: under a predictor every object records its
     birth clock and last verdict, so the free path (and the end-of-trace
     survivor scan) can classify the prediction and feed the outcome back
     to a stateful oracle.  None of this charges simulated instructions,
     so metric values other than the mispredict counters are unaffected. *)
  let birth_of, flag_of =
    match predictor with
    | None -> ([||], Bytes.empty)
    | Some _ -> Scratch.predict_tables scratch ~n_objects:limit
  in
  let st =
    { limit; addr_of; size_of; ref_cursor; birth_of; flag_of; live = 0;
      max_live = 0; total_bytes = 0; reallocs = 0; realloc_in_place = 0;
      realloc_moves = 0; predictions = 0; mis_short = 0; mis_long = 0 }
  in
  let observe_outcome (p : predictor) ~obj ~survived =
    let birth = Array.unsafe_get st.birth_of obj in
    if birth >= 0 then begin
      let lifetime = st.total_bytes - birth in
      let short = (not survived) && lifetime < p.short_threshold in
      if Bytes.unsafe_get st.flag_of obj <> '\000' then begin
        if not short then st.mis_short <- st.mis_short + 1
      end
      else if short then st.mis_long <- st.mis_long + 1;
      (match p.on_outcome with
      | Some f -> f ~obj ~lifetime ~survived
      | None -> ());
      Array.unsafe_set st.birth_of obj (-1)
    end
  in
  (* every allocation — and every resize, which predicts like an
     allocation site (§5.1) — pays for the attempt to predict; the
     verdict flag follows the latest consultation *)
  let[@inline] predict (p : predictor) ~obj ~size ~chain ~key =
    B.charge_alloc b p.predict_cost;
    let v = p.predicted ~obj ~size ~chain ~key in
    st.predictions <- st.predictions + 1;
    Bytes.unsafe_set st.flag_of obj (if v then '\001' else '\000');
    v
  in
  let[@inline] alloc addr_of size_of ~obj ~size ~chain ~key =
    let predicted =
      match predictor with
      | None -> false
      | Some p ->
          (* the birth clock is the pre-increment allocation clock,
             mirroring training's lifetime accounting *)
          Array.unsafe_set st.birth_of obj st.total_bytes;
          predict p ~obj ~size ~chain ~key
    in
    let addr = B.alloc b ~size ~predicted in
    Array.unsafe_set addr_of obj addr;
    Array.unsafe_set size_of obj size;
    st.total_bytes <- st.total_bytes + size;
    let l = st.live + size in
    st.live <- l;
    if l > st.max_live then st.max_live <- l;
    match cache with Some c -> Cache.access_range c ~addr ~bytes:8 | None -> ()
  in
  (* a declared sized-deallocation size is the linter's business, not the
     replay's: the allocator is handed only the address *)
  let[@inline] free addr_of size_of ~obj =
    let addr = Array.unsafe_get addr_of obj in
    B.free b addr;
    st.live <- st.live - Array.unsafe_get size_of obj;
    (match cache with Some c -> Cache.access_range c ~addr ~bytes:8 | None -> ());
    Array.unsafe_set addr_of obj (-1);
    match predictor with
    | Some p -> observe_outcome p ~obj ~survived:false
    | None -> ()
  in
  (* Resize an object, preferring the backend's native hook and falling
     back to free + alloc + copy.  The backend is handed the *tracked*
     current size (what its block actually holds); the clock/total-bytes
     charge uses the event's declared [old_size], mirroring
     [Trace.total_bytes] and the stats folds.  The birth clock, like
     training's, stays at the Alloc event. *)
  let[@inline] realloc addr_of size_of ~obj ~old_size ~new_size ~chain ~key =
    let addr = Array.unsafe_get addr_of obj in
    let tracked = Array.unsafe_get size_of obj in
    let predicted =
      match predictor with
      | None -> false
      | Some p -> predict p ~obj ~size:new_size ~chain ~key
    in
    let new_addr, moved =
      match B.realloc with
      | Some f ->
          let a = f b ~addr ~old_size:tracked ~new_size ~predicted in
          (a, a <> addr)
      | None ->
          B.free b addr;
          (B.alloc b ~size:new_size ~predicted, true)
    in
    st.reallocs <- st.reallocs + 1;
    if moved then begin
      st.realloc_moves <- st.realloc_moves + 1;
      B.charge_alloc b
        (Cost_model.realloc_move_base
        + Cost_model.realloc_copy (min tracked new_size))
    end
    else begin
      st.realloc_in_place <- st.realloc_in_place + 1;
      B.charge_alloc b Cost_model.realloc_in_place
    end;
    Array.unsafe_set addr_of obj new_addr;
    Array.unsafe_set size_of obj new_size;
    st.total_bytes <- st.total_bytes + max 0 (new_size - old_size);
    let l = st.live - tracked + new_size in
    st.live <- l;
    if l > st.max_live then st.max_live <- l;
    match cache with
    | Some c -> Cache.access_range c ~addr:new_addr ~bytes:8
    | None -> ()
  in
  (* a Touch of n references walks a live object at a 16-byte stride; a
     stream's touch of an id past the tables names nothing live *)
  let[@inline] touch addr_of size_of ~obj ~count =
    match cache with
    | None -> ()
    | Some c ->
        if obj < st.limit then begin
          let addr = Array.unsafe_get addr_of obj in
          if addr >= 0 then begin
            let size = Array.unsafe_get size_of obj in
            let cursor = st.ref_cursor in
            for _ = 1 to count do
              Cache.access c (addr + (Array.unsafe_get cursor obj mod max 1 size));
              Array.unsafe_set cursor obj (Array.unsafe_get cursor obj + 16)
            done
          end
        end
  in
  (match feed with
  | Events trace ->
      let addr_of = st.addr_of and size_of = st.size_of in
      let events = trace.events in
      for event = 0 to Array.length events - 1 do
        match Array.unsafe_get events event with
        | Lp_trace.Event.Alloc { obj; size; chain; key; _ } ->
            alloc addr_of size_of ~obj ~size ~chain ~key
        | Lp_trace.Event.Free { obj; _ } -> free addr_of size_of ~obj
        | Lp_trace.Event.Realloc { obj; old_size; new_size; chain; key; _ } ->
            realloc addr_of size_of ~obj ~old_size ~new_size ~chain ~key
        | Lp_trace.Event.Touch { obj; count } -> touch addr_of size_of ~obj ~count
      done
  | Blocks src ->
      let chk = { live = Bytes.make st.limit '\000'; bound = max_int } in
      (* index of the first event of the block being walked *)
      let first_event = ref 0 in
      Lp_trace.Source.iter_blocks
        (fun (blk : Lp_trace.Block.t) lo hi ->
          let base = !first_event - lo in
          let addr_of = ref st.addr_of and size_of = ref st.size_of in
          for i = lo to hi - 1 do
            let event = base + i in
            let obj = Array.unsafe_get blk.obj i in
            (* the kind byte is matched here rather than decoded by a
               [Block] function: dune's dev profile builds with -opaque,
               so a cross-module call would stay a call for every event *)
            match Bytes.unsafe_get blk.kinds i with
            | '\000' (* alloc *) ->
                check_alloc chk ~event obj;
                if obj >= st.limit then begin
                  (* the checker widened its bitmap past [obj] *)
                  grow st (Bytes.length chk.live);
                  addr_of := st.addr_of;
                  size_of := st.size_of
                end;
                alloc !addr_of !size_of ~obj
                  ~size:(Array.unsafe_get blk.size i)
                  ~chain:(Array.unsafe_get blk.chain i)
                  ~key:(Array.unsafe_get blk.key i)
            | '\001' (* free *) ->
                check_free chk ~event obj;
                free !addr_of !size_of ~obj
            | '\002' (* realloc *) ->
                check_realloc chk ~event obj;
                realloc !addr_of !size_of ~obj
                  ~old_size:(Array.unsafe_get blk.size i)
                  ~new_size:(Array.unsafe_get blk.new_size i)
                  ~chain:(Array.unsafe_get blk.chain i)
                  ~key:(Array.unsafe_get blk.key i)
            | _ (* touch *) ->
                check_touch chk ~event obj;
                touch !addr_of !size_of ~obj ~count:(Array.unsafe_get blk.size i)
          done;
          first_event := !first_event + (hi - lo))
        src);
  (* survivors are mispredicted if predicted short-lived: classify them in
     object-id order (deterministic whatever the domain count) with the
     end-of-trace clock, mirroring training's survivor accounting *)
  (match predictor with
  | None -> ()
  | Some p ->
      for obj = 0 to st.limit - 1 do
        if Array.unsafe_get st.birth_of obj >= 0 then
          observe_outcome p ~obj ~survived:true
      done);
  {
    Metrics.algorithm = B.name;
    allocs = B.allocs b;
    frees = B.frees b;
    reallocs = st.reallocs;
    realloc_in_place = st.realloc_in_place;
    realloc_moves = st.realloc_moves;
    predictions = st.predictions;
    mispredicts_short_lived = st.mis_short;
    mispredicts_long_lived = st.mis_long;
    total_bytes = st.total_bytes;
    max_heap = B.max_heap_size b;
    max_live = st.max_live;
    instr_per_alloc =
      float_of_int (B.alloc_instr b) /. float_of_int (max 1 (B.allocs b));
    instr_per_free =
      float_of_int (B.free_instr b) /. float_of_int (max 1 (B.frees b));
    extra = B.extra b;
  }

let run_prepared ?cache ?predictor p ((module B : Backend.BACKEND) as backend) =
  let m =
    Lp_obs.Timings.time
      ~stage:("replay/" ^ B.name)
      ~items:(Array.length p.trace.Lp_trace.Trace.events)
      (fun () -> replay ?cache ?predictor (Events p.trace) backend)
  in
  Lp_obs.Timings.note_peak_heap ();
  m

let run ?cache ?predictor trace backend =
  run_prepared ?cache ?predictor (prepare trace) backend

let run_named ?cache ?predictor ?arena_config trace name =
  run ?cache ?predictor trace (Registry.backend ?arena_config name)

(* Streamed replay: the kernel fed a block of events at a time straight
   off the source's cursor, so a binary source hands its decoded columns
   to the allocator without boxing an event.  Metrics are the same as a
   materialized replay's (the qcheck equivalence suite holds the two
   feeds byte-identical). *)
let run_source ?cache ?predictor src ((module B : Backend.BACKEND) as backend) =
  let t0 = Lp_obs.Timings.now () in
  let m = replay ?cache ?predictor (Blocks src) backend in
  Lp_obs.Timings.record
    ~stage:("replay/" ^ B.name)
    ~items:(Lp_trace.Source.events_streamed src)
    (Lp_obs.Timings.now () -. t0);
  m
