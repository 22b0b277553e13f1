(* Layer cost by subtraction.  Two probes built from the library's public
   types let the traced run split a replay's time without putting a timer
   in the replay loop:

   - [null], a backend that does no placement work: a replay through it
     costs the driver's own loop (event dispatch, object tables, metrics).
     A real backend's replay minus the null replay is the backend's own
     time.
   - [recording]/[playback], a tape of an oracle's verdicts played back in
     call order: the backend receives the same verdicts, so it does the
     same work, but each verdict costs one byte read.  An arena replay with
     the oracle minus the same replay from the tape is the oracle's own
     cost (lookup, and for the online oracle its outcome feedback). *)

module Driver = Lp_allocsim.Driver

module Null_backend : Lp_allocsim.Backend.BACKEND = struct
  type t = { mutable top : int; mutable allocs : int; mutable frees : int }

  let name = "null"
  let uses_prediction = false
  let create ?(base = 0) ?hint:_ () = { top = base; allocs = 0; frees = 0 }

  (* bump allocation, never reused: every address stays distinct *)
  let alloc t ~size ~predicted:_ =
    if size <= 0 then invalid_arg "Null_backend.alloc: size must be positive";
    let addr = t.top in
    t.top <- t.top + size;
    t.allocs <- t.allocs + 1;
    addr

  let free t _addr = t.frees <- t.frees + 1
  let realloc = None
  let charge_alloc _ _ = ()
  let allocs t = t.allocs
  let frees t = t.frees
  let alloc_instr _ = 0
  let free_instr _ = 0
  let max_heap_size t = t.top
  let extra _ = Lp_allocsim.Metrics.Core
  let check_invariants _ = ()
end

let null : Lp_allocsim.Backend.t = (module Null_backend)

(* [p] with every verdict it returns appended to a fresh tape *)
let recording (p : Driver.predictor) =
  let tape = Buffer.create 4096 in
  let predicted ~obj ~size ~chain ~key =
    let v = p.predicted ~obj ~size ~chain ~key in
    Buffer.add_char tape (if v then '\001' else '\000');
    v
  in
  ({ p with predicted }, tape)

(* the taped verdicts in call order, priced like [p], with no feedback
   path; raises if the replay asks for more verdicts than were taped *)
let playback tape (p : Driver.predictor) : Driver.predictor =
  let verdicts = Buffer.to_bytes tape in
  let next = ref 0 in
  let predicted ~obj:_ ~size:_ ~chain:_ ~key:_ =
    let v = Bytes.get verdicts !next = '\001' in
    incr next;
    v
  in
  { p with predicted; on_outcome = None }
