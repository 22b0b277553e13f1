(** The trace linter: one fold-protocol pass ({!Lp_trace.Pass}) over a
    trace's event stream that checks the integrity properties every
    downstream consumer (training, evaluation, allocator replay)
    silently assumes.  The same pass runs materialized, streamed and
    range-parallel, with identical diagnostics.

    The paper's whole evaluation is trace-driven, so a single malformed
    event — a double free, a free of a never-born object, a zero-sized
    allocation — corrupts every table computed from the trace.  The replay
    engine ({!Lp_allocsim.Driver.run}) fails hard on some of these, but
    only when (and where) the replay happens; the linter finds all of them
    up front and reports each as a structured {!Diagnostic.t} pointing at
    the exact event.

    Eight rules:

    - [double-free] (error): an object is freed twice.
    - [free-without-alloc] (error): a free precedes the object's
      allocation, or no allocation for the object exists at all.
    - [touch-after-free] (error): a heap reference to an object outside
      its lifetime (after its free, or before its allocation).
    - [size-mismatch-at-free] (error): the declared sized-deallocation
      size on a free event differs from the size at the allocation.
    - [nonpositive-size] (error): an allocation of zero or negative size.
    - [non-monotonic-birth] (error): object ids are the trace's birth
      timestamps (dense, in allocation order); an allocation out of that
      order breaks the bytes-allocated clock.
    - [leaked-at-exit] (warning): an object still live when the trace
      ends.  Survivors are legitimate (the paper treats them as
      long-lived), so this is a warning, not an error.
    - [chain-anomaly] (warning): an allocation whose call-chain is empty
      or absurdly deep — one diagnostic per offending chain, at its first
      use. *)

val rules : Diagnostic.rule list

val default_max_chain_depth : int
(** 256 frames; the traced workloads stay far below this. *)

type part
(** One range's diagnostics and end-of-range per-object state. *)

val pass :
  ?only:string list ->
  ?disable:string list ->
  ?max_chain_depth:int ->
  unit ->
  (part, Diagnostic.t list) Lp_trace.Pass.t
(** The linter as one {!Lp_trace.Pass}, diagnostics in event order.
    Per-object replay state lives in tables sized from the source's
    object-id bound, never the event count.  A range restarts the state
    machine from its carry-in set, so every in-range diagnostic carries
    the sequential pass's indices and messages; the two cross-range
    rules stitch at the merge — [chain-anomaly] dedups to the globally
    first use, [leaked-at-exit] fires from the overlaid end-of-trace
    state.  [only]/[disable] select rules by id (see
    {!Diagnostic.select}).
    @raise Invalid_argument on an unknown rule id. *)

val run :
  ?only:string list ->
  ?disable:string list ->
  ?max_chain_depth:int ->
  Lp_trace.Trace.t ->
  Diagnostic.t list
(** {!pass} over {!Lp_trace.Source.of_trace}. *)

val clean : Diagnostic.t list -> bool
(** No error-severity diagnostics ([lpalloc lint]'s exit-0 predicate). *)
