(** Object lifetimes, in bytes-allocated time.

    The paper defines an object's lifetime as the number of bytes allocated
    between its birth and its death (§3.2) — time measured by the clock the
    allocator itself experiences.  Objects still alive when the program ends
    have no death event; they are assigned the bytes remaining until the end
    of the run and flagged [survived], which makes them long-lived for any
    reasonable threshold and matches the conservative treatment a predictor
    must give them. *)

type t = {
  birth_clock : int array;  (** bytes allocated before each object's birth *)
  lifetime : int array;  (** per-object lifetime in bytes *)
  survived : bool array;  (** object was still alive at end of run *)
  end_clock : int;  (** total bytes allocated over the run *)
}

val compute : Trace.t -> t
(** One linear pass over the events.

    The clock advances by [size] {i at} each allocation; an object's birth
    clock is the clock value {i before} its own allocation, so an object
    freed immediately after allocation has lifetime 0 bytes if nothing else
    was allocated in between. *)

val is_short_lived : t -> threshold:int -> int -> bool
(** [is_short_lived lt ~threshold obj] — did [obj] die before [threshold]
    bytes were allocated?  Survivors are never short-lived. *)

type summary = {
  hist : Lp_quantile.Histogram.t;
      (** byte-weighted lifetime distribution (P² quartile histogram) *)
  short_bytes : int;  (** bytes in objects short-lived under the threshold *)
  total_alloc_bytes : int;  (** all bytes allocated *)
}

val summary_source : threshold:int -> Source.t -> summary
(** Streaming twin of {!compute} plus the byte-weighted histogram fold
    the [lpalloc lifetimes] command performs: one bounded-memory pass
    (per-allocation records, never the event array), with the histogram
    fed in allocation order so its quartiles are identical to the
    materialized path's.  The source is consumed. *)

(** {1 Sharded replay}

    A {!range_fold} is the per-range quarter of {!summary_source}: one
    range of a sharded trace replayed with absolute clocks (seeded from
    the range's entry counters and carry-in birth clocks), keeping the
    range's allocation records plus the range-final lifetime state of
    every object the range wrote.  For a covering partition of the
    trace, {!resolve} applies the folds in range order and ends with
    exactly the sequential pass's final per-object state, so
    {!merge_summaries} reproduces {!summary_source} — including the
    histogram's internal state, because the deferred observations happen
    in the same global allocation order. *)

type range_fold = {
  rf_a_obj : int array;  (** objects of the range's allocs, event order *)
  rf_a_size : int array;
  rf_touched : int array;  (** objects whose state the range wrote *)
  rf_born : Bytes.t;  (** ['\001'] iff allocated in the range (per touched) *)
  rf_birth : int array;  (** last in-range birth clock (absolute) *)
  rf_freed : Bytes.t;  (** ['\001'] iff freed in the range (per touched) *)
  rf_life : int array;  (** last in-range free's lifetime *)
  rf_end_clock : int;  (** absolute clock after the range's last event *)
}

val fold_range :
  ?on_alloc:(Source.t -> size:int -> chain:int -> key:int -> unit) ->
  Sharded.range ->
  range_fold
(** Replay one range.  [on_alloc] is called at each allocation event
    before state updates (the trainer derives sites there, keeping the
    expensive work inside the parallel section). *)

(** The incremental face of {!fold_range}: the same lifetime state
    machine driven one event at a time, for passes that interleave their
    own per-event accumulation with the lifetime fold (the audit
    engine's site analyses).  [create ~start_clock ~carry] seeds the
    carried birth clocks exactly as {!fold_range} does; {!Fold.step} on
    every event of the range and then {!Fold.finish} yields the same
    {!range_fold} the one-shot loop produces. *)
module Fold : sig
  type t

  val create :
    objects:int ->
    allocs:int ->
    start_clock:int ->
    carry:Binio.carry array ->
    t
  (** [objects] pre-sizes the per-object tables, which are indexed by
      object id, so it should be the range's object-id bound; [allocs]
      pre-sizes the allocation records.  Both are only sizes: ids or
      allocations beyond them grow the tables. *)

  val clock : t -> int
  (** Absolute allocation clock {e before} the next event. *)

  val n_allocs : t -> int
  (** Allocation records pushed so far. *)

  val step : t -> Event.t -> unit

  val finish : t -> range_fold
  (** Hands the fold's tables over to the result: the fold must not be
      stepped or finished again. *)
end

type resolved
(** Final per-object lifetime state of a covering partition. *)

val resolve : range_fold list -> resolved
(** Apply folds in range order (the caller passes them in range order —
    {!Sharded.range} order, as a covering partition of the trace). *)

val resolved_survived : resolved -> int -> bool
val resolved_lifetime : resolved -> int -> int
val resolved_end_clock : resolved -> int

val merge_summaries : threshold:int -> range_fold list -> summary
(** Identical to {!summary_source} over the whole trace when the folds
    cover it in order. *)

val max_live : Trace.t -> int * int
(** [(max_bytes, max_objects)] — the largest numbers of bytes and of objects
    simultaneously alive at any point (Table 2's "Maximum Bytes/Objects").
    The two maxima may occur at different times. *)
