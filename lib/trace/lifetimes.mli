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

(** {1 The range fold}

    One range replayed with absolute clocks (seeded from the entry's
    start clock and carry-in birth clocks), keeping the range's
    allocation records plus the range-final lifetime state of every
    object the range wrote.  For a covering partition of the trace,
    {!resolve} applies the folds in range order and ends with exactly
    the sequential pass's final per-object state; the passes built on
    it ({!summary}, training, the audit's site profile) then observe
    every allocation in global allocation order. *)

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

(** The lifetime state machine driven a block at a time, for passes
    that keep their own per-event accumulation next to it. *)
module Fold : sig
  type t

  val enter : Source.t -> Pass.entry -> t
  (** Seed the carried birth clocks and the start clock from the entry.
      The per-object tables, indexed by object id, are sized from
      {!Pass.objects}; the allocation records from the allocations that
      bound leaves the range.  Both grow past those sizes. *)

  val step : t -> Pass.step
  (** Fold slots [\[lo, hi)] of a block. *)

  val finish : t -> range_fold
  (** Hands the fold's tables over to the result: the fold must not be
      stepped or finished again. *)
end

type resolved
(** Final per-object lifetime state of a covering partition. *)

val resolve : range_fold list -> resolved
(** Apply folds in range order (the caller passes them in range order —
    {!Sharded.range} order, as a covering partition of the trace). *)

val resolved_end_clock : resolved -> int

val iter_allocs :
  resolved ->
  range_fold ->
  (obj:int -> size:int -> lifetime:int -> survived:bool -> unit) ->
  unit
(** The fold's allocations in event order, each with its object's final
    lifetime (survivors: bytes allocated until the end of the trace). *)

val summary : threshold:int -> (range_fold, summary) Pass.t
(** The byte-weighted fold of [lpalloc lifetimes]: one bounded-memory
    pass (per-allocation records, never the event array), with the
    histogram fed in global allocation order at the merge, so its state
    is the same for any partition of the trace. *)
