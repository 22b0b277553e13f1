(** Pull-based event sources: the streaming face of a trace.

    A source yields the exact event sequence of a trace — one {!Event.t}
    at a time through {!next} — together with the trace's incrementally
    interned tables (call-chains, function names, type tags) and
    per-object reference counts.  Consumers written against a source make
    a single pass with memory bounded by the live-object population
    rather than the trace length; the {!of_trace} adapter makes every
    such consumer also work on materialized traces.

    {b Interning contract.}  Any id carried by an already-yielded event
    (chain, tag, object) is resolvable through the source's lookup
    functions at that moment, and stays resolvable with the same value
    for the rest of the stream.  [n_chains]/[n_tags] are monotone.
    [refs_of obj] is final once [obj]'s alloc event has been yielded
    (declared up front by the file codecs, complete at exhaustion for
    generators).  [counters_now] is [Some] from the start for file and
    in-memory sources and becomes [Some] at exhaustion for generator
    sources.

    Exhaustion is observable: the first [None] from {!next} marks the
    source {!finished}, adds the event total to the
    ["trace.events_streamed"] counter and notes the GC's peak heap in
    ["trace.peak_resident_words"] (see {!Lp_obs.Timings}). *)

type counters = {
  instructions : int;
  calls : int;
  heap_refs : int;
  total_refs : int;
}

type t = {
  program : string;
  input : string;
  n_objects_hint : int option;
      (** bound on the object ids the stream names, when known up front:
          the final object count of file headers and traces, the exit
          object-id bound of a sharded range ({!Sharded.range_source}) *)
  n_events_hint : int option;
  funcs : unit -> Lp_callchain.Func.table;
      (** thunk: a generator's table exists only once it has started *)
  chain : int -> Lp_callchain.Chain.t;
  n_chains : unit -> int;
  tag : int -> string;
  n_tags : unit -> int;
  counters_now : unit -> counters option;
  refs_of : int -> int;
  n_objects_now : unit -> int;
  next_ev : unit -> Event.t option;
      (** raw cursor; consumers should call {!next} instead so streaming
          accounting happens *)
  seek_to : (int -> unit) option;
      (** when seekable: reposition so the next event yielded is the
          given index *)
  sub_range : (first:int -> count:int -> t) option;
  mutable streamed : int;
  mutable finished : bool;
}

val next : t -> Event.t option
(** The next event, or [None] at exhaustion (idempotent afterwards). *)

val iter : (Event.t -> unit) -> t -> unit
val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val events_streamed : t -> int
(** Events yielded so far. *)

val counters : t -> counters
(** @raise Invalid_argument when not yet known ({!counters_now} is the
    non-raising form). *)

val n_objects : t -> int
(** Final object count.  @raise Invalid_argument before exhaustion. *)

val seek : t -> int -> unit
(** [seek t i] repositions so the next event yielded is event [i] of the
    underlying range.  Only in-memory traces and sharded ([.lpt] v3)
    files are seekable.
    @raise Failure when the source is not seekable. *)

val sub : t -> first:int -> count:int -> t
(** [sub t ~first ~count] is a fresh source over the [count] events
    starting at event [first] of [t]'s range, with the same tables.
    [t] itself is left untouched.
    @raise Failure when the source is not seekable. *)

val of_trace : Trace.t -> t
(** Stream an in-memory trace.  Cheap; a fresh cursor per call. *)

val of_indexed : Binio.indexed -> t
(** Stream a seekable v3 index ({!of_file} does this automatically for
    v3 files); the result supports {!seek} and {!sub}. *)

val of_string : ?name:string -> string -> t
(** Stream serialized bytes, auto-detecting text vs binary like
    {!Io.of_string}.
    @raise Failure on malformed input (header errors immediately, event
    errors as the stream reaches them). *)

val of_file : string -> t
(** Stream a trace file: binary [.lpt] files decode incrementally over a
    read-only memory map (the file never materializes in the OCaml heap),
    text files parse line-at-a-time from the channel (closed at
    exhaustion).
    @raise Failure on malformed input, [Sys_error] if unreadable. *)

val of_generator :
  program:string ->
  input:string ->
  (sink:Trace.Builder.sink -> Trace.t) ->
  t
(** [of_generator ~program ~input produce] turns push-style trace
    production into a pull-based source using an effect handler: the
    producer runs only while the consumer demands events, suspended at
    each emission.  [produce] must create its builder with the given
    [sink] and return the {!Trace.Builder.finish} summary (whose event
    array is empty in sink mode); the summary supplies the final
    execution counters.  The producer runs at most once; the source is
    single-shot like every other constructor. *)

val decode_ahead : ?batch:int -> ?slots:int -> t -> t
(** [decode_ahead inner] moves the decode work of [inner] onto a fresh
    domain that runs ahead of the consumer, handing batches of [batch]
    events (default 4096) through a bounded queue of [slots] batches
    (default 8) — a two-stage pipeline that overlaps decoding with
    consumption.  Event order, errors and exhaustion semantics are
    preserved; errors raised by the producer re-raise at the consumer
    after all earlier events have been delivered.

    The wrapper is not seekable and must be drained to [None] (or to the
    re-raised error): abandoning it mid-stream leaves the producer
    domain blocked on the queue.  Table lookups ([chain], [tag], ...)
    remain safe because the queue's mutex orders the producer's
    interning writes before the consumer's reads of any delivered
    event's ids. *)
