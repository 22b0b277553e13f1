(** Pull-based event sources: the streaming face of a trace.

    A source yields the exact event sequence of a trace — a {!Block} of
    events at a time through {!iter_blocks}, or one {!Event.t} at a time
    through {!next}, boxed out of the same blocks — together with the
    trace's incrementally interned tables (call-chains, function names,
    type tags) and per-object reference counts.  Consumers written
    against a source make a single pass and never hold the event
    sequence; the {!of_trace} adapter makes every such consumer also
    work on materialized traces.

    {b Blocks.}  Binary ([.lpt]) sources fill blocks with {!Binio.fill}
    straight from the mapped bytes; text, in-memory and generator
    sources fill them through one adapter over a per-event cursor.  Either way a decode error is deferred: it is raised when
    the consumer asks for the failing event, after every event before
    it, so a consumer's own error on an earlier event of the same block
    still comes first.

    {b Interning contract.}  Any id carried by an already-yielded event
    (chain, tag, object) is resolvable through the source's lookup
    functions at that moment, and stays resolvable with the same value
    for the rest of the stream.  [n_chains]/[n_tags] are monotone.
    [refs_of obj] is final once [obj]'s alloc event has been yielded
    (declared up front by the file codecs, complete at exhaustion for
    generators).  [counters_now] is [Some] from the start for file and
    in-memory sources and becomes [Some] at exhaustion for generator
    sources.

    Exhaustion is observable: the first time {!next} or {!iter_blocks}
    finds the stream exhausted marks the source {!finished}, adds the event total to the
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
  fill : Block.t -> unit;
      (** raw block cursor: [fill b] refills [b] in place with the next
          events from slot 0, and leaves it empty at (and after)
          exhaustion.  Consumers should
          call {!next} or {!iter_blocks} instead so streaming accounting
          happens *)
  mutable blk : Block.t;  (** the cursor's current block *)
  mutable pos : int;  (** the first slot of [blk] not yet yielded *)
  mutable streamed : int;
  mutable finished : bool;
}

val next : t -> Event.t option
(** The next event, or [None] at exhaustion (idempotent afterwards). *)

val iter_blocks : (Block.t -> int -> int -> unit) -> t -> unit
(** [iter_blocks f t] drains [t] a block at a time: [f b lo hi] receives
    the next events as slots [\[lo, hi)] of [b], which is only valid
    until [f] returns.  It yields the same events as repeated {!next}
    (continuing where earlier [next] calls stopped) with the same
    accounting: {!events_streamed} counts events, not blocks. *)

val iter : (Event.t -> unit) -> t -> unit
val fold : ('a -> Event.t -> 'a) -> 'a -> t -> 'a

val events_streamed : t -> int
(** Events yielded so far. *)

val counters : t -> counters
(** @raise Invalid_argument when not yet known ({!counters_now} is the
    non-raising form). *)

val n_objects : t -> int
(** Final object count.  @raise Invalid_argument before exhaustion. *)

val of_trace : Trace.t -> t
(** Stream an in-memory trace.  Cheap; a fresh cursor per call. *)

val of_indexed : ?first:int -> ?count:int -> Binio.indexed -> t
(** Stream a v3 index ({!of_file} does this automatically for v3
    files), or only its window of [count] events from event [first]
    (defaults: from event [0] to the end).  The window opens at the chunk
    holding [first], decoding at most one chunk's worth to reach it.
    @raise Invalid_argument when the window leaves the trace. *)

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
