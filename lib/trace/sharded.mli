(** A sharded ([.lpt] v3) trace opened for range-parallel replay.

    {!Binio.index} gives the raw chunk index; this module layers on the
    piece every sharded fold needs — {!range}, which describes "the
    stream as of chunk [first]" well enough to continue the sequential
    state machines mid-trace: the footer's entry counters plus a merged
    {e carry-in set} holding the pre-range state (last allocation's
    size/event/chain, birth clock, first-free event) of every object the
    range references but was born before it.

    The value is immutable; ranges and their sources can be taken on
    separate domains concurrently (see {!Lifetime.Parallel.map_chunks}
    users such as [Shard]). *)

type t

val load : string -> t
(** Memory-map and index a sharded trace file, counting the file's bytes
    in the [trace.bytes_read] timing counter.
    @raise Failure if unreadable, malformed, or not version 3 ([lpalloc
    convert --v3] produces one). *)

val of_string : ?name:string -> string -> t
val of_bigarray : ?name:string -> Binio.bytes_view -> t

val header : t -> Binio.header
val name : t -> string
val index : t -> Binio.indexed
val chunks : t -> Binio.chunk_info array
val n_chunks : t -> int
val chunk_events : t -> int
val n_events : t -> int

type range = {
  rg_trace : t;
  rg_first_chunk : int;
  rg_n_chunks : int;
  rg_first_event : int;  (** global index of the range's first event *)
  rg_n_events : int;
  rg_next_obj : int;  (** next dense-birth object id at range entry *)
  rg_start_clock : int;  (** bytes allocated before the range *)
  rg_live_bytes : int;  (** live bytes at range entry *)
  rg_live_objs : int;  (** live objects at range entry *)
  rg_carry : Binio.carry array;
      (** pre-range state of referenced earlier-born objects, ascending
          object ids *)
}

val range : t -> first:int -> count:int -> range
(** [range t ~first ~count] covers chunks [\[first, first+count)].  The
    carry sets of the covered chunks are merged keeping, per object, the
    entry from the earliest covering chunk (the one snapshotted against
    pre-range state).  @raise Invalid_argument on a bad chunk range. *)

val source : t -> Source.t
(** Stream the whole trace; seekable ({!Source.seek}/{!Source.sub}). *)

val range_source : range -> Source.t
(** Stream exactly the range's events (complete tables visible from the
    start).  Its [n_objects_hint] is the range's object-id bound: the
    next dense-birth object id at range exit (the header's object count
    for a range that ends the trace).  Fresh cursor per call; safe to
    call on any domain. *)
