(** The fold protocol every trace analysis is written in.

    A pass folds one {e range} of a trace — the whole stream, or a
    contiguous chunk range of a sharded ([.lpt] v3) file — into a
    ['part], and merges the parts of a covering partition, given in
    range order, into its result.  The sequential run is the one-range
    case ({!run}: the whole stream entered at {!whole}, merged as a
    singleton), so sequential and sharded runs execute the same code
    and agree by construction, provided [merge] reproduces sequential
    accumulation order: interning walked in range order is global
    first-appearance order, and deferred per-allocation observations
    replayed range by range are in global allocation order.

    Stats, lifetimes, training, lint and the audit engine are each one
    pass; the block loop below ({!run}, {!run_range}, over
    {!Source.iter_blocks}) is the only one they share, and no pass sees
    a boxed {!Event.t}.  A decode error surfaces from that loop after
    every event before the failing one has been stepped.  The
    range-parallel runner is [Lifetime.Shard.run]. *)

type entry = {
  en_first_event : int;  (** global index of the range's first event *)
  en_start_clock : int;  (** bytes allocated before the range *)
  en_live_bytes : int;  (** live bytes at range entry *)
  en_live_objs : int;
  en_next_obj : int;  (** next dense-birth object id at range entry *)
  en_carry : Binio.carry array;
      (** pre-range state of the earlier-born objects the range names *)
}
(** Where in the trace a range starts: {!Sharded.range} minus the
    cursor. *)

val whole : entry
(** The trace-initial entry (event 0, zero clocks, empty carry). *)

val entry_of_range : Sharded.range -> entry

type step = Block.t -> int -> int -> unit
(** [step b lo hi] folds the events in slots [\[lo, hi)] of [b], in slot
    order, reading the block's columns directly.  The block is only
    valid until the step returns. *)

type ('part, 'out) t = {
  enter : Source.t -> entry -> step * (unit -> 'part);
      (** Start a range over its source: the block step and the finisher
          that packs the range's part.  The source's [n_objects_hint]
          bounds the object ids the range names; size id-indexed tables
          from it ({!objects}). *)
  merge : Source.t -> 'part list -> 'out;
      (** Combine a covering partition's parts, in range order.  The
          source is the whole trace's, with its tables complete: the
          drained sequential source, or [Sharded.source]. *)
}

val run : ('part, 'out) t -> Source.t -> 'out
(** The sequential run: the whole stream as one range, merged.  The
    source is consumed. *)

val run_range : ('part, 'out) t -> Sharded.range -> 'part
(** Fold one range of a sharded trace; safe to call on any domain. *)

val map : (Source.t -> 'a -> 'b) -> ('part, 'a) t -> ('part, 'b) t
(** Post-process a pass's result (with the whole-trace source). *)

val objects : Source.t -> int
(** The size for id-indexed tables: the source's [n_objects_hint], or
    [0] (the smallest {!Grow} table, which grows) when it has none. *)
