(** Event blocks: a run of trace events as a struct of arrays.

    A block holds a fixed number of consecutive events of one stream in
    parallel columns, one slot per event, so a consumer can walk a run
    of events without a heap-allocated {!Event.t} per event.  The binary
    decoder ({!Binio.fill}) writes the columns straight from the mapped
    bytes; {!Source} cursors hand blocks to streamed replay and box
    single events out of them for per-event consumers.

    Column meaning per event kind (unused slots hold stale values):

    {v
    kind      obj  size              new_size  chain  key  tag
    alloc     obj  size              -         chain  key  tag
    free      obj  declared size/-1  -         -      -    -
    realloc   obj  old size          new size  chain  key  tag
    touch     obj  count             -         -      -    -
    v}

    The record is exposed so hot loops can read the columns directly;
    only slots [\[0, len)] are meaningful. *)

type t = {
  kinds : Bytes.t;
      (** one byte per slot: ['\000'] alloc, ['\001'] free,
          ['\002'] realloc, ['\003'] touch *)
  obj : int array;
  size : int array;
  new_size : int array;
  chain : int array;
  key : int array;
  tag : int array;
  mutable len : int;  (** filled slots *)
}

val create : unit -> t
(** A fresh empty block.  Every block but {!empty} has the same,
    internal, number of slots. *)

val slots : t -> int
(** The block's number of slots. *)

val empty : t
(** A shared block with no slots, standing for "not yet allocated". *)

val get : t -> int -> Event.t
(** Box slot [i] as an event (unchecked: [i] must be below [len]). *)

val push : t -> Event.t -> unit
(** Unbox an event into slot [len] and extend the block by one.
    @raise Invalid_argument when the block is full. *)

val set_alloc : t -> int -> obj:int -> size:int -> chain:int -> key:int -> tag:int -> unit
val set_free : t -> int -> obj:int -> size:int -> unit

val set_realloc :
  t -> int -> obj:int -> old_size:int -> new_size:int -> chain:int -> key:int -> tag:int -> unit

val set_touch : t -> int -> obj:int -> count:int -> unit
(** Write slot [i] (unchecked: [i] must be below {!slots}); [len] is
    the caller's to advance. *)
