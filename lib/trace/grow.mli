(** Growable [int] array with amortized-doubling storage.

    The streaming consumers (driver, trainer, linter) replace their
    [Array.make n_objects] per-object tables with these: object ids are
    dense but a source's object count is only known at exhaustion, so the
    tables grow as ids appear.  Reads beyond the current length return the
    [default], writes extend the length (intermediate slots hold the
    default). *)

type t

val create : ?default:int -> int -> t
(** [create ?default hint] pre-sizes for [hint] elements ([default]
    defaults to [0]). *)

val length : t -> int
(** Highest written index + 1. *)

val ensure : t -> int -> unit
(** [ensure t n] extends the logical length to at least [n]. *)

val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val to_array : t -> int array

val freeze : t -> int array
(** The contents, like {!to_array}, but a table filled exactly to its
    capacity hands over its storage instead of copying it — what a
    table pre-sized from an exact count ends as.  The table must not be
    used afterwards. *)

(** Growable table of one-byte flag sets, default [0].

    The folds' 0/1 per-object flags (born, freed, touched, survived)
    packed as bits of one byte per object: an eighth of a word each, in
    a block the GC never scans.  Reads beyond the current capacity
    return [0]; writes grow it by doubling. *)
module Flags : sig
  type t

  val create : int -> t
  (** [create hint] pre-sizes for [hint] elements. *)

  val get : t -> int -> int
  (** The flag byte of element [i] ([0] if never written). *)

  val add : t -> int -> int -> unit
  (** [add t i bits] sets [bits] (a mask below [0x100]) in element [i]. *)

  val mem : t -> int -> int -> bool
  (** [mem t i bit] — is any bit of the mask [bit] set in element [i]? *)
end
