(** Allocation sites.

    The paper defines the allocation site as the call-chain to the allocation
    routine at an object's birth, together with the requested size (§3.2):
    the same chain allocating 8 bytes and 16 bytes is two distinct sites.

    A {!policy} selects which abstraction of the birth context keys the site:
    the complete cycle-eliminated chain (the paper's default), a length-N
    sub-chain (Table 6), size only (Table 5), or the 16-bit call-chain
    encryption key (Table 9's "Arena (cce)" column). *)

type policy =
  | Complete_chain  (** full chain, recursive cycles eliminated *)
  | Last_callers of int  (** length-N sub-chain of the raw stack, no elimination *)
  | Size_only  (** degenerate site: the size alone (Table 5) *)
  | Encrypted_key  (** Carter's XOR key over the whole stack (§5.1) *)

type t = private {
  chain : Chain.t;  (** empty under [Size_only]; singleton key under [Encrypted_key] *)
  size : int;
  hash : int;
}
(** A site key.  [hash] is precomputed; equality compares chain and size. *)

val make : policy -> raw_chain:Chain.t -> key:int -> size:int -> t
(** [make policy ~raw_chain ~key ~size] builds the site for an allocation of
    [size] bytes whose raw stack snapshot was [raw_chain] and whose
    encryption key was [key]. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val round_size : multiple:int -> int -> int
(** [round_size ~multiple n] rounds [n] up to a multiple of [multiple].  The
    paper rounds sizes to a multiple of four when mapping sites between
    training and test runs (§4.1); rounding coarser loses too much size
    information. *)

val to_string : Func.table -> t -> string

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by sites — the paper's "small hash-table" site
    database (§5.1). *)

val policy_to_string : policy -> string

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string} ([None] on an unrecognised name or a
    non-positive [last-N-callers] length) — how consumers of a model file
    recover the site policy the model was trained under. *)
