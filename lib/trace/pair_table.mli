(** Interning table for [(chain, size)] site pairs.

    Training and the audit domains attribute every allocation to its
    concrete site — raw chain id × exact size — and number the sites
    densely in first appearance order; the predictor's memo and the
    online oracle number the sites they have resolved the same way.
    This table does that with one monomorphic probe per lookup: open
    addressing over one [int array] whose slots hold the site id next to
    its pair, so a probe reads nothing outside that array, and neither a
    lookup nor a hit allocates, hashes polymorphically or compares
    structurally.

    Any [int] is a valid chain or size: corrupt traces carry negative
    (unresolvable) chain ids, and sizes may exceed 2{^31}. *)

type t

val create : int -> t
(** [create n] pre-sizes for about [n] sites. *)

val length : t -> int
(** Number of interned pairs; ids are [0 .. length - 1]. *)

val intern : t -> int -> int -> int
(** [intern t chain size] is the pair's id, assigning the next id
    ([length t] before the call) on first sight. *)

val clear : t -> unit
(** Forget every pair, keeping the capacity: the next {!intern} assigns
    id [0] again. *)

val chain : t -> int -> int
(** The chain of site [id]. *)

val size : t -> int -> int
(** The size of site [id]. *)

val chains : t -> int array
(** Chains in id order. *)

val sizes : t -> int array
(** Sizes in id order. *)

val hash : int -> int -> int
(** The slot hash of a pair (a table of [2{^k}] slots probes from
    [hash chain size land (2{^k} - 1)]); exposed so collisions can be
    constructed deliberately. *)
