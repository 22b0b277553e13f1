(** Per-domain pools of per-replay scratch arrays.

    Candidate sweeps replay one trace through many backends, and a
    streamed simulation replays one file per job; the per-replay object
    tables ([addr_of]/[size_of]/[ref_cursor]) are the only driver-side
    allocations that scale with the trace, so the replay kernel takes
    them from a per-domain pool, reset by prefix fill instead of
    reallocated.
    Reuse is observable as the ["replay.scratch_reuses"] counter of
    {!Lp_obs.Timings} when timings are enabled. *)

type t

val create : unit -> t
(** A private, unpooled scratch (tests, nested replays). *)

val acquire : unit -> t
(** The calling domain's pooled scratch, marked in-use.  If it is already
    in use (a nested replay), a fresh private scratch is returned
    instead, so the result is always exclusively owned.  Pair with
    {!release}. *)

val release : t -> unit
(** Returns a scratch to its domain's pool.  The arrays handed out by
    {!tables} must no longer be used. *)

val tables : t -> n_objects:int -> cursor:bool -> int array * int array * int array
(** [(addr_of, size_of, ref_cursor)] with the [0, n_objects) prefix reset
    to [(-1, 0, 0)].  The arrays may be longer than [n_objects]; callers
    must only index below it.  [ref_cursor] is [[||]] unless [cursor] is
    true. *)

val predict_tables : t -> n_objects:int -> int array * Bytes.t
(** [(birth_of, flag_of)] with the [0, n_objects) prefix reset to
    [(-1, '\000')] — the per-object oracle state (birth clock and last
    verdict) replays track to attribute lifetime outcomes.  Pooled with
    the same grow-or-reset discipline as {!tables}; only acquired by
    replays running under a predictor. *)
