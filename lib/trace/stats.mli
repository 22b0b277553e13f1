(** Execution-wide statistics of a trace — the quantities of Table 2. *)

type t = {
  program : string;
  input : string;
  instructions : int;  (** simulated instructions executed *)
  calls : int;  (** function calls *)
  total_bytes : int;  (** total bytes allocated *)
  total_objects : int;  (** total objects allocated *)
  max_bytes : int;  (** maximum bytes simultaneously alive *)
  max_objects : int;  (** maximum objects simultaneously alive *)
  heap_ref_pct : float;  (** % of all memory references made to the heap *)
  distinct_chains : int;  (** distinct raw stack snapshots at allocations *)
  mean_object_size : float;
}

type partial
(** One range's bytes allocated and live-heap maxima. *)

val pass : (partial, t) Pass.t
(** One bounded-memory pass (per-object sizes only).  Live counters are
    absolute, seeded from the range's entry; the two maxima may occur
    at different times. *)

val compute : Trace.t -> t
(** {!pass} over {!Source.of_trace}. *)

val pp : Format.formatter -> t -> unit
