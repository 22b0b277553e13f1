(** The workload registry: one entry per program of the paper's Table 1.

    Each program has a {i train} input (used to build predictors) and a
    {i test} input (the one measurements are reported on, mirroring the
    paper's "the performance results presented apply to the largest of the
    input sets").  Traces are memoized per (program, input, scale): every
    experiment pipeline reuses one generation of each trace. *)

type program = {
  name : string;
  description : string;  (** the Table 1 blurb *)
  input_notes : string;  (** how train and test inputs differ, per Table 1/4 *)
  run :
    ?sink:Lp_trace.Trace.Builder.sink ->
    ?scale:float ->
    input:string ->
    unit ->
    Lp_trace.Trace.t;
      (** [sink] streams events out as they happen instead of
          materializing them (see {!Lp_trace.Trace.Builder}). *)
}

val programs : program list
(** In the paper's order: cfrac, espresso, gawk, ghost, perl. *)

val find : string -> program
(** @raise Not_found on an unknown program name. *)

val names : string list

val trace : ?scale:float -> program:string -> input:string -> unit -> Lp_trace.Trace.t
(** Memoized trace access.  [input] is ["train"], ["test"] or ["tiny"]. *)

val source :
  ?scale:float -> program:string -> input:string -> unit -> Lp_trace.Source.t
(** A pull-based event source that runs the workload incrementally
    ({!Lp_trace.Source.of_generator}): the generator executes only as
    events are demanded and no event array is ever materialized.
    Single-shot, and deliberately not memoized — call again for a fresh
    stream.
    @raise Not_found on an unknown program name. *)
