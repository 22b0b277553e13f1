(** Portable trained-predictor models on disk.

    The paper compiles the trained "database of allocation sites" into the
    allocation system (§5.1); this module is that artifact as a file: the
    training configuration, the training run's final clock, and one entry
    per portable site key carrying the key's training statistics and
    whether the predictor accepted it.  Keeping the observed statistics —
    not just the accepted keys — makes the model self-describing enough
    for the static validator ([lp_analysis]'s [Validate]) to check it
    without the training trace at hand.

    Line format (names escaped as in {!Lp_trace.Textio}):

    {v
    lpmodel 1
    program <name>
    config <threshold> <rounding> <policy>
    clock <total-bytes-allocated-in-training>
    site <predicted 0|1> <count> <short-count> <max-lifetime> <size> <func> ...
    end
    v} *)

type entry = {
  key : Portable.t;
  predicted : bool;  (** accepted into the predictor *)
  count : int;  (** training objects observed under this key *)
  short_count : int;  (** of which short-lived *)
  max_lifetime : int;  (** longest observed lifetime, in bytes *)
}

type t = {
  program : string;  (** training workload name *)
  threshold : int;  (** short-lived threshold, bytes *)
  rounding : int;  (** size rounding of the portable keys *)
  policy : string;  (** site policy, as {!Lp_callchain.Site.policy_to_string} *)
  clock : int;  (** training trace's total bytes allocated *)
  entries : entry list;
}

val magic : string
(** ["lpmodel"], the first token of every model file. *)

val looks_like_model : string -> bool
(** True iff the string (file contents) starts with {!magic} — how
    [lpalloc lint] tells a model from a trace. *)

val of_training :
  config:Config.t ->
  trace:Lp_trace.Trace.t ->
  Train.site_table ->
  Predictor.t ->
  t
(** Aggregate the training table by portable key (several raw sites can
    round onto one key) and record, per key, the combined statistics and
    the predictor's verdict.  [trace] supplies the program name, the
    function-name table and the final clock. *)

val of_training_parts :
  config:Config.t ->
  program:string ->
  funcs:Lp_callchain.Func.table ->
  clock:int ->
  Train.site_table ->
  Predictor.t ->
  t
(** As {!of_training}, but with the trace-derived inputs passed
    explicitly — the form streaming training uses ([clock] is
    {!Train.streamed}'s [end_clock], [funcs] the source's table). *)

val to_string : t -> string
val of_string : ?name:string -> string -> t
(** @raise Failure on malformed input, with [name] and the line number. *)

val save : string -> t -> unit
val load : string -> t
(** @raise Failure on malformed input, [Sys_error] if unreadable. *)

val predictor : config:Config.t -> t -> Predictor.t
(** Rebuild a usable predictor from the model's accepted keys.  The
    [config]'s policy and rounding should match the model's; the model's
    recorded threshold/rounding are authoritative for validation. *)

(** {1 Introspection}

    The reverse mapping key → entry, for analyses that look trace sites
    up in a model (the audit's coverage and collision passes). *)

type index
(** A hash index over the model's entries by portable key. *)

val index : t -> index
(** Build the index once; duplicate keys (possible only in hand-edited
    files) keep their first entry, matching training's
    first-appearance order. *)

val find_key : index -> Portable.t -> entry option

val site_policy : t -> Lp_callchain.Site.policy option
(** The model's recorded site policy, decoded
    ({!Lp_callchain.Site.policy_of_string}); [None] when the file names
    an unknown policy. *)

