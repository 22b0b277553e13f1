(** The [name:key=value] spec grammar shared by the allocator-backend
    specs ({!Registry}) and the lifetime-oracle specs ([Lifetime.Oracle]).

    Each grammar splits its spec into segments (':' for backends, ':' or
    ',' for oracles) and resolves the name itself; this module does the
    rest the same way for both: the key=value fold, integer values with
    their checks, the canonical form and the markdown table.  Every
    error is one line ending [(in spec "...")] and nothing raises. *)

type param = {
  key : string;
  grammar : string;  (** value shape, e.g. ["<bytes>"] *)
  param_doc : string;
  default : string;  (** rendered default; the canonical form drops it *)
}

val error : string -> ('a, unit, string, ('b, string) result) format4 -> 'a
(** [error spec fmt ...] is [Error "<message> (in spec \"<spec>\")"]. *)

val params :
  string ->
  what:string ->
  name:string ->
  param list ->
  string list ->
  ((string * string) list, string) result
(** [params spec ~what ~name grammar segments] folds [key=value]
    segments into pairs in spec order, rejecting a segment without '=',
    a key outside [grammar] (["<what> <name> takes no parameters"] when
    the grammar is empty) and a repeated key. *)

val int_value : string -> key:string -> string -> (int, string) result
(** A parameter value as an integer. *)

val int_param :
  string ->
  (string * string) list ->
  string ->
  (int -> string option) ->
  (int option, string) result
(** [int_param spec kvs key check] is [None] when [key] is absent, else
    its integer value once [check] accepts it; [check n] returns the
    reason ["parameter <key>: <reason>"] gives when it does not. *)

val within : int -> int -> int -> string option
(** [within lo hi] accepts [\[lo, hi\]]. *)

val positive : int -> string option
(** Accepts integers of at least 1. *)

val canonical :
  ?value:(string -> string -> string) ->
  string ->
  param list ->
  (string * string) list ->
  string
(** [canonical name grammar kvs]: [name] and the given parameters in
    grammar order, integers normalized, [value key v] applied to the
    others, and every parameter equal to its default dropped — so a spec
    that only restates defaults collapses to the plain name.  Validate
    the spec first. *)

val markdown : string -> (string * param list * string) list -> string
(** [markdown column entries] renders the grammar as a markdown table:
    one row per parameter of each [(name, grammar, doc)] entry, or one
    row carrying [doc] for an entry without parameters. *)
