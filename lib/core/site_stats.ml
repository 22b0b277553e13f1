(** Per-allocation-site lifetime statistics.

    One of these accumulates for every distinct allocation site during
    training: object and byte counts, how many were short-lived, the
    heap-reference total (for "New Ref" predictions) and the longest
    lifetime — the counts of the per-site data structure of §4.1.  The
    paper also keeps a quantile histogram per site, but its predictor
    reads only the counts, so training keeps none (the audit computes
    quartiles on demand, for the sites it reports). *)

type t = {
  mutable count : int;
  mutable bytes : int;
  mutable short_count : int;
  mutable short_bytes : int;
  mutable survivors : int;  (** objects never freed *)
  mutable max_lifetime : int;
  mutable refs : int;
}

let create () =
  {
    count = 0;
    bytes = 0;
    short_count = 0;
    short_bytes = 0;
    survivors = 0;
    max_lifetime = 0;
    refs = 0;
  }

let observe t ~size ~lifetime ~survived ~short ~refs =
  t.count <- t.count + 1;
  t.bytes <- t.bytes + size;
  if short then begin
    t.short_count <- t.short_count + 1;
    t.short_bytes <- t.short_bytes + size
  end;
  if survived then t.survivors <- t.survivors + 1;
  if lifetime > t.max_lifetime then t.max_lifetime <- lifetime;
  t.refs <- t.refs + refs

let all_short t = t.count > 0 && t.short_count = t.count
(** The paper's predictor criterion: {e all} of the site's training
    objects were short-lived (§4.1: "we only consider allocation sites in
    which all of the objects allocated lived less than 32 kilobytes"). *)

let short_fraction t =
  if t.count = 0 then 0. else float_of_int t.short_count /. float_of_int t.count
