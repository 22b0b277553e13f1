(** The audit engine: abstract interpretation over trace streams.

    One concrete pass drives any number of {e abstract domains} over the
    event stream, a block of events at a time.  The engine owns the
    concrete semantics — event index, live-heap bytes, per-object
    current size and birth chain — and exposes them to each domain's
    block step as the per-slot columns of a {!ctx}; a domain folds the
    events of one {e range} into a {!token} summary and merges a
    covering partition's summaries, walked in range order, into the
    whole-trace result.

    The engine is one {!Lp_trace.Pass} ({!pass}), like the stats,
    lifetimes, training and lint folds: every range is seeded from a
    {!Lp_trace.Pass.entry}, and the sequential run is the one-range
    case.  Materialized, [--stream] and [--sharded] runs of a
    well-formed trace therefore produce byte-identical results at any
    domain count, provided the domain's [merge] reproduces sequential
    accumulation order — interning in range order is global
    first-appearance order, and deferred per-allocation observations
    replay in global allocation order.

    Domains publish their summaries through the extensible {!token}
    type (each adds a private constructor), which keeps the engine
    first-order: a heterogeneous list of domains runs in one pass and
    their summaries cross OCaml domains as plain values. *)

type token = ..
(** A domain's range or merged summary.  Each domain extends this with
    its own constructor and exposes a [project] to unpack the merge. *)

type ctx = {
  mutable cx_base : int;
      (** slot [i] of the current block is event [cx_base + i] (absolute) *)
  mutable cx_live_bytes : int array;
      (** per slot: live bytes {e before} the event *)
  mutable cx_cur_size : int array;
      (** per slot: the slot object's current (post-resize) size before
          the event; [0] if never allocated *)
  mutable cx_birth_chain : int array;
      (** per slot: the chain of the slot object's {e birth} allocation
          before the event — reallocs don't change it — or [-1] if the
          object is unborn or unknown *)
}
(** The engine's concrete state as context columns of the current
    block: for each slot in the block's [\[lo, hi)], the pre-event
    values, filled by the engine before any domain sees the block.  The
    columns are only valid during the domain's step. *)

module type DOMAIN = sig
  val name : string

  val enter :
    Lp_trace.Source.t ->
    Lp_trace.Pass.entry ->
    (ctx -> Lp_trace.Pass.step) * (unit -> token)
  (** Start a range: return the block step — called once per block,
      after the engine has filled the context columns, and looping over
      the block's slots itself — and the finisher that packs the range
      summary. *)

  val merge : token list -> token
  (** Combine a covering partition's summaries, given in range order.
      Sequential runs call this on a singleton. *)
end

val pass : analyses:(module DOMAIN) list -> (token list, token list) Lp_trace.Pass.t
(** Every domain over one traversal.  A range's part is one token per
    domain, in domain order; the merge is one merged token per domain.
    Run it with {!Lp_trace.Pass.run} or [Lifetime.Shard.run]. *)

(** {1 Report rendering}

    Reports run after the pass, against the whole trace's source, whose
    tables are complete. *)

val chain_depth : Lp_trace.Source.t -> int -> int
(** Frame count of a chain; [0] when the id is unresolvable. *)

val render_chain : Lp_trace.Source.t -> int -> string
(** First three frames, innermost first, ["<-…"]-elided; ["chain N"]
    when the id is unresolvable. *)

(** {1 The shared site domain}

    The per-(chain, size) abstract domain both the collision and the
    coverage analyses consume: every allocation is attributed to its
    concrete site (raw chain id × exact size) and to the portable
    predictor key the configured policy maps that site onto, with
    per-site and per-key lifetime counts accumulated through the
    {!Lp_trace.Lifetimes.Fold} machinery (deferred, so survivors get
    their end-of-trace lifetimes).  Several concrete sites mapping onto
    one key is exactly a {e key collision}.  Lifetime quartiles are
    computed on demand, for the sites a report describes
    ({!lifetime_histograms}). *)
module Site_profile : sig
  type config = {
    pc_policy : Lp_callchain.Site.policy;
    pc_rounding : int;  (** portable-key size rounding *)
    pc_threshold : int;  (** short-lived cutoff, bytes *)
  }

  type site = {
    st_chain : int;  (** raw chain id *)
    st_size : int;  (** exact allocation size *)
    st_key : int;  (** index into [pf_keys] *)
    st_first_event : int;  (** first allocation under this site *)
    mutable st_count : int;
    mutable st_short : int;
    mutable st_survivors : int;
    mutable st_max_lifetime : int;
    mutable st_bytes : int;
  }

  type key = {
    ky_key : Lifetime.Portable.t;
    ky_first_event : int;
    mutable ky_sites : int list;  (** member sites, first-appearance order *)
    mutable ky_count : int;
    mutable ky_short : int;
    mutable ky_survivors : int;
    mutable ky_max_lifetime : int;
    mutable ky_bytes : int;
  }

  type allocs
  (** The allocation records the merge observed, kept for
      {!lifetime_histograms}. *)

  type merged = {
    pf_sites : site array;  (** global first-appearance order *)
    pf_keys : key array;  (** global first-appearance order *)
    pf_end_clock : int;
    pf_threshold : int;
    pf_allocs : allocs;
  }

  val domain : config -> (module DOMAIN)

  val lifetime_histograms : merged -> int array -> Lp_quantile.Histogram.t array
  (** [lifetime_histograms pf ids]: the count-weighted lifetime quartile
      histograms of the sites [ids] (indices into [pf_sites]), in [ids]
      order.  One walk over the allocation records, in global allocation
      order, feeds only those sites, so each histogram is in the state a
      feed of every allocation at the merge would leave it in, for any
      partition.  An empty [ids] walks nothing; a site never allocated
      gets an empty histogram. *)

  val project : token -> merged
  (** Unpack this domain's merged token.
      @raise Invalid_argument on a foreign token. *)
end
