(** Short-lived-site predictors.

    A predictor is the set of allocation sites whose training objects were
    {e all} short-lived, stored as portable keys so it can be applied to a
    different execution — the "database of allocation sites" the paper
    compiles into the allocation system (§5.1).

    [selection] generalises the paper's all-short rule: the ablation
    benches also build predictors that accept sites with at least a given
    fraction of short-lived training objects, trading error rate for
    coverage (the trade-off §4.1 discusses around "how large should this
    percentage be?"). *)

type selection =
  | All_short  (** the paper's rule *)
  | Fraction of float  (** accept sites with >= this fraction short *)

type t = {
  keys : unit Portable.Table.t;
  policy : Lp_callchain.Site.policy;
  rounding : int;
  threshold : int;
  selection : selection;
}

let portable_of_site t funcs site =
  match t.policy with
  | Lp_callchain.Site.Encrypted_key -> Portable.of_key_site site ~rounding:t.rounding
  | _ -> Portable.of_site funcs ~rounding:t.rounding site

let build ?(selection = All_short) ~(config : Config.t) ~funcs
    (table : Train.site_table) =
  let t =
    {
      keys = Portable.Table.create 256;
      policy = config.policy;
      rounding = config.size_rounding;
      threshold = config.short_lived_threshold;
      selection;
    }
  in
  Lp_callchain.Site.Table.iter
    (fun site stats ->
      let accept =
        match selection with
        | All_short -> Site_stats.all_short stats
        | Fraction f -> stats.Site_stats.count > 0 && Site_stats.short_fraction stats >= f
      in
      (* Distinct sites can collapse onto one portable key (rounding); the
         conservative rule keeps a key only if every contributing site
         qualifies, so a later non-qualifying site must evict the key. *)
      let key = portable_of_site t funcs site in
      if accept then begin
        if not (Portable.Table.mem t.keys key) then Portable.Table.add t.keys key ()
      end
      else Portable.Table.remove t.keys key)
    table;
  (* second pass: re-evict keys that a non-qualifying site shares, since
     iteration order above may have added after removal *)
  Lp_callchain.Site.Table.iter
    (fun site stats ->
      let accept =
        match selection with
        | All_short -> Site_stats.all_short stats
        | Fraction f -> stats.Site_stats.count > 0 && Site_stats.short_fraction stats >= f
      in
      if not accept then Portable.Table.remove t.keys (portable_of_site t funcs site))
    table;
  t

(* Rebuild a predictor from an explicit key set — the path a portable
   model file takes back into a live predictor. *)
let of_keys ?(selection = All_short) ~(config : Config.t) keys =
  let t =
    {
      keys = Portable.Table.create (max 16 (List.length keys));
      policy = config.policy;
      rounding = config.size_rounding;
      threshold = config.short_lived_threshold;
      selection;
    }
  in
  List.iter
    (fun k -> if not (Portable.Table.mem t.keys k) then Portable.Table.add t.keys k ())
    keys;
  t

let size t = Portable.Table.length t.keys
let threshold t = t.threshold

let predicts_site t funcs site = Portable.Table.mem t.keys (portable_of_site t funcs site)

let predicts_key t key = Portable.Table.mem t.keys key

let iter_keys t f = Portable.Table.iter (fun k () -> f k) t.keys

(* A fast per-trace lookup: resolves each interned (chain, size) pair once
   and memoizes, so the simulation driver's per-allocation test is a
   hash-table probe — mirroring the small site hash table of §5.1.

   The memo numbers the pairs in a {!Lp_trace.Pair_table} and keeps one
   verdict byte per site id: the probe allocates nothing, where a
   [Hashtbl] keyed by an [(int * int)] tuple would cost two minor
   allocations and a polymorphic hash per allocation.  Ids are dense, so
   a site is already resolved exactly when its id is below [known].

   The memo is a record so a candidate sweep can pool it: clearing the
   table is far cheaper than reallocating and re-zeroing it per replay. *)

type memo = {
  sites : Lp_trace.Pair_table.t;
  mutable verdicts : Bytes.t;  (* by site id *)
  mutable known : int;
}

let create_memo () =
  { sites = Lp_trace.Pair_table.create 2048; verdicts = Bytes.create 2048; known = 0 }

let for_lookup_in m t ~chain_of ~funcs =
  fun ~obj:_ ~size ~chain ~key ->
    let id = Lp_trace.Pair_table.intern m.sites chain size in
    if id < m.known then Bytes.unsafe_get m.verdicts id = '\001'
    else begin
      let site =
        Lp_callchain.Site.make t.policy ~raw_chain:(chain_of chain) ~key ~size
      in
      let hit = predicts_site t (funcs ()) site in
      if id = Bytes.length m.verdicts then
        m.verdicts <- Bytes.extend m.verdicts 0 id;
      Bytes.unsafe_set m.verdicts id (if hit then '\001' else '\000');
      m.known <- id + 1;
      hit
    end

let for_lookup t ~chain_of ~funcs = for_lookup_in (create_memo ()) t ~chain_of ~funcs

let for_trace t (trace : Lp_trace.Trace.t) =
  for_lookup t
    ~chain_of:(Lp_trace.Trace.chain_of_alloc trace)
    ~funcs:(fun () -> trace.funcs)

let for_source t (src : Lp_trace.Source.t) =
  for_lookup t ~chain_of:src.Lp_trace.Source.chain ~funcs:src.Lp_trace.Source.funcs

(* one pooled memo per domain; [for_trace_pooled] clears it instead of
   allocating, so a candidate sweep's per-replay predictor state is O(1)
   allocation after warm-up *)
let memo_key = Domain.DLS.new_key create_memo

let for_trace_pooled t (trace : Lp_trace.Trace.t) =
  let m = Domain.DLS.get memo_key in
  Lp_trace.Pair_table.clear m.sites;
  m.known <- 0;
  Lp_obs.Timings.count "predictor.memo_reuses" 1;
  for_lookup_in m t
    ~chain_of:(Lp_trace.Trace.chain_of_alloc trace)
    ~funcs:(fun () -> trace.funcs)
