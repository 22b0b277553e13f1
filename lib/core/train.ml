(** Training: fold a trace into a site table.

    For each allocation, derive the site key under the configured policy
    (complete cycle-eliminated chain + size, length-N sub-chain + size,
    size only, or encryption key + size) and fold the object's lifetime
    into that site's statistics. *)

module Site = Lp_callchain.Site
module Source = Lp_trace.Source
module Lifetimes = Lp_trace.Lifetimes

type site_table = Site_stats.t Site.Table.t

type streamed = {
  table : site_table;
  end_clock : int;  (** total bytes allocated — [Trace.total_bytes] of the stream *)
  n_objects : int;
}

(* One range's part: the lifetime fold, the range's sites in
   first-appearance order, and one local site id per allocation.  Sites
   are interned by the pair [Site.make] reads — (chain, size), or
   (key, size) under the key policy — so [Site.make], which hashes a
   call chain, runs once per local site, inside the parallel section. *)
type part = {
  pt_sites : Site.t array;
  pt_alloc_site : int array;
  pt_fold : Lifetimes.range_fold;
}

let enter ~(config : Config.t) (src : Source.t) (en : Lp_trace.Pass.entry) =
  let fold = Lifetimes.Fold.enter src en in
  let ids = Lp_trace.Pair_table.create 256 in
  let sites = ref [] in
  let alloc_site =
    Lp_trace.Grow.create (Lp_trace.Pass.objects src - en.en_next_obj)
  in
  let by_key = match config.policy with Site.Encrypted_key -> true | _ -> false in
  let step (b : Lp_trace.Block.t) lo hi =
    for i = lo to hi - 1 do
      if Bytes.unsafe_get b.kinds i = '\000' (* alloc *) then begin
        let size = Array.unsafe_get b.size i in
        let chain = Array.unsafe_get b.chain i in
        let key = Array.unsafe_get b.key i in
        let x = if by_key then key else chain in
        let n = Lp_trace.Pair_table.length ids in
        let id = Lp_trace.Pair_table.intern ids x size in
        if id = n then
          sites :=
            Site.make config.policy ~raw_chain:(src.chain chain) ~key ~size
            :: !sites;
        Lp_trace.Grow.push alloc_site id
      end
    done;
    Lifetimes.Fold.step fold b lo hi
  in
  let finish () =
    {
      pt_sites = Array.of_list (List.rev !sites);
      pt_alloc_site = Lp_trace.Grow.freeze alloc_site;
      pt_fold = Lifetimes.Fold.finish fold;
    }
  in
  (step, finish)

(* The table is built walking ranges in order, so its entries, insertion
   order and per-site statistics (observed in global allocation order)
   are the sequential pass's for any partition. *)
let merge ~(config : Config.t) (src : Source.t) parts =
  let resolved = Lifetimes.resolve (List.map (fun p -> p.pt_fold) parts) in
  let table : site_table = Site.Table.create 256 in
  List.iter
    (fun p ->
      let stats =
        Array.map
          (fun site ->
            match Site.Table.find_opt table site with
            | Some s -> s
            | None ->
                let s = Site_stats.create () in
                Site.Table.add table site s;
                s)
          p.pt_sites
      in
      let i = ref 0 in
      Lifetimes.iter_allocs resolved p.pt_fold
        (fun ~obj ~size ~lifetime ~survived ->
          let short =
            (not survived) && lifetime < config.short_lived_threshold
          in
          Site_stats.observe stats.(p.pt_alloc_site.(!i)) ~size ~lifetime
            ~survived ~short ~refs:(src.refs_of obj);
          incr i))
    parts;
  {
    table;
    end_clock = Lifetimes.resolved_end_clock resolved;
    n_objects = src.n_objects_now ();
  }

let pass ?(config = Config.default) () =
  { Lp_trace.Pass.enter = enter ~config; merge = merge ~config }

let collect ?config (trace : Lp_trace.Trace.t) : site_table =
  (Lp_trace.Pass.run (pass ?config ()) (Source.of_trace trace)).table

let total_sites (table : site_table) = Site.Table.length table

let fold table init f = Site.Table.fold f table init
