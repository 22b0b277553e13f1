(* The audit engine: one abstract-interpretation pass over a trace
   stream, shared by every analysis.

   An analysis is a DOMAIN: it receives every block of events of one
   range together with the engine's concrete context, as per-slot
   columns (event index, pre-event live bytes, the slot object's current
   size and birth chain — all seeded from a sharded range's entry
   counters and carry-in set), and folds them into a range summary
   [token].  [merge] combines the summaries of a covering partition,
   walked in range order, into the whole-trace summary.

   The engine is one [Pass.t]: its part is the domains' token list, so
   materialized, --stream and --sharded output is byte-identical by
   construction — the same code runs in all three, only the partition
   differs — provided each domain's [merge] reproduces sequential
   accumulation (interning in range order = global first-appearance
   order, deferred observations replayed in global allocation order). *)

module Source = Lp_trace.Source
module Pass = Lp_trace.Pass
module Binio = Lp_trace.Binio
module Block = Lp_trace.Block
module Grow = Lp_trace.Grow
module Pair_table = Lp_trace.Pair_table
module Site = Lp_callchain.Site
module Chain = Lp_callchain.Chain

type token = ..

type ctx = {
  mutable cx_base : int;
  mutable cx_live_bytes : int array;
  mutable cx_cur_size : int array;
  mutable cx_birth_chain : int array;
}

module type DOMAIN = sig
  val name : string
  val enter : Source.t -> Pass.entry -> (ctx -> Pass.step) * (unit -> token)
  val merge : token list -> token
end

(* -- the concrete interpreter ----------------------------------------------------- *)

(* The engine's per-object tables (current size, birth chain) are sized
   from the range's object-id bound, like every pass's.  Per block, the
   engine first walks the slots once, writing each slot's pre-event
   context into the [ctx] columns and advancing its own state, then
   hands the whole block to each domain: one call per domain per block,
   and each domain loops over the slots itself. *)
let enter analyses (src : Source.t) (en : Pass.entry) =
  let objects = Pass.objects src in
  let cur_size = Grow.create objects in
  let birth_chain = Grow.create ~default:(-1) objects in
  Array.iter
    (fun (cr : Binio.carry) ->
      Grow.set cur_size cr.Binio.cr_obj cr.Binio.cr_size;
      Grow.set birth_chain cr.Binio.cr_obj cr.Binio.cr_alloc_chain)
    en.en_carry;
  let ctx =
    {
      cx_base = en.en_first_event;
      cx_live_bytes = [||];
      cx_cur_size = [||];
      cx_birth_chain = [||];
    }
  in
  let entered =
    List.map (fun (module D : DOMAIN) -> D.enter src en) analyses
  in
  let steps = Array.of_list (List.map fst entered) in
  let next_event = ref en.en_first_event in
  let live_bytes = ref en.en_live_bytes in
  let step (b : Block.t) lo hi =
    if Array.length ctx.cx_live_bytes < hi then begin
      let n = Block.slots b in
      ctx.cx_live_bytes <- Array.make n 0;
      ctx.cx_cur_size <- Array.make n 0;
      ctx.cx_birth_chain <- Array.make n (-1)
    end;
    let live_col = ctx.cx_live_bytes
    and size_col = ctx.cx_cur_size
    and chain_col = ctx.cx_birth_chain in
    let live = ref !live_bytes in
    for i = lo to hi - 1 do
      let obj = Array.unsafe_get b.obj i in
      Array.unsafe_set live_col i !live;
      if obj >= 0 then begin
        let cur = Grow.get cur_size obj in
        Array.unsafe_set size_col i cur;
        Array.unsafe_set chain_col i (Grow.get birth_chain obj);
        match Bytes.unsafe_get b.kinds i with
        | '\000' (* alloc *) ->
            let size = Array.unsafe_get b.size i in
            Grow.set cur_size obj size;
            Grow.set birth_chain obj (Array.unsafe_get b.chain i);
            live := !live + size
        | '\001' (* free *) -> live := !live - cur
        | '\002' (* realloc *) ->
            let new_size = Array.unsafe_get b.new_size i in
            live := !live - cur + new_size;
            Grow.set cur_size obj new_size
        | _ (* touch *) -> ()
      end
      else begin
        Array.unsafe_set size_col i 0;
        Array.unsafe_set chain_col i (-1);
        if Bytes.unsafe_get b.kinds i = '\000' then
          live := !live + Array.unsafe_get b.size i
      end
    done;
    live_bytes := !live;
    ctx.cx_base <- !next_event - lo;
    next_event := !next_event + (hi - lo);
    Array.iter (fun domain_step -> domain_step ctx b lo hi) steps
  in
  (step, fun () -> List.map (fun (_, finish) -> finish ()) entered)

let merge analyses _src per_range =
  List.mapi
    (fun i (module D : DOMAIN) ->
      D.merge (List.map (fun tokens -> List.nth tokens i) per_range))
    analyses

let pass ~analyses = { Pass.enter = enter analyses; merge = merge analyses }

(* -- chain rendering for reports -------------------------------------------------- *)

let chain_depth (src : Source.t) chain_id =
  if chain_id < 0 || chain_id >= src.n_chains () then 0
  else Array.length (src.chain chain_id)

let render_chain (src : Source.t) chain_id =
  if chain_id < 0 || chain_id >= src.n_chains () then
    Printf.sprintf "chain %d" chain_id
  else
    let names = Chain.names (src.funcs ()) (src.chain chain_id) in
    match names with
    | [] -> "<empty chain>"
    | _ ->
        let shown = List.filteri (fun i _ -> i < 3) names in
        String.concat "<-" shown
        ^ if List.length names > 3 then "<-…" else ""

(* -- the shared per-(chain, size) site domain ------------------------------------- *)

module Site_profile = struct
  type config = {
    pc_policy : Site.policy;
    pc_rounding : int;
    pc_threshold : int;
  }

  (* one range's quarter: the local (chain, size) site table in in-range
     first-appearance order, the portable key each maps to, one site id
     per allocation, and the lifetime fold the merge resolves against *)
  type summary = {
    sm_chains : int array;
    sm_sizes : int array;
    sm_keys : Lifetime.Portable.t array;
    sm_first_event : int array;
    sm_alloc_site : int array;
    sm_fold : Lp_trace.Lifetimes.range_fold;
  }

  type site = {
    st_chain : int;
    st_size : int;
    st_key : int;  (** index into [pf_keys] *)
    st_first_event : int;
    mutable st_count : int;
    mutable st_short : int;
    mutable st_survivors : int;
    mutable st_max_lifetime : int;
    mutable st_bytes : int;
  }

  type key = {
    ky_key : Lifetime.Portable.t;
    ky_first_event : int;
    mutable ky_sites : int list;
    mutable ky_count : int;
    mutable ky_short : int;
    mutable ky_survivors : int;
    mutable ky_max_lifetime : int;
    mutable ky_bytes : int;
  }

  (* what the on-demand quartiles walk: the range summaries with their
     local-to-global site maps, and the final lifetime state the
     summaries' allocations resolve against — the merge's own inputs *)
  type allocs = {
    al_sums : summary list;
    al_maps : int array list;
    al_resolved : Lp_trace.Lifetimes.resolved;
  }

  type merged = {
    pf_sites : site array;
    pf_keys : key array;
    pf_end_clock : int;
    pf_threshold : int;
    pf_allocs : allocs;
  }

  type token += Summary of summary | Profile of merged

  let portable_of cfg funcs site =
    match cfg.pc_policy with
    | Site.Encrypted_key ->
        Lifetime.Portable.of_key_site site ~rounding:cfg.pc_rounding
    | _ -> Lifetime.Portable.of_site funcs ~rounding:cfg.pc_rounding site

  let enter cfg (src : Source.t) (en : Pass.entry) =
    let allocs = Pass.objects src - en.en_next_obj in
    let fold = Lp_trace.Lifetimes.Fold.enter src en in
    let sites = Pair_table.create 256 in
    let keys = ref [] and firsts = ref [] in
    let alloc_site = Grow.create allocs in
    let step (ctx : ctx) (b : Block.t) lo hi =
      for i = lo to hi - 1 do
        if Bytes.unsafe_get b.kinds i = '\000' (* alloc *) then begin
          let size = Array.unsafe_get b.size i in
          let chain = Array.unsafe_get b.chain i in
          let n_sites = Pair_table.length sites in
          let sid = Pair_table.intern sites chain size in
          if sid = n_sites then begin
            (* corrupt traces can carry unresolvable chain ids; key
               them like an empty chain rather than crashing *)
            let raw_chain =
              if chain >= 0 && chain < src.Source.n_chains () then
                src.Source.chain chain
              else [||]
            in
            let site =
              Site.make cfg.pc_policy ~raw_chain
                ~key:(Array.unsafe_get b.key i) ~size
            in
            keys := portable_of cfg (src.Source.funcs ()) site :: !keys;
            firsts := (ctx.cx_base + i) :: !firsts
          end;
          Grow.push alloc_site sid
        end
      done;
      Lp_trace.Lifetimes.Fold.step fold b lo hi
    in
    let finish () =
      Summary
        {
          sm_chains = Pair_table.chains sites;
          sm_sizes = Pair_table.sizes sites;
          sm_keys = Array.of_list (List.rev !keys);
          sm_first_event = Array.of_list (List.rev !firsts);
          sm_alloc_site = Grow.freeze alloc_site;
          sm_fold = Lp_trace.Lifetimes.Fold.finish fold;
        }
    in
    (step, finish)

  let unpack = function
    | Summary s -> s
    | _ -> invalid_arg "Absint.Site_profile: foreign token"

  let merge cfg tokens =
    let sums = List.map unpack tokens in
    let resolved =
      Lp_trace.Lifetimes.resolve (List.map (fun s -> s.sm_fold) sums)
    in
    (* intern sites and keys in range order, which is global
       first-appearance order — the invariant every ordering below
       (diagnostic order, on-demand quartile-histogram state) rests on *)
    let site_ids = Pair_table.create 1024 in
    let key_ids : int Lifetime.Portable.Table.t =
      Lifetime.Portable.Table.create 256
    in
    let sites_rev = ref [] in
    let keys_rev = ref [] and n_keys = ref 0 in
    let maps =
      List.map
        (fun s ->
          Array.mapi
            (fun l chain ->
              let size = s.sm_sizes.(l) in
              let n_sites = Pair_table.length site_ids in
              let g = Pair_table.intern site_ids chain size in
              if g < n_sites then g
              else begin
                let portable = s.sm_keys.(l) in
                let kid =
                  match
                    Lifetime.Portable.Table.find_opt key_ids portable
                  with
                  | Some k -> k
                  | None ->
                      let k = !n_keys in
                      incr n_keys;
                      Lifetime.Portable.Table.add key_ids portable k;
                      keys_rev :=
                        {
                          ky_key = portable;
                          ky_first_event = s.sm_first_event.(l);
                          ky_sites = [];
                          ky_count = 0;
                          ky_short = 0;
                          ky_survivors = 0;
                          ky_max_lifetime = 0;
                          ky_bytes = 0;
                        }
                        :: !keys_rev;
                      k
                in
                sites_rev :=
                  {
                    st_chain = chain;
                    st_size = size;
                    st_key = kid;
                    st_first_event = s.sm_first_event.(l);
                    st_count = 0;
                    st_short = 0;
                    st_survivors = 0;
                    st_max_lifetime = 0;
                    st_bytes = 0;
                  }
                  :: !sites_rev;
                g
              end)
            s.sm_chains)
        sums
    in
    let sites = Array.of_list (List.rev !sites_rev) in
    let keys = Array.of_list (List.rev !keys_rev) in
    (* deferred per-allocation observation, in global allocation order *)
    List.iter2
      (fun s map ->
        let i = ref 0 in
        Lp_trace.Lifetimes.iter_allocs resolved s.sm_fold
          (fun ~obj:_ ~size ~lifetime:lt ~survived:surv ->
            let st = sites.(map.(s.sm_alloc_site.(!i))) in
            incr i;
            st.st_count <- st.st_count + 1;
            st.st_bytes <- st.st_bytes + size;
            if (not surv) && lt < cfg.pc_threshold then
              st.st_short <- st.st_short + 1;
            if surv then st.st_survivors <- st.st_survivors + 1;
            if lt > st.st_max_lifetime then st.st_max_lifetime <- lt))
      sums maps;
    (* roll member sites up into their keys, in site order *)
    Array.iteri
      (fun g st ->
        let ky = keys.(st.st_key) in
        ky.ky_sites <- g :: ky.ky_sites;
        ky.ky_count <- ky.ky_count + st.st_count;
        ky.ky_short <- ky.ky_short + st.st_short;
        ky.ky_survivors <- ky.ky_survivors + st.st_survivors;
        ky.ky_max_lifetime <- max ky.ky_max_lifetime st.st_max_lifetime;
        ky.ky_bytes <- ky.ky_bytes + st.st_bytes)
      sites;
    Array.iter (fun ky -> ky.ky_sites <- List.rev ky.ky_sites) keys;
    Profile
      {
        pf_sites = sites;
        pf_keys = keys;
        pf_end_clock = Lp_trace.Lifetimes.resolved_end_clock resolved;
        pf_threshold = cfg.pc_threshold;
        pf_allocs = { al_sums = sums; al_maps = maps; al_resolved = resolved };
      }

  (* P² is order-sensitive, so the walk feeds the wanted sites in global
     allocation order — exactly the observations, in exactly the order,
     a per-allocation feed during the merge would have given them *)
  let lifetime_histograms (pf : merged) ids =
    if Array.length ids = 0 then [||]
    else begin
      let hist = Array.make (Array.length pf.pf_sites) None in
      Array.iter
        (fun g ->
          if Option.is_none hist.(g) then
            hist.(g) <- Some (Lp_quantile.Histogram.create ()))
        ids;
      let al = pf.pf_allocs in
      List.iter2
        (fun s map ->
          let i = ref 0 in
          Lp_trace.Lifetimes.iter_allocs al.al_resolved s.sm_fold
            (fun ~obj:_ ~size:_ ~lifetime ~survived:_ ->
              let g = map.(s.sm_alloc_site.(!i)) in
              incr i;
              match hist.(g) with
              | Some h ->
                  Lp_quantile.Histogram.observe h (float_of_int lifetime)
              | None -> ()))
        al.al_sums al.al_maps;
      Array.map (fun g -> Option.get hist.(g)) ids
    end

  let domain cfg : (module DOMAIN) =
    (module struct
      let name = "site-profile"
      let enter = enter cfg
      let merge = merge cfg
    end)

  let project = function
    | Profile m -> m
    | _ -> invalid_arg "Absint.Site_profile.project: not a profile token"
end
