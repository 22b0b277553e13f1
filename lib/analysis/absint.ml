(* The audit engine: one abstract-interpretation pass over a trace
   stream, shared by every analysis.

   An analysis is a DOMAIN: it receives every event of one range
   together with the engine's concrete context (event index, clocks,
   live-heap counters, per-object current size and birth chain — all
   seeded from a sharded range's entry counters and carry-in set), and
   folds it into a range summary [token].  [merge] combines the
   summaries of a covering partition, walked in range order, into the
   whole-trace summary.

   The engine is one [Pass.t]: its part is the domains' token list, so
   materialized, --stream and --sharded output is byte-identical by
   construction — the same code runs in all three, only the partition
   differs — provided each domain's [merge] reproduces sequential
   accumulation (interning in range order = global first-appearance
   order, deferred observations replayed in global allocation order). *)

module Source = Lp_trace.Source
module Pass = Lp_trace.Pass
module Binio = Lp_trace.Binio
module Event = Lp_trace.Event
module Grow = Lp_trace.Grow
module Pair_table = Lp_trace.Pair_table
module Site = Lp_callchain.Site
module Chain = Lp_callchain.Chain

type token = ..

type ctx = {
  mutable cx_event : int;
  mutable cx_clock : int;
  mutable cx_live_bytes : int;
  mutable cx_live_objs : int;
  cx_src : Source.t;
  cx_cur_size : int -> int;
  cx_born : int -> bool;
  cx_birth_chain : int -> int;
}

module type DOMAIN = sig
  val name : string
  val enter : Source.t -> Pass.entry -> (ctx -> Event.t -> unit) * (unit -> token)
  val merge : token list -> token
end

(* -- the concrete interpreter ----------------------------------------------------- *)

(* The engine's per-object tables (current size, birth chain) are sized
   from the range's object-id bound, like every pass's. *)
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
      cx_event = en.en_first_event - 1;
      cx_clock = en.en_start_clock;
      cx_live_bytes = en.en_live_bytes;
      cx_live_objs = en.en_live_objs;
      cx_src = src;
      cx_cur_size = (fun obj -> if obj >= 0 then Grow.get cur_size obj else 0);
      cx_born = (fun obj -> obj >= 0 && Grow.get birth_chain obj >= 0);
      cx_birth_chain =
        (fun obj -> if obj >= 0 then Grow.get birth_chain obj else -1);
    }
  in
  let entered =
    List.map (fun (module D : DOMAIN) -> D.enter src en) analyses
  in
  let steps = Array.of_list (List.map fst entered) in
  let n_steps = Array.length steps in
  let step ev =
    ctx.cx_event <- ctx.cx_event + 1;
    (* domains observe the pre-event context *)
    for i = 0 to n_steps - 1 do
      steps.(i) ctx ev
    done;
    match ev with
    | Event.Alloc { obj; size; chain; _ } ->
        if obj >= 0 then begin
          Grow.set cur_size obj size;
          Grow.set birth_chain obj chain
        end;
        ctx.cx_clock <- ctx.cx_clock + size;
        ctx.cx_live_bytes <- ctx.cx_live_bytes + size;
        ctx.cx_live_objs <- ctx.cx_live_objs + 1
    | Event.Free { obj; _ } ->
        if obj >= 0 then
          ctx.cx_live_bytes <- ctx.cx_live_bytes - Grow.get cur_size obj;
        ctx.cx_live_objs <- ctx.cx_live_objs - 1
    | Event.Realloc { obj; old_size; new_size; _ } ->
        if obj >= 0 then begin
          ctx.cx_live_bytes <-
            ctx.cx_live_bytes - Grow.get cur_size obj + new_size;
          Grow.set cur_size obj new_size
        end;
        ctx.cx_clock <- ctx.cx_clock + max 0 (new_size - old_size)
    | Event.Touch _ -> ()
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
    st_hist : Lp_quantile.Histogram.t;
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

  type merged = {
    pf_sites : site array;
    pf_keys : key array;
    pf_end_clock : int;
    pf_threshold : int;
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
    let step (ctx : ctx) ev =
      (match ev with
      | Event.Alloc { size; chain; key; _ } ->
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
            let site = Site.make cfg.pc_policy ~raw_chain ~key ~size in
            keys := portable_of cfg (src.Source.funcs ()) site :: !keys;
            firsts := ctx.cx_event :: !firsts
          end;
          Grow.push alloc_site sid
      | _ -> ());
      Lp_trace.Lifetimes.Fold.step fold ev
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
       (diagnostic order, quartile-histogram state) rests on *)
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
                    st_hist = Lp_quantile.Histogram.create ();
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
            if lt > st.st_max_lifetime then st.st_max_lifetime <- lt;
            Lp_quantile.Histogram.observe st.st_hist (float_of_int lt)))
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
      }

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
