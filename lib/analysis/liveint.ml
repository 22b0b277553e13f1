(* Live-interval overlap analysis: fragmentation pressure before any
   backend replay.

   The domain tracks, per site (birth chain × current size), the bytes
   the site holds live as the stream advances — an interval lattice in
   which an allocation opens an interval, a free closes it and a realloc
   migrates the object's bytes between size buckets of its birth chain.
   Per range it records each site's net byte delta and its *relative*
   peak (the max prefix sum over the range's touching events) together
   with the absolute global live bytes at that moment; the merge
   prefix-sums the nets in range order to recover each site's absolute
   entry level, so site peaks, their events and the foreign co-live
   bytes at the peak are exactly the sequential pass's — a
   max-prefix-sum merge, the same shape as Stats' max-candidate merge.

   A site whose peak is a large share of the global live-heap peak while
   a comparable volume of *other* sites' bytes is co-live marks a
   fragmentation hotspot: interleaved lifetimes from different sites are
   what defeats address-ordered reuse (and what the paper's
   short-lived arenas segregate away). *)

open Diagnostic

type summary = {
  lv_chains : int array;  (** per local site: birth chain id *)
  lv_sizes : int array;  (** per local site: size bucket *)
  lv_net : int array;  (** net in-range byte delta *)
  lv_relpeak : int array;  (** max prefix sum over the range's events *)
  lv_peak_event : int array;  (** first event attaining it (absolute) *)
  lv_glive_at_peak : int array;  (** global live bytes just after it *)
  lv_allocs : int array;
  lv_alloc_bytes : int array;
  lv_gpeak : int;  (** absolute global live-byte peak; [min_int] if empty *)
  lv_gpeak_event : int;
}

type site = {
  li_chain : int;
  li_size : int;
  li_peak : int;  (** peak simultaneous live bytes of this site *)
  li_peak_event : int;
  li_foreign_at_peak : int;  (** other sites' live bytes at that event *)
  li_allocs : int;
  li_alloc_bytes : int;
}

type merged = {
  lm_sites : site array;  (** global first-appearance order *)
  lm_n_sites : int;
  lm_gpeak : int;
  lm_gpeak_event : int;
}

type Absint.token += Summary of summary | Merged of merged

module Grow = Lp_trace.Grow
module Event = Lp_trace.Event

let enter (_src : Lp_trace.Source.t) (_en : Absint.entry) =
  let sites = Pair_table.create 256 in
  let net = Grow.create 256 in
  let relpeak = Grow.create ~default:min_int 256 in
  let peak_event = Grow.create ~default:(-1) 256 in
  let glive_at_peak = Grow.create 256 in
  let allocs = Grow.create 256 in
  let alloc_bytes = Grow.create 256 in
  let gpeak = ref min_int and gpeak_event = ref (-1) in
  let site_delta ~event ~glive_post id delta =
    let n = Grow.get net id + delta in
    Grow.set net id n;
    if n > Grow.get relpeak id then begin
      Grow.set relpeak id n;
      Grow.set peak_event id event;
      Grow.set glive_at_peak id glive_post
    end
  in
  let step (ctx : Absint.ctx) ev =
    let event = ctx.Absint.cx_event in
    let gdelta =
      match ev with
      | Event.Alloc { size; _ } -> size
      | Event.Free { obj; _ } ->
          if obj >= 0 then -ctx.Absint.cx_cur_size obj else 0
      | Event.Realloc { obj; new_size; _ } ->
          if obj >= 0 then new_size - ctx.Absint.cx_cur_size obj else 0
      | Event.Touch _ -> 0
    in
    let glive_post = ctx.Absint.cx_live_bytes + gdelta in
    (match ev with
    | Event.Alloc { size; chain; _ } ->
        let id = Pair_table.intern sites chain size in
        Grow.set allocs id (Grow.get allocs id + 1);
        Grow.set alloc_bytes id (Grow.get alloc_bytes id + size);
        site_delta ~event ~glive_post id size
    | Event.Free { obj; _ } ->
        if ctx.Absint.cx_born obj then begin
          let cur = ctx.Absint.cx_cur_size obj in
          let id =
            Pair_table.intern sites (ctx.Absint.cx_birth_chain obj) cur
          in
          site_delta ~event ~glive_post id (-cur)
        end
    | Event.Realloc { obj; new_size; _ } ->
        if ctx.Absint.cx_born obj then begin
          let chain = ctx.Absint.cx_birth_chain obj in
          let cur = ctx.Absint.cx_cur_size obj in
          (* the object's bytes migrate between its birth chain's size
             buckets: close the old interval, open the new one *)
          site_delta ~event ~glive_post (Pair_table.intern sites chain cur)
            (-cur);
          site_delta ~event ~glive_post
            (Pair_table.intern sites chain new_size)
            new_size
        end
    | Event.Touch _ -> ());
    if glive_post > !gpeak then begin
      gpeak := glive_post;
      gpeak_event := event
    end
  in
  let finish () =
    let n = Pair_table.length sites in
    let arr g = Array.init n (Grow.get g) in
    Summary
      {
        lv_chains = Pair_table.chains sites;
        lv_sizes = Pair_table.sizes sites;
        lv_net = arr net;
        lv_relpeak = arr relpeak;
        lv_peak_event = arr peak_event;
        lv_glive_at_peak = arr glive_at_peak;
        lv_allocs = arr allocs;
        lv_alloc_bytes = arr alloc_bytes;
        lv_gpeak = !gpeak;
        lv_gpeak_event = !gpeak_event;
      }
  in
  (step, finish)

let unpack = function
  | Summary s -> s
  | _ -> invalid_arg "Liveint: foreign token"

(* Sites are interned in range order, which is global first-appearance
   order; per merged site the running sums below are the sequential
   pass's state at each range boundary. *)
let merge tokens =
  let sums = List.map unpack tokens in
  let sites = Pair_table.create 1024 in
  let entry = Grow.create 1024 in  (* live bytes at the next range's entry *)
  let peak = Grow.create ~default:min_int 1024 in
  let peak_event = Grow.create ~default:(-1) 1024 in
  let foreign = Grow.create 1024 in
  let allocs = Grow.create 1024 in
  let alloc_bytes = Grow.create 1024 in
  let gpeak = ref min_int and gpeak_event = ref (-1) in
  List.iter
    (fun s ->
      Array.iteri
        (fun l chain ->
          let g = Pair_table.intern sites chain s.lv_sizes.(l) in
          (* the range's relative peak shifted by the site's absolute
             entry level; strict > keeps the earliest attainment, since
             ranges arrive in order *)
          let candidate = Grow.get entry g + s.lv_relpeak.(l) in
          if candidate > Grow.get peak g then begin
            Grow.set peak g candidate;
            Grow.set peak_event g s.lv_peak_event.(l);
            Grow.set foreign g (s.lv_glive_at_peak.(l) - candidate)
          end;
          Grow.set entry g (Grow.get entry g + s.lv_net.(l));
          Grow.set allocs g (Grow.get allocs g + s.lv_allocs.(l));
          Grow.set alloc_bytes g (Grow.get alloc_bytes g + s.lv_alloc_bytes.(l)))
        s.lv_chains;
      if s.lv_gpeak > !gpeak then begin
        gpeak := s.lv_gpeak;
        gpeak_event := s.lv_gpeak_event
      end)
    sums;
  let n = Pair_table.length sites in
  Merged
    {
      lm_sites =
        Array.init n (fun g ->
            {
              li_chain = Pair_table.chain sites g;
              li_size = Pair_table.size sites g;
              li_peak = Grow.get peak g;
              li_peak_event = Grow.get peak_event g;
              li_foreign_at_peak = Grow.get foreign g;
              li_allocs = Grow.get allocs g;
              li_alloc_bytes = Grow.get alloc_bytes g;
            });
      lm_n_sites = n;
      lm_gpeak = !gpeak;
      lm_gpeak_event = !gpeak_event;
    }

let domain : (module Absint.DOMAIN) =
  (module struct
    let name = "live-intervals"
    let enter = enter
    let merge = merge
  end)

let project = function
  | Merged m -> m
  | _ -> invalid_arg "Liveint.project: not a live-interval token"

let rules =
  [
    {
      id = "live-overlap-hotspot";
      default_severity = Warning;
      doc =
        "a site's live-byte peak overlaps heavily with foreign live bytes \
         (fragmentation hotspot)";
    };
    {
      id = "live-peak-pressure";
      default_severity = Info;
      doc = "the trace's peak simultaneous live bytes and where it occurs";
    };
  ]

let default_hotspot_share = 0.25

let report ?(hotspot_share = default_hotspot_share) rctx (m : merged) =
  let out = ref [] in
  if m.lm_gpeak > min_int && m.lm_gpeak > 0 then begin
    let gpeak = float_of_int m.lm_gpeak in
    Array.iter
      (fun (st : site) ->
        if
          st.li_peak > 0
          && float_of_int st.li_peak >= hotspot_share *. gpeak
          && float_of_int st.li_foreign_at_peak >= hotspot_share *. gpeak
        then
          out :=
            make ~rule:"live-overlap-hotspot" ~severity:Warning
              ~event:st.li_peak_event
              ~site:
                (Printf.sprintf "[%s; size=%d]"
                   (Absint.render_chain rctx st.li_chain)
                   st.li_size)
              (Printf.sprintf
                 "site peaks at %d live bytes (%.0f%% of the global peak %d) \
                  while %d foreign bytes are co-live — interleaved lifetimes \
                  predict fragmentation here (%d allocation(s), %d bytes \
                  total)"
                 st.li_peak
                 (100. *. float_of_int st.li_peak /. gpeak)
                 m.lm_gpeak st.li_foreign_at_peak st.li_allocs
                 st.li_alloc_bytes)
            :: !out)
      m.lm_sites;
    out :=
      make ~rule:"live-peak-pressure" ~severity:Info ~event:m.lm_gpeak_event
        (Printf.sprintf
           "peak live heap: %d bytes at event %d, spread over %d site(s)"
           m.lm_gpeak m.lm_gpeak_event m.lm_n_sites)
      :: !out
  end;
  List.rev !out
