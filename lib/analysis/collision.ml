(* Chain-key collision detection over the site profile.

   A predictor key is the portable abstraction of a concrete site; the
   policy (cycle elimination, length-N truncation, size-only, the CCE
   XOR key) deliberately identifies distinct call chains.  That is
   harmless while the identified sites agree on their lifetime class —
   but a key shared by an all-short site and a site with long-lived
   objects is a guaranteed-mispredict point: whichever class the
   predictor assigns the key, some of its allocations are wrong.  When
   a model is given and it predicts such a key short-lived, the warning
   hardens into an error. *)

open Diagnostic
module Profile = Absint.Site_profile

let rules =
  [
    {
      id = "chain-collision";
      default_severity = Warning;
      doc =
        "distinct call chains share one predictor key but disagree on \
         lifetime class";
    };
    {
      id = "chain-collision-mispredict";
      default_severity = Error;
      doc =
        "a colliding key with disagreeing lifetime classes that the model \
         predicts short-lived";
    };
  ]

let quartiles_of hist =
  if Lp_quantile.Histogram.count hist = 0 then "none"
  else
    Format.asprintf "%a" Lp_quantile.Histogram.pp_quartiles
      (Lp_quantile.Histogram.quartiles hist)

let describe src (st : Profile.site) hist =
  let cls =
    if st.st_count = st.st_short then "all short-lived"
    else
      Printf.sprintf "%d long-lived of %d"
        (st.st_count - st.st_short)
        st.st_count
  in
  Printf.sprintf "%s (depth %d, %d object(s), %s, lifetimes %s)"
    (Absint.render_chain src st.st_chain)
    (Absint.chain_depth src st.st_chain)
    st.st_count cls (quartiles_of hist)

(* the first short/long member pair on distinct chains, in site (=
   first-appearance) order, anchors a key's diagnostic *)
let clash (pf : Profile.merged) (ky : Profile.key) =
  let site g = pf.pf_sites.(g) in
  let shorts =
    List.filter
      (fun g -> (site g).st_count > 0 && (site g).st_short = (site g).st_count)
      ky.ky_sites
  in
  let longs =
    List.filter (fun g -> (site g).st_short < (site g).st_count) ky.ky_sites
  in
  List.find_map
    (fun s ->
      List.find_map
        (fun l ->
          if (site l).st_chain <> (site s).st_chain then Some (ky, s, l)
          else None)
        longs)
    shorts

let report ?model_index src (pf : Profile.merged) =
  let clashes = List.filter_map (clash pf) (Array.to_list pf.pf_keys) in
  (* the quartiles of every described site, in one walk *)
  let hists =
    Profile.lifetime_histograms pf
      (Array.of_list (List.concat_map (fun (_, s, l) -> [ s; l ]) clashes))
  in
  List.mapi
    (fun j ((ky : Profile.key), s, l) ->
      let predicted_short =
        match model_index with
        | None -> None
        | Some ix -> (
            match Lifetime.Model.find_key ix ky.ky_key with
            | Some e when e.Lifetime.Model.predicted -> Some e
            | _ -> None)
      in
      let base =
        Printf.sprintf
          "predictor key shared by %d site(s) with disagreeing lifetime \
           classes: %s vs %s"
          (List.length ky.ky_sites)
          (describe src pf.pf_sites.(s) hists.(2 * j))
          (describe src pf.pf_sites.(l) hists.((2 * j) + 1))
      in
      match predicted_short with
      | Some e ->
          make ~rule:"chain-collision-mispredict" ~severity:Error
            ~event:ky.ky_first_event
            ~site:(Lifetime.Portable.to_string ky.ky_key)
            (Printf.sprintf
               "%s — the model predicts this key short-lived (%d of %d \
                training objects short), so the long-lived site's \
                allocations are guaranteed mispredicts"
               base e.Lifetime.Model.short_count e.Lifetime.Model.count)
      | None ->
          make ~rule:"chain-collision" ~severity:Warning
            ~event:ky.ky_first_event
            ~site:(Lifetime.Portable.to_string ky.ky_key)
            base)
    clashes
