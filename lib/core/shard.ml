(** Data-parallel run of a pass over one sharded ([.lpt] v3) trace.

    [Parallel.map_chunks] fans the trace's chunk index over the domain
    pool as balanced contiguous ranges; each worker folds its range
    (seeded from the range's entry counters and carry-in set) and the
    pass's merge combines the parts in range order, against the whole
    trace's source — the same code a sequential run executes on one
    range, so the result is identical at any domain count.
    [LPALLOC_DOMAINS=1] degrades to a sequential chunk walk, which is
    how the CI gate checks byte-identical output at 1 and 4 domains. *)

let run ?domains (p : _ Lp_trace.Pass.t) sh =
  p.merge (Lp_trace.Sharded.source sh)
    (Parallel.map_chunks ?domains ~n_chunks:(Lp_trace.Sharded.n_chunks sh)
       (fun ~first ~count ->
         Lp_trace.Pass.run_range p (Lp_trace.Sharded.range sh ~first ~count)))

let train ?domains ?config sh = run ?domains (Train.pass ?config ()) sh
