"""Names, units and directions of the benchmark's metrics; BENCHMARK.json
lists the same.  Imports no engine code."""

# End-to-end metrics of an untraced run: name -> (unit, better).
END_TO_END = {
    "jobs_per_s": ("1/s", "higher"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Per-layer metrics of the traced run.  Times are self times, except
# linalg.farkas_s, the Farkas LP's inclusive time: the row reductions it
# triggers also count in linalg.rref_s.
PER_LAYER = {
    "cuts.enumerate_s": ("s", "lower"),
    "cuts.atoms": ("count", "lower"),
    "cuts.closure_s": ("s", "lower"),
    "cuts.lattice_elements": ("count", "lower"),
    "posets.mobius_s": ("s", "lower"),
    "posets.mobius_calls": ("count", "lower"),
    "digraphs.rank_s": ("s", "lower"),
    "digraphs.rank_calls": ("count", "lower"),
    "nl.self_s": ("s", "lower"),
    "digraphs.predicate_s": ("s", "lower"),
    "digraphs.predicate_calls": ("count", "lower"),
    "oracles.enumerate_s": ("s", "lower"),
    "oracles.candidates": ("count", "lower"),
    "oracles.count_calls": ("count", "lower"),
    "oracles.predicate_cache_hits": ("count", "higher"),
    "oracles.predicate_cache_misses": ("count", "lower"),
    "oracles.colorings_s": ("s", "lower"),
    "oracles.colorings_candidates": ("count", "lower"),
    "polynomials.interpolate_s": ("s", "lower"),
    "linalg.rref_s": ("s", "lower"),
    "linalg.rref_calls": ("count", "lower"),
    "linalg.farkas_s": ("s", "lower"),
    "linalg.farkas_calls": ("count", "lower"),
    "linalg.solve_calls": ("count", "lower"),
    "matroids.enumerate_s": ("s", "lower"),
    "matroids.candidates": ("count", "lower"),
    "matroids.predicate_cache_hits": ("count", "higher"),
    "matroids.predicate_cache_misses": ("count", "lower"),
    "catalog.build_s": ("s", "lower"),
    "job.unattributed_s": ("s", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
    "trace.untraced_jobs_per_s": ("1/s", "higher"),
    "trace.overhead_pct": ("%", "lower"),
}
