"""Names, units and directions of the metrics the benchmark prints.

BENCHMARK.json lists the same metrics; test_bench.py checks that they agree.
"""

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]

# (name, unit, better); see layers.py
PER_LAYER = [
    ("pencil.mode_spectral_data.calls", "count", "lower"),
    ("pencil.mode_spectral_data.self_s", "s", "lower"),
    ("pencil.transverse_min_eigenvalue.calls", "count", "lower"),
    ("pencil.transverse_min_eigenvalue.self_s", "s", "lower"),
    ("pencil.assemble.calls", "count", "lower"),
    ("pencil.assemble.self_s", "s", "lower"),
    ("pencil.mode_cache_bytes", "bytes", "lower"),
    ("pencil.rank_one_largest.calls", "count", "lower"),
    ("pencil.rank_one_largest.rows", "count", "lower"),
    ("pencil.rank_one_largest.self_s", "s", "lower"),
    ("pencil.largest_eigenpair.calls", "count", "lower"),
    ("pencil.largest_eigenpair.self_s", "s", "lower"),
    ("spectrum.modes_enumerated", "count", "lower"),
    ("spectrum.k_max", "1/L", "lower"),
    ("spectrum.extend_to.calls", "count", "lower"),
    ("spectrum.enumerate_modes.self_s", "s", "lower"),
    ("spectrum.max_with_argmax.calls", "count", "lower"),
    ("spectrum.max_with_argmax.self_s", "s", "lower"),
    ("spectrum.max_with_argmax.solved_ratio", "ratio", "lower"),
    ("spectrum.alpha_value.calls", "count", "lower"),
    ("spectrum.alpha_value.self_s", "s", "lower"),
    ("spectrum.certificate.calls", "count", "lower"),
    ("spectrum.freeze.self_s", "s", "lower"),
    ("fixedpoint.solve_lambda.calls", "count", "lower"),
    ("fixedpoint.solve_lambda.self_s", "s", "lower"),
    ("fixedpoint.f_evals_per_solve", "count", "lower"),
    ("fixedpoint.bracket_steps", "count", "lower"),
    ("fixedpoint.solve_mode_lambda.calls", "count", "lower"),
    ("fixedpoint.solve_mode_lambda.self_s", "s", "lower"),
    ("oracle.dispersion_root.calls", "count", "lower"),
    ("oracle.dispersion_root.self_s", "s", "lower"),
    ("oracle.determinant.calls", "count", "lower"),
    ("oracle.determinant.self_s", "s", "lower"),
    ("oracle.determinants_per_root", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
]
