"""Per-layer metrics of the traced run: spans, hooks, and their reduction.

Every public function of the four solver layers is a span (see tracer.py).
The hooks below count work at the same boundaries where a span alone cannot:
rows handed to the batched secular solve, rows a pruned maximum had
available, fixed-point evaluations per solve, bracket steps, the largest mode
set enumerated, and the bytes of the dense per-mode cache.

A metric whose function no longer exists reads 0, and the hooks read
attributes with defaults, so the metric list stays valid when a layer is
rewritten or removed.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer

PACKAGE = "rtgrowth"
LAYERS = ("pencil", "spectrum", "fixedpoint", "oracle")

MAX_WITH_ARGMAX = "spectrum.FrozenModeSet.max_with_argmax"
SOLVE_LAMBDA = "fixedpoint.solve_lambda"

# metric prefix -> span name; each gives <prefix>.calls and <prefix>.self_s
SPANS = {
    "pencil.mode_spectral_data": "pencil.mode_spectral_data",
    "pencil.transverse_min_eigenvalue": "pencil.transverse_min_eigenvalue",
    "pencil.assemble": "pencil.assemble",
    "pencil.rank_one_largest": "pencil.rank_one_largest",
    "pencil.largest_eigenpair": "pencil.largest_eigenpair",
    "spectrum.enumerate_modes": "spectrum.enumerate_modes",
    "spectrum.extend_to": "spectrum.FrozenModeSet.extend_to",
    "spectrum.max_with_argmax": MAX_WITH_ARGMAX,
    "spectrum.alpha_value": "spectrum.FrozenModeSet.alpha_value",
    "spectrum.certificate": "spectrum.FrozenModeSet.certificate",
    "spectrum.freeze": "spectrum.FrozenModeSet.freeze",
    "fixedpoint.solve_lambda": SOLVE_LAMBDA,
    "fixedpoint.solve_mode_lambda": "fixedpoint.solve_mode_lambda",
    "oracle.dispersion_root": "oracle.dispersion_root",
    "oracle.determinant": "oracle.determinant",
}


def _cache_bytes(frozen) -> int:
    """Bytes of the dense per-mode rows a mode set holds (rows x n_dofs x 2 x 8)."""
    arrays = (getattr(frozen, name, None) for name in ("_lam", "_z2"))
    return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


def _peak(tracer: Tracer, key: str, value: float) -> None:
    tracer.counters[key] = max(tracer.counters[key], value)


def _rank_one_largest(tracer, args, result):
    rows = np.atleast_2d(args[0]).shape[0] if args else 0
    tracer.counters["rank_one_largest.rows"] += rows
    if tracer.parent() == MAX_WITH_ARGMAX:
        tracer.counters["max_with_argmax.rows_solved"] += rows


def _max_with_argmax(tracer, args, result):
    tracer.counters["max_with_argmax.rows_available"] += len(getattr(args[0], "modes", ()))


def _alpha_max(tracer, args, result):
    if tracer.active(SOLVE_LAMBDA):
        tracer.counters["f_evals"] += 1


def _solve_lambda(tracer, args, result):
    tracer.counters["solves_returned"] += 1
    tracer.counters["bracket_steps"] += len(getattr(result, "bracket_history", ()))


def _enumerate_modes(tracer, args, result):
    _peak(tracer, "modes_enumerated", len(getattr(result, "magnitudes", ())))
    _peak(tracer, "k_max", float(getattr(result, "k_max", 0.0)))


def _freeze(tracer, args, result):
    _peak(tracer, "mode_cache_bytes", _cache_bytes(result))


def _extend_to(tracer, args, result):
    _peak(tracer, "mode_cache_bytes", _cache_bytes(args[0]))


HOOKS = {
    "pencil.rank_one_largest": _rank_one_largest,
    MAX_WITH_ARGMAX: _max_with_argmax,
    "spectrum.FrozenModeSet.alpha_max": _alpha_max,
    SOLVE_LAMBDA: _solve_lambda,
    "spectrum.enumerate_modes": _enumerate_modes,
    "spectrum.FrozenModeSet.freeze": _freeze,
    "spectrum.FrozenModeSet.extend_to": _extend_to,
}


def make_tracer() -> Tracer:
    return Tracer(PACKAGE, LAYERS, HOOKS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run_s: float, run_root_s: float) -> dict[str, float]:
    """Per-layer metrics except trace.overhead_s, which needs an untraced run.

    Counts and self times cover set-up and ops of the traced process; the
    coverage figures cover the ops only (`run_root_s` is the time spent inside
    top-level spans between the first op's start and the last op's end).
    """
    c = tracer.counters
    out: dict[str, float] = {}
    for prefix, span in SPANS.items():
        out[f"{prefix}.calls"] = tracer.calls[span]
        out[f"{prefix}.self_s"] = tracer.self_s[span]
    out["pencil.mode_cache_bytes"] = c["mode_cache_bytes"]
    out["pencil.rank_one_largest.rows"] = c["rank_one_largest.rows"]
    out["spectrum.modes_enumerated"] = c["modes_enumerated"]
    out["spectrum.k_max"] = c["k_max"]
    out["spectrum.max_with_argmax.solved_ratio"] = _ratio(
        c["max_with_argmax.rows_solved"], c["max_with_argmax.rows_available"]
    )
    out["fixedpoint.f_evals_per_solve"] = _ratio(c["f_evals"], tracer.calls[SOLVE_LAMBDA])
    out["fixedpoint.bracket_steps"] = _ratio(c["bracket_steps"], c["solves_returned"])
    out["oracle.determinants_per_root"] = _ratio(
        tracer.calls["oracle.determinant"], tracer.calls["oracle.dispersion_root"]
    )
    out["trace.unattributed_s"] = run_s - run_root_s
    out["trace.coverage"] = _ratio(run_root_s, run_s)
    return {k: float(v) for k, v in out.items()}
