#!/usr/bin/env python3
"""Refinement study behind the pinned tolerances.

Tracks, for the reference case at k = 1:
  * per-mode alpha under mesh doubling (mode_alpha: fourth-order until the
    rounding floor of the banded solves, which grows like N^4 * eps),
  * the global solve's eigenprofile against the exact one of the dispersion
    relation at its mode's root (nodal values and slopes, psi(0) = 1), with
    the observed order of each doubling.

Usage: python scripts/convergence_study.py [--max-n 128]
"""

import argparse
import math

import cli_outputs
from rtgrowth import Discretization, FluidConfig, solve_lambda, upper_bound_m
from rtgrowth.oracle import dispersion_root, profile_error
from rtgrowth.pencil import assemble, mode_alpha

REFERENCE = FluidConfig(**cli_outputs.REFERENCE)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=128)
    args = parser.parse_args()

    print("per-mode alpha at k = 1, s = 1:")
    prev = None
    n = 8
    while n <= args.max_n:
        alpha = mode_alpha(assemble(1.0, REFERENCE, Discretization(n)), 1.0)
        step = "" if prev is None else f"  increment {alpha - prev:+.3e}"
        print(f"  N={n:<4d} alpha={alpha:.14f}{step}")
        prev = alpha
        n *= 2

    print("\nglobal solve and its eigenprofile error (values, slopes):")
    scan_max = 1.05 * upper_bound_m(REFERENCE)
    prev = None
    n = 16
    while n <= args.max_n:
        res = solve_lambda(REFERENCE, Discretization(n))
        root = dispersion_root(res.argmax_k, REFERENCE, scan_max)
        errors = profile_error(res.eigenprofile, res.argmax_k, root, REFERENCE)
        rate = ""
        if prev is not None and prev[0] == res.argmax_k:
            rate = "  rate " + " ".join(f"{math.log2(a / b):.2f}" for a, b in zip(prev[1], errors))
        print(f"  N={n:<4d} lambda={res.lam:.10f} argmax_k={res.argmax_k} "
              f"profile_error={errors[0]:.3e} {errors[1]:.3e}{rate}")
        prev = res.argmax_k, errors
        n *= 2


if __name__ == "__main__":
    main()
