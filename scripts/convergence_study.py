#!/usr/bin/env python3
"""Refinement study behind the pinned tolerances.

Tracks, for the reference case at k = 1:
  * per-mode alpha under mesh doubling (mode_alpha: fourth-order until the
    rounding floor of the banded solves, which grows like N^4 * eps),
  * the boundary-value residual of the global solve at mesh 2N.

Usage: python scripts/convergence_study.py [--max-n 128]
"""

import argparse

from rtgrowth import Discretization, FluidConfig, solve_lambda
from rtgrowth.fixedpoint import bvp_residual
from rtgrowth.pencil import assemble, mode_alpha
from rtgrowth.spectrum import split_bound

REFERENCE = FluidConfig(
    rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
    g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=128)
    args = parser.parse_args()

    print("per-mode alpha at k = 1, s = 1:")
    prev = None
    upper = split_bound(REFERENCE, 1.0)(1.0)
    n = 8
    while n <= args.max_n:
        alpha = mode_alpha(assemble(1.0, REFERENCE, Discretization(n)), 1.0, upper)
        step = "" if prev is None else f"  increment {alpha - prev:+.3e}"
        print(f"  N={n:<4d} alpha={alpha:.14f}{step}")
        prev = alpha
        n *= 2

    print("\nglobal solve and boundary-value residual:")
    n = 16
    while n <= args.max_n:
        res = solve_lambda(REFERENCE, Discretization(n))
        print(f"  N={n:<4d} lambda={res.lam:.10f} argmax_k={res.argmax_k} "
              f"bvp_residual={bvp_residual(res, REFERENCE):.3e}")
        n *= 2


if __name__ == "__main__":
    main()
