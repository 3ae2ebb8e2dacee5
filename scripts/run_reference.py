#!/usr/bin/env python3
"""Solve the reference two-layer case and cross-check against the oracle.

Usage: python scripts/run_reference.py [--resolution N] [--theta-fraction F]
"""

import argparse
import json
import math

from rtgrowth import Discretization, FluidConfig, solve_lambda, theta_critical
from rtgrowth.fixedpoint import bvp_residual
from rtgrowth.oracle import compare_modes

REFERENCE = FluidConfig(
    rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
    g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--resolution", type=int, default=64)
    parser.add_argument("--theta-fraction", type=float, default=0.0,
                        help="surface tension as a fraction of theta_c")
    args = parser.parse_args()

    cfg = REFERENCE.with_theta(args.theta_fraction * theta_critical(REFERENCE))
    disc = Discretization(args.resolution)
    result = solve_lambda(cfg, disc)
    print(json.dumps(result.to_json_dict(), indent=2))
    print(f"boundary-value residual at 2N: {bvp_residual(result, cfg):.3e}")

    ks = sorted({1.0, math.sqrt(2.0), result.argmax_k})
    print("\nper-mode cross-check (variational vs dispersion determinant):")
    for row in compare_modes(cfg, ks, disc):
        print(f"  k={row.k:<10.6f} variational={row.lambda_variational} "
              f"oracle={row.lambda_oracle} rel_diff={row.rel_diff}")


if __name__ == "__main__":
    main()
