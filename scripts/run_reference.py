#!/usr/bin/env python3
"""Solve the reference two-layer case and cross-check against the oracle.

Usage: python scripts/run_reference.py [--resolution N] [--theta-fraction F]
"""

import argparse
import json
import math

from rtgrowth import Discretization, FluidConfig, solve_lambda, theta_critical
from rtgrowth.oracle import compare_modes, profile_error

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

    ks = sorted({1.0, math.sqrt(2.0), result.argmax_k})
    rows = compare_modes(cfg, ks, disc)
    root = rows[ks.index(result.argmax_k)].lambda_oracle
    values, slopes = profile_error(result.eigenprofile, result.argmax_k, root, cfg)
    print(f"eigenprofile error against the exact profile (psi(0) = 1): "
          f"values {values:.3e}, slopes {slopes:.3e}")
    print("\nper-mode cross-check (variational vs dispersion determinant):")
    for row in rows:
        print(f"  k={row.k:<10.6f} variational={row.lambda_variational} "
              f"oracle={row.lambda_oracle} rel_diff={row.rel_diff}")


if __name__ == "__main__":
    main()
