"""The benchmark workloads: inputs from a seed, set-up, one op, and gates.

Each workload turns a seed into a list of op inputs, prepares whatever a user
of that call prepares before the first op, runs one op per input, and checks
every op's output against tolerances. The solver sees only the generated
inputs, never the seed.

- growth-ref: one `solve_lambda` per op on the reference config, each op
  building its own mode cache (the write path of the cache).
- sweep-dense: one `solve_lambda(..., frozen=fm)` per theta fraction on a
  viscous config, against one mode set sized at theta = 0 and locked during
  set-up, as `sweep_theta` does (the read path of the cache).
- oracle-modes: one `oracle.compare_modes` per op; no mode set is built.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from rtgrowth import analysis, fixedpoint, oracle
from rtgrowth.model import FluidConfig, theta_critical, upper_bound_m, validate_config
from rtgrowth.pencil import Discretization

REFERENCE = FluidConfig(
    rho_plus=2.0, rho_minus=1.0, mu_plus=0.1, mu_minus=0.1,
    g=9.8, theta=0.0, L1=1.0, L2=1.0, h_plus=1.0, h_minus=1.0,
)
VISCOUS = replace(REFERENCE, mu_plus=1.0, mu_minus=1.0)
TOL_FP = 1e-8

# Growth rate of REFERENCE at theta = 0 (maximizer k = 5), per resolution.
REFERENCE_LAMBDA = {32: 2.4381682020, 64: 2.43817361}


def oracle_tolerance(n: int) -> float:
    """Relative oracle tolerance at N elements per layer, as `verify` uses."""
    return 5e-5 if n >= 128 else min(1e-2, 5e-5 * (128.0 / n) ** 4)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class GrowthRef:
    """Headline call: Lambda of the reference config at theta = f * theta_c."""

    name = "growth-ref"

    def __init__(self, resolution: int):
        self.cfg = validate_config(REFERENCE)
        self.disc = Discretization(resolution)
        self.theta_c = theta_critical(self.cfg)

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list[float]:
        # f on a grid of [0, 0.5] so that f = 0, which has a pinned answer, can be drawn.
        return [int(j) / 20.0 for j in rng.integers(0, 11, n_ops)]

    def prepare(self) -> None:
        pass

    def op(self, f: float) -> dict:
        res = fixedpoint.solve_lambda(
            self.cfg.with_theta(f * self.theta_c), self.disc, tol_fp=TOL_FP
        )
        out = res.to_json_dict()
        table = getattr(getattr(res, "alpha_at_lambda", None), "table", None)
        return {
            "f": f,
            "lambda": out["lambda"],
            "branch": out["branch"],
            "argmax_k": out["argmax_k"],
            "modes": len(table.k) if table is not None else None,
        }

    def gates(self, records: list[dict | None]) -> list[str | None]:
        n = self.disc.elements_per_layer
        tol = oracle_tolerance(n)
        out = []
        for r in records:
            if r is None:
                out.append(None)
                continue
            cfg = self.cfg.with_theta(r["f"] * self.theta_c)
            m = upper_bound_m(cfg)
            if not r["lambda"] <= m * (1.0 + 1e-6):
                out.append(f"lambda {r['lambda']!r} above m {m!r}")
            elif r["branch"] != "longitudinal":
                out.append(f"branch {r['branch']!r}")
            elif r["f"] == 0.0 and n in REFERENCE_LAMBDA and not (
                abs(r["lambda"] - REFERENCE_LAMBDA[n]) <= TOL_FP
                and abs(r["argmax_k"] - 5.0) <= 1e-12
            ):
                out.append(
                    f"f = 0: lambda {r['lambda']!r} at k {r['argmax_k']!r}, "
                    f"expected {REFERENCE_LAMBDA[n]!r} at k 5"
                )
            else:
                root = oracle.dispersion_root(r["argmax_k"], cfg, 1.05 * m)
                if root is None or not _rel(r["lambda"], root) <= tol:
                    out.append(f"oracle root {root!r} vs lambda {r['lambda']!r} (tol {tol!r})")
                else:
                    out.append(None)
        return out

    def describe(self, records: list[dict | None]) -> dict:
        modes = [r["modes"] for r in records if r is not None and r["modes"] is not None]
        return {"modes": max(modes) if modes else None, "solves": len(records)}


class SweepDense:
    """Theta sweep on one locked mode set of a viscous config."""

    name = "sweep-dense"

    def __init__(self, resolution: int):
        self.cfg = validate_config(VISCOUS)
        self.disc = Discretization(resolution)
        self.theta_c = theta_critical(self.cfg)
        self.frozen = None

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list[float]:
        # One draw in each of n_ops equal strata of [0, 0.99): sorted, distinct,
        # and spread evenly, so every seed covers the whole range alike.
        return list(0.99 * (np.arange(n_ops) + rng.random(n_ops)) / n_ops)

    def prepare(self) -> None:
        self.frozen, _ = analysis._sized_mode_set(self.cfg, self.disc, TOL_FP, 1)

    def op(self, f: float) -> dict:
        res = fixedpoint.solve_lambda(
            self.cfg.with_theta(f * self.theta_c), self.disc, tol_fp=TOL_FP, frozen=self.frozen
        )
        return {"f": f, "lambda": res.to_json_dict()["lambda"]}

    def gates(self, records: list[dict | None]) -> list[str | None]:
        out = []
        previous = None
        for r in records:
            if r is None:
                out.append(None)
                continue
            m = upper_bound_m(self.cfg.with_theta(r["f"] * self.theta_c))
            if not r["lambda"] <= m:
                out.append(f"lambda {r['lambda']!r} above m {m!r}")
            elif previous is not None and not r["lambda"] < previous["lambda"]:
                out.append(
                    f"lambda {r['lambda']!r} at f {r['f']!r} not below "
                    f"{previous['lambda']!r} at f {previous['f']!r}"
                )
            else:
                out.append(None)
            previous = r
        return out

    def describe(self, records: list[dict | None]) -> dict:
        modes = getattr(self.frozen, "modes", None)
        return {"modes": None if modes is None else len(modes), "solves": len(records) + 1}


class OracleModes:
    """Per-mode variational growth rate against the dispersion determinant."""

    name = "oracle-modes"

    def __init__(self, resolution: int):
        self.cfg = validate_config(REFERENCE)
        self.disc = Discretization(resolution)
        # Distinct lattice magnitudes in (0, 20] for L1 = L2 = 1: 145 modes.
        squares = {i * i + j * j for i in range(21) for j in range(21)}
        self.magnitudes = [math.sqrt(q) for q in sorted(squares) if 0 < q <= 400]

    def inputs(self, rng: np.random.Generator, n_ops: int) -> list[float]:
        # Whole seeded permutations of the magnitudes, so every mode is covered.
        ks: list[float] = []
        while len(ks) < n_ops:
            ks.extend(self.magnitudes[i] for i in rng.permutation(len(self.magnitudes)))
        return ks[:n_ops]

    def prepare(self) -> None:
        pass

    def op(self, k: float) -> dict:
        (row,) = oracle.compare_modes(self.cfg, [k], self.disc)
        return {
            "k": k,
            "lambda_variational": row.lambda_variational,
            "lambda_oracle": row.lambda_oracle,
        }

    def gates(self, records: list[dict | None]) -> list[str | None]:
        tol = oracle_tolerance(self.disc.elements_per_layer)
        out = []
        for r in records:
            if r is None:
                out.append(None)
                continue
            lam_v, lam_o = r["lambda_variational"], r["lambda_oracle"]
            if (lam_v is None) != (lam_o is None):
                out.append(f"stability differs at k {r['k']!r}: {lam_v!r} vs {lam_o!r}")
            elif lam_v is not None and not _rel(lam_v, lam_o) <= tol:
                out.append(f"k {r['k']!r}: {lam_v!r} vs oracle {lam_o!r} (tol {tol!r})")
            else:
                out.append(None)
        return out

    def describe(self, records: list[dict | None]) -> dict:
        return {"modes": len(self.magnitudes), "solves": len(records)}


WORKLOADS = {w.name: w for w in (GrowthRef, SweepDense, OracleModes)}
