#!/usr/bin/env python3
"""Write a fixed set of command-line outputs and exit codes into one directory.

Usage: python scripts/cli_outputs.py OUTDIR
       python scripts/cli_outputs.py --compare DIR_A DIR_B

Runs the tool of the tree the script sits in (its src/) on four configs:
reference (rho 2/1, mu 0.1/0.1, g 9.8, L = h = 1, theta 0), viscous
(mu 1/1), contrast (rho 5.2/0.2, mu 0.1/5, g 20, L = 2, h = 0.3) and
anisotropic (L2 = 1.7, h- = 0.5, mu- = 0.2, theta = 3). On each it runs
`growth --mode-table` at N = 32 and 128; `sweep-theta` at N = 64 as CSV with
its report, as JSON, and on the grid 0.3,0.6,0.95; `verify` at N = 64 with
its stdout and its JSON; `alpha-curve --s-grid 0.1,0.3,1,3` at N = 32 with
and without `--kmax 6`, and as JSON; and `oracle-compare` at N = 32 as CSV
and as JSON. Every run's exit
code goes to OUTDIR/exit_codes.txt, and the stderr of a failed run to
<name>.stderr beside its outputs. Outputs are byte-stable, so comparing two
trees is one `diff -r` of their OUTDIRs.

--compare reads two OUTDIRs and prints one line per file: the count of
numbers that changed from DIR_A to DIR_B and the largest relative change
|b - a| / |a| among them (inf where a is 0). It exits 1 on any difference
that is not a number: a file in one directory only, a changed exit code,
field name, branch label or PASS/FAIL word, or a number that appears or
vanishes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

REFERENCE = {
    "rho_plus": 2.0, "rho_minus": 1.0, "mu_plus": 0.1, "mu_minus": 0.1, "g": 9.8,
    "theta": 0.0, "L1": 1.0, "L2": 1.0, "h_plus": 1.0, "h_minus": 1.0,
}
CONFIGS = {
    "reference": REFERENCE,
    "viscous": {**REFERENCE, "mu_plus": 1.0, "mu_minus": 1.0},
    "contrast": {
        **REFERENCE, "rho_plus": 5.2, "rho_minus": 0.2, "mu_plus": 0.1, "mu_minus": 5.0,
        "g": 20.0, "L1": 2.0, "L2": 2.0, "h_plus": 0.3, "h_minus": 0.3,
    },
    "anisotropic": {**REFERENCE, "L2": 1.7, "h_minus": 0.5, "mu_minus": 0.2, "theta": 3.0},
}

# (name, command-line arguments, stdout file or None); {out} is the config's
# output directory. Every cli.COMMANDS entry appears, and each command that
# reads --format runs in both formats (tests/test_scripts.py).
RUNS = [
    ("growth_32", ["growth", "--resolution", "32", "--out", "{out}/growth_32.json",
                   "--mode-table", "{out}/growth_32.modes.csv"], None),
    ("growth_128", ["growth", "--resolution", "128", "--out", "{out}/growth_128.json",
                    "--mode-table", "{out}/growth_128.modes.csv"], None),
    ("sweep_csv", ["sweep-theta", "--resolution", "64", "--out", "{out}/sweep.csv"], None),
    ("sweep_json", ["sweep-theta", "--resolution", "64", "--format", "json",
                    "--out", "{out}/sweep.json"], None),
    ("sweep_grid", ["sweep-theta", "--resolution", "64", "--theta-grid", "0.3,0.6,0.95",
                    "--out", "{out}/sweep_grid.csv"], None),
    ("verify", ["verify", "--resolution", "64", "--out", "{out}/verify.json"], "verify.stdout"),
    ("alpha_curve", ["alpha-curve", "--resolution", "32", "--s-grid", "0.1,0.3,1,3",
                     "--out", "{out}/alpha_curve.csv"], None),
    ("alpha_curve_kmax", ["alpha-curve", "--resolution", "32", "--s-grid", "0.1,0.3,1,3",
                          "--kmax", "6", "--out", "{out}/alpha_curve_kmax.csv"], None),
    ("alpha_curve_json", ["alpha-curve", "--resolution", "32", "--s-grid", "0.1,0.3,1,3",
                          "--format", "json", "--out", "{out}/alpha_curve.json"], None),
    ("oracle_compare", ["oracle-compare", "--resolution", "32",
                        "--out", "{out}/oracle_compare.csv"], None),
    ("oracle_compare_json", ["oracle-compare", "--resolution", "32", "--format", "json",
                             "--out", "{out}/oracle_compare.json"], None),
]


# a number standing alone: not part of a name such as growth_32, and with the
# spellings of infinity and NaN that repr and json write
NUMBER = re.compile(r"(?<![\w.])(-?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan|Infinity|NaN))(?!\w)")


def relative_change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    change = abs(b - a) / abs(a) if a else math.inf
    return math.inf if math.isnan(change) else change


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print the moved numbers of every file of two OUTDIRs; 1 if anything
    else differs, else 0."""
    names = sorted({p.relative_to(d) for d in (dir_a, dir_b) for p in d.rglob("*") if p.is_file()})
    status = 0
    for name in names:
        if not ((dir_a / name).is_file() and (dir_b / name).is_file()):
            print(f"{name}: in one directory only")
            status = 1
            continue
        text_a, text_b = (dir_a / name).read_text(), (dir_b / name).read_text()
        parts_a, parts_b = NUMBER.split(text_a), NUMBER.split(text_b)
        # an exit code is a number in the text, and never a moved digit
        moved_code = name.name == "exit_codes.txt" and text_a != text_b
        if moved_code or len(parts_a) != len(parts_b) or parts_a[0::2] != parts_b[0::2]:
            print(f"{name}: differs in more than its numbers")
            status = 1
            continue
        changes = [relative_change(float(a), float(b)) for a, b in zip(parts_a[1::2], parts_b[1::2]) if a != b]
        print(f"{name}: {len(changes)} changed, largest relative change {max(changes, default=0.0):.3g}")
    return status


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", nargs="?", help="directory to write the outputs into")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"), help="compare two OUTDIRs instead")
    args = parser.parse_args()
    if (args.outdir is None) == (args.compare is None):
        parser.error("give either OUTDIR or --compare DIR_A DIR_B")
    if args.compare:
        sys.exit(compare(*map(Path, args.compare)))

    # the runs' working directory is the tree's root, so their paths are absolute
    outdir = Path(args.outdir).resolve()
    codes = []
    for config, fields in CONFIGS.items():
        out = outdir / config
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.json").write_text(json.dumps(fields) + "\n")
        for name, argv, stdout in RUNS:
            proc = subprocess.run(
                [sys.executable, "-m", "rtgrowth.cli", argv[0], "--config", str(out / "config.json"),
                 *(a.format(out=out) for a in argv[1:])],
                cwd=ROOT, env=ENV, capture_output=True, text=True,
            )
            if stdout is not None:
                (out / stdout).write_text(proc.stdout)
            if proc.returncode != 0:
                (out / f"{name}.stderr").write_text(proc.stderr)
            codes.append(f"{config}/{name} {proc.returncode}")
            print(codes[-1], flush=True)
    (outdir / "exit_codes.txt").write_text("\n".join(codes) + "\n")


if __name__ == "__main__":
    main()
