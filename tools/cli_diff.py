"""Compare the command-line output of a base commit with the working tree.

    python3 tools/cli_diff.py --base HEAD
    python3 tools/cli_diff.py --base HEAD~1 --workdir /tmp/diff

Run from the root of the repository.  The base is exported with ``git
archive`` (as in ``bench_pair.py``) into ``--workdir`` (default: a temporary
directory, deleted at the end).  In both trees, every command of ``COMMANDS``
runs as ``python3 -m coxgrowth.cli ... --json --no-meta`` and every script of
``DEMOS`` as it is, each with that tree's ``src`` first on ``PYTHONPATH``.
Their stdout bytes and exit codes are compared; each difference is printed,
and the tool exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from bench_pair import DEGREE_160, LEHMER, export, run_python
from coxgrowth.intpoly import IntPoly, cyclotomic, parse_poly

# Lehmer's polynomial squared times Phi_12 (t + 1)^3 (t^2 - 3t + 1)^2: a repeated
# non-cyclotomic factor, so Yun's algorithm goes past its first gcd
REPEATED_FACTORS = (parse_poly(LEHMER) ** 2 * cyclotomic(12) * IntPoly([1, 1]) ** 3
                    * IntPoly([1, -3, 1]) ** 2).to_text()

# The star of 399 arms of 4 vertices (1198 vertices, under the tree vertex bound)
STAR_399 = "Star:" + ",".join(["4"] * 399)

# Lehmer's polynomial times t^2 - 1: anti-palindromic of even degree
LEHMER_ANTI = (parse_poly(LEHMER) * IntPoly([-1, 0, 1])).to_text()

COMMANDS = [
    *(["verify", check] for check in
      ["delta-phi", "second-minimal", "prop52", "theorem2", "table1", "chain-fig1"]),
    ["spectra", "--table1"],
    ["spectra", "--tree", "H:2,10,3"],
    ["spectra", "--tree", "Path:300"],
    ["spectra", "--tree", "Path:1200"],
    ["spectra", "--tree", "Star:2,3,600"],
    ["spectra", "--tree", "H:2,40,36"],
    ["verify", "prop52", "--rmax", "40", "--jmax", "40"],
    ["verify", "delta-phi", "--max-k", "6", "--max-p", "12"],
    ["verify", "theorem2", "--max-k", "6", "--max-p", "12"],
    ["coxtrans", "--hgraph", "2,8,3"],
    ["coxtrans", "--tree", "Star:2,3,8"],  # phi palindromic of odd degree
    ["coxtrans", "--tree", "Star:2,3,300"],
    ["coxtrans", "--tree", "Star:2,3,600"],
    ["coxtrans", "--tree", STAR_399],
    *(["growth", "--symbol", symbol] for symbol in
      ["[3,5,3]", "[4,3^18]", "[4,3,5]", "[(3,3,4)]", "[(3^19,4)]", "[(3^18,4,5)]"]),
    ["growth", "--polygon", "2,3,7"],
    ["classify", "--poly", LEHMER],
    ["classify", "--poly", DEGREE_160],
    ["classify", "--poly", REPEATED_FACTORS],
    ["classify", "--poly", LEHMER_ANTI],
    ["salem", "--gap"],
    ["salem", "--gap", "--list", "src/coxgrowth/data/mini_salem_list.csv"],
    ["salem", "--search", "--target", LEHMER],
]

DEMOS = ["growth_rates_tour.py", "salem_gap_demo.py", "tree_spectra_story.py"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workdir", help="where to export the base commit")
    args = p.parse_args(argv)
    change = Path.cwd()
    runs = [(" ".join(cmd), ["-m", "coxgrowth.cli", *cmd, "--json", "--no-meta"]) for cmd in COMMANDS]
    runs += [(f"demos/{demo}", [f"demos/{demo}"]) for demo in DEMOS]
    differences = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        base = Path(args.workdir or tmp) / "base"
        if base.exists():
            p.error(f"{base} already exists")
        export(change, args.base, base)
        for name, cmd in runs:
            (base_out, base_code), (out, code) = run_python(base, cmd), run_python(change, cmd)
            same = base_out == out and base_code == code
            differences += not same
            print(f"{'same' if same else 'DIFFERS':8} exit {base_code} -> {code}  {name}", flush=True)
    print(f"{differences} of {len(runs)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
