"""Compare the command-line output of a base commit with the working tree.

    python3 tools/cli_diff.py --base HEAD
    python3 tools/cli_diff.py --base HEAD~1 --workdir /tmp/diff

Run from the root of the repository.  The base is exported with ``git
archive`` (as in ``bench_pair.py``) into ``--workdir`` (default: a temporary
directory, deleted at the end).  In both trees, every command of ``COMMANDS``
runs as ``python3 -m coxgrowth.cli ... --json --no-meta``, every command of
``HUMAN`` as ``python3 -m coxgrowth.cli ...`` in human mode, and every script
of ``DEMOS`` as it is, each with that tree's ``src`` first on ``PYTHONPATH``.
The ``growth --file`` commands read diagram files of ``FILES``, written into
the temporary directory and passed to both sides by absolute path.  Their
stdout bytes, stderr bytes and exit codes are compared, so the ``error:`` and
usage lines of ``EXPECTED_ERRORS`` are checked too, and a command that exits
nonzero on the base counts as a difference, unless it is in
``EXPECTED_ERRORS``: a command that fails on both sides checks nothing.
The lists make 57 runs; the human-mode ones cover the ``[name]`` header, the
``Star(...)`` and ``H(...)`` labels of ``coxtrans`` and ``spectra --table1``,
and the rendering of the ``verify prop52`` report and of the polygons that
``salem --search`` finds.
Each difference is printed, and the tool exits 1 if there is any, 0
otherwise.
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
      ["[3,5,3]", "[4,3^18]", "[4,3,5]", "[(3,3,4)]", "[(3^19,4)]", "[(3^18,4,5)]",
       "[5,3,3,3]", "[3,4,3,3]",  # H4 and F4 sets
       "[(3,∞,4,infinity)]"]),  # the spellings of infinity
    ["growth", "--polygon", "2,3,7"],
    ["classify", "--poly", LEHMER],
    ["classify", "--poly", DEGREE_160],
    ["classify", "--poly", REPEATED_FACTORS],
    ["classify", f"--poly={LEHMER_ANTI}"],  # the one-token form, which every commit reads
    ["salem", "--gap"],
    ["salem", "--gap", "--list", "src/coxgrowth/data/mini_salem_list.csv"],
    ["salem", "--search", "--target", LEHMER],
]

# Commands that must fail, with the same stdout, stderr and exit code on both sides
EXPECTED_ERRORS = [
    ["growth", "--symbol", "[3^20]"],  # rank 21, above the Steinberg rank bound
    ["growth", "--symbol", "[3^" + "9" * 5000 + "]"],  # a count past int()'s 4300 digits
    ["classify", "--poly", "1," + "9" * 5000 + ",1"],  # a coefficient past the same limit
    ["coxtrans", "--star", "2,3," + "9" * 5000],  # an arm length past it
    ["coxtrans", "--hgraph", "2,1191,7"],  # 1201 vertices, above the tree vertex bound
    ["growth", "--symbol", "[3,4.0]"],  # a weight that is not an integer
    ["salem", "--search"],  # a search with no target
]

# Diagram files for growth --file, by name: affine E8 (the star with arms of
# 1, 2 and 5 vertices) with a weight-4 pendant at the end of its long arm, and
# a 4-cycle with infinity in each of its three spellings
FILES = {
    "affine_e8_pendant4.txt": "rank 10\n1 2 3\n1 3 3\n3 4 3\n1 5 3\n5 6 3\n6 7 3\n7 8 3\n8 9 3\n9 10 4\n",
    "infinity_spellings.txt": "rank 4\n1 2 3\n2 3 inf\n3 4 ∞\n1 4 infinity\n",
}

# Commands run in human mode too, without --json: verify second-minimal's
# details hold tuples, each of the others walks nested dicts and lists,
# spectra --table1 and coxtrans --star print the Star(...) and H(...) labels,
# and salem --search prints the parameter tuples of its matches
HUMAN = [["verify", "second-minimal"], ["verify", "table1"], ["verify", "prop52"],
         ["growth", "--symbol", "[3,5,3]"], ["salem", "--gap"], ["salem", "--search", "--target", LEHMER],
         ["coxtrans", "--star", "2,3,7"], ["spectra", "--table1"]]

DEMOS = ["growth_rates_tour.py", "salem_gap_demo.py", "tree_spectra_story.py"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workdir", help="where to export the base commit")
    args = p.parse_args(argv)
    change = Path.cwd()
    differences = 0
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        base = Path(args.workdir or tmp) / "base"
        if base.exists():
            p.error(f"{base} already exists")
        export(change, args.base, base)
        commands = [*COMMANDS, *EXPECTED_ERRORS]
        for name, text in FILES.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8")
            commands.append(["growth", "--file", str(Path(tmp) / name)])
        runs = [(" ".join(cmd), ["-m", "coxgrowth.cli", *cmd, "--json", "--no-meta"], cmd in EXPECTED_ERRORS)
                for cmd in commands]
        runs += [(" ".join(cmd) + " (human)", ["-m", "coxgrowth.cli", *cmd], False) for cmd in HUMAN]
        runs += [(f"demos/{demo}", [f"demos/{demo}"], False) for demo in DEMOS]
        for name, cmd, expected_error in runs:
            (*base_out, base_code), (*out, code) = run_python(base, cmd), run_python(change, cmd)
            same = base_out == out and base_code == code and (base_code != 0) == expected_error
            differences += not same
            print(f"{'same' if same else 'DIFFERS':8} exit {base_code} -> {code}  {name}", flush=True)
    print(f"{differences} of {len(runs)} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
