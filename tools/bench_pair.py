"""Benchmark a base commit against the working tree and write a BENCH file.

    python3 tools/bench_pair.py --base HEAD --seeds 61-70 --out BENCH_6.json
    python3 tools/bench_pair.py --base HEAD~1 --seeds 1,2,3 --workdir /tmp/pair

Run from the root of the repository.  ``--base`` is the commit to compare
against: ``HEAD`` while the change is uncommitted, its parent once it is
committed; the tool stops when the working tree does not differ from it.
The base is exported with ``git archive`` into ``--workdir`` (default: a
temporary directory, deleted at the end), which registers nothing in the
repository's ``.git``.  For every seed, ``python3 bench/run.py --all --seed S
--seconds T`` runs once in each checkout, alternating which side goes first
(base first on the first seed); ``bench/`` must be the same on both sides and
every run must exit 0.  Both sides keep bytecode under one new
``PYTHONPYCACHEPREFIX``, so neither reads a ``__pycache__`` it already had.
After the pair of a seed, each command of ``PROCESSES`` runs once per side as
a whole process, ``python3 -m coxgrowth.cli ... --json --no-meta`` with that
side's ``src`` first on ``PYTHONPATH``, the sides in the seed's order; its
wall time is recorded, and it must exit 0 with the same stdout on both sides.
Its degree-160 ``classify`` input is built with the working tree's
``coxgrowth.intpoly`` when the tool is imported.
One ``--workload W --trace 1`` run per side and workload W (on the first
seed, each stopping at W's fixed pass count) gives the count metrics in
``COUNTS``.

The output holds both commits, the Python version and CPU count, per workload
and end-to-end metric each side's median and quartiles (inclusive method)
with the number of pairs the change wins (ties count for neither side), every
raw value, the same for the wall time of each whole process, the count
metrics by workload, and the ``src/coxgrowth`` lines per module.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from coxgrowth.intpoly import IntPoly, cyclotomic, parse_poly  # noqa: E402

METRICS = ["items_per_s", "item_p50_ms", "item_p90_ms", "failed_frac", "setup_s", "peak_rss_mb"]
HIGHER_IS_BETTER = {"items_per_s"}
COUNTS = ["intpoly.exact_div.calls", "numclass.strip_cyclotomic.calls", "numclass.disk_root_counts.calls",
          "numclass.disk_root_counts.bits_max", "roots.sign_at_calls", "intpoly.constructed"]
LEHMER = "1,1,0,-1,-1,-1,-1,-1,0,1,1"
# Lehmer's polynomial times Phi_n^2 for ten n: degree 160, the cap of classify --poly
DEGREE_160 = functools.reduce(IntPoly.__mul__, (cyclotomic(n) ** 2 for n in (2, 3, 5, 7, 9, 12, 15, 21, 30, 35)),
                              parse_poly(LEHMER)).to_text()
# Whole processes timed per side and seed: the named checks at their caps (and
# second-minimal at its defaults, 1225 polygon rates against one root), the
# largest tree, and classify at its degree cap.
PROCESSES = [["verify", "theorem2", "--max-k", "6", "--max-p", "12"],
             ["verify", "delta-phi", "--max-k", "6", "--max-p", "12"],
             ["verify", "prop52", "--rmax", "40", "--jmax", "40"],
             ["verify", "second-minimal"],
             ["spectra", "--tree", "Path:1200"],
             ["classify", "--poly", DEGREE_160],
             ["growth", "--symbol", "[4,3^18]"]]


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def differs(root: Path, rev: str, *paths: str) -> bool:
    """Whether the working tree under ``paths`` (all of it if none) differs from ``rev``."""
    return bool(subprocess.run(["git", "diff", "--quiet", rev, "--", *paths], cwd=root).returncode
                or git(root, "ls-files", "--others", "--exclude-standard", "--", *paths))


def export(root: Path, rev: str, dest: Path):
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def src_lines(root: Path) -> dict[str, int]:
    return {p.stem: len(p.read_text().splitlines())
            for p in sorted((root / "src" / "coxgrowth").glob("*.py"))}


def run_all(root: Path, seed: int, seconds: int) -> dict[str, dict[str, float]]:
    """One ``bench/run.py --all`` run: its table as {workload: {metric: value}}."""
    out = subprocess.run([sys.executable, "bench/run.py", "--all", "--seed", str(seed),
                          "--seconds", str(seconds)], cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{root}: bench/run.py --all --seed {seed} exited {out.returncode}\n"
                         + out.stdout + out.stderr)
    table = {}
    for line in out.stdout.splitlines()[2:]:
        name, *values = line.split()
        table[name] = dict(zip(METRICS, map(float, values), strict=True))
    return table


def traced_counts(root: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--trace", "1", "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=root, capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}


def run_python(root: Path, argv: list[str]) -> tuple[bytes, bytes, int]:
    """Stdout, stderr and exit code of ``python3 ARGV`` in root, with root's
    ``src`` first on ``PYTHONPATH``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, *argv], cwd=root, env=env, capture_output=True)
    return out.stdout, out.stderr, out.returncode


def timed_process(root: Path, argv: list[str]) -> tuple[float, bytes]:
    """Wall time and stdout of one ``coxgrowth.cli ARGV --json --no-meta`` process."""
    start = time.perf_counter()
    stdout, _, code = run_python(root, ["-m", "coxgrowth.cli", *argv, "--json", "--no-meta"])
    seconds = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{root}: {' '.join(argv)} exited {code}")
    return seconds, stdout


def summary(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 61-70 or 3,5,8")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--workdir", help="where to export the base commit")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("quartiles need at least two seeds")
    change = Path.cwd()
    if not differs(change, args.base):
        p.error(f"the working tree does not differ from {args.base}")
    if differs(change, args.base, "bench"):
        p.error("bench/ in the working tree differs from the base")
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        base = Path(args.workdir or tmp) / "base"
        if base.exists():
            p.error(f"{base} already exists")
        export(change, args.base, base)
        # Bytecode left in the working tree's __pycache__ would spare the
        # change side compiles the fresh export pays for: both sides keep
        # theirs under one new prefix instead.
        os.environ["PYTHONPYCACHEPREFIX"] = str(Path(tmp) / "pycache")
        doc = compare(args, {"base": base, "change": change})
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def compare(args, sides: dict[str, Path]) -> dict:
    change = sides["change"]
    runs = {"base": [], "change": []}
    seconds = {" ".join(argv): {"base": [], "change": []} for argv in PROCESSES}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_all(sides[side], seed, args.seconds))
            print(f"seed {seed} {side}: " + ", ".join(
                f"{w} {m['items_per_s']:.1f}/s" for w, m in runs[side][-1].items()), flush=True)
        for argv in PROCESSES:
            name, stdout = " ".join(argv), {}
            for side in order:
                t, stdout[side] = timed_process(sides[side], argv)
                seconds[name][side].append(t)
            if stdout["base"] != stdout["change"]:
                raise SystemExit(f"{name}: the two sides print different output")
            print(f"seed {seed} {name}: " + ", ".join(
                f"{side} {seconds[name][side][-1]:.2f} s" for side in order), flush=True)

    workloads = {}
    for name in runs["base"][0]:
        workloads[name] = {}
        for metric in METRICS:
            raw = {side: [r[name][metric] for r in runs[side]] for side in sides}
            better = (lambda c, b: c > b) if metric in HIGHER_IS_BETTER else (lambda c, b: c < b)
            workloads[name][metric] = {
                **{side: summary(raw[side]) for side in sides},
                "change_wins": sum(better(c, b) for c, b in zip(raw["change"], raw["base"])),
                "raw": raw,
            }
    return {
        "base_commit": git(change, "rev-parse", args.base).decode().strip(),
        "change": "working tree over " + git(change, "rev-parse", "HEAD").decode().strip(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "command": f"bench/run.py --all --seed S --seconds {args.seconds}",
        "seeds": args.seeds,
        "order": "alternating: base first on the 1st, 3rd, ... seed, change first on the others",
        "workloads": workloads,
        "processes": {
            "command": "python3 -m coxgrowth.cli ARGV --json --no-meta",
            "wall_s": {name: {**{side: summary(raw[side]) for side in sides},
                              "change_wins": sum(c < b for c, b in zip(raw["change"], raw["base"])),
                              "raw": raw}
                       for name, raw in seconds.items()},
        },
        "counts": {name: {"seed": args.seeds[0],
                          **{side: traced_counts(root, name, args.seeds[0], args.seconds)
                             for side, root in sides.items()}}
                   for name in workloads},
        "src_lines": {side: src_lines(root) for side, root in sides.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
