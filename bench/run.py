"""The coxgrowth benchmark: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload tree_sweep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30
    python3 bench/run.py --selftest --seed 1 --seconds 30 [--workload NAME]

Run from the root of a checkout; the package is imported from ``src/``.

A run makes the workload's fixed number of passes (``passes`` in
``workloads.py``, the same on every commit) over the same seeded item list,
one item after another.  It stops early only when the next pass would end
after ``--seconds``, which on the host the pass counts were sized on (2 CPUs,
Python 3.11) does not happen.  Before each pass the workload is set up from
scratch: a fresh import of ``coxgrowth`` (so the cyclotomic cache starts
empty, as in every CLI call), loading the input pool and drawing the seeded
items, and workload state such as alpha0.  Extra set-ups follow the passes
until there are fifteen; ``setup_s`` is their median.  Each pass starts with a
full garbage collection and freezes what is alive then (the record, the
results of earlier passes), so that collections during the pass scan only
what the program under test allocates.

Times are reported at a reference host speed.  The shared hosts this runs on
change speed by up to 1.8x within a second, so a fixed pure-Python
computation that does not touch coxgrowth (``gauge``) is timed around each
set-up and, during a pass, after every item that ends a stretch of
``GAUGE_EVERY_S``.  Each stretch of host time is multiplied by
``GAUGE_REF_S`` over the mean of the two gauges around it.  The gauges
themselves are not part of any time.  A faster coxgrowth leaves the gauge
unchanged, so the scaled times move by exactly its gain; the unscaled wall
figures are in the info line.

``items_per_s`` is the items of all passes over the (scaled) time of all
passes.  An item's latency is its median over the passes; ``item_p50_ms`` and
``item_p90_ms`` are nearest-rank percentiles of those (every workload has at
least 100 items, so ten lie beyond p90).  ``peak_rss_mb`` is read before the
checks import sympy.

After timing, every result is checked against ``bench/record/<workload>.json``
(exact fields: polynomials, cyclotomic factor lists, counts, labels,
below/above), every certified interval against the width it was asked for,
and each interval with sympy's ``count_roots``: it must hold exactly one root
of its polynomial, and that root must be the largest real root.  A request
fails when it raises or any check on it fails.

``--trace 1`` alternates untraced and traced passes, starting untraced.
Traced passes run with the span wrappers of ``tracer.py`` installed; they
report the per-layer metrics, counts from the first traced pass and self
times as medians over the traced passes, plus the tracing slowdown against
the untraced passes of the same run.  The spans of the first traced pass are
written to ``bench/out/``.

The last line of standard output is the JSON result; the line before it
describes the run (commit or source fingerprint, Python, nproc, src lines,
passes, failed_frac).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
COUNT_UNITS = {"count", "ratio", "bits", "degree", "lines"}
MIN_SETUPS = 15
GAUGE_REF_S = 0.0018
GAUGE_EVERY_S = 0.02

sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, prepare  # noqa: E402


def fresh_import():
    """Import coxgrowth from scratch, so every set-up pays the import and starts cold."""
    for name in [m for m in sys.modules if m == "coxgrowth" or m.startswith("coxgrowth.")]:
        del sys.modules[name]
    return importlib.import_module("coxgrowth")


def gauge() -> float:
    """Seconds of a fixed pure-Python computation of the kind coxgrowth does
    (big-integer polynomial products, Horner evaluation at fractions) that does
    not touch coxgrowth: it gauges the host's speed, not the code under test."""
    start = time.perf_counter()
    p = [1]
    for k in range(1, 80):
        q = [0] * (len(p) + 1)
        for i, c in enumerate(p):
            q[i] += c * k
            q[i + 1] -= c
        p = q
    for x in (Fraction(7, 3), Fraction(-5, 4), Fraction(11, 13), Fraction(2, 9)):
        v = Fraction(0)
        for c in reversed(p):
            v = v * x + c
    return time.perf_counter() - start


def speed(g0: float, g1: float) -> float:
    """Reference seconds per host second over a stretch between two gauges."""
    return 2 * GAUGE_REF_S / (g0 + g1)


def setup(workload: str, seed: int):
    """One set-up: its scaled and wall seconds, the package, the items and the state."""
    g0 = gauge()
    start = time.perf_counter()
    cg = fresh_import()
    items, ctx = prepare(cg, workload, seed)
    wall = time.perf_counter() - start
    return wall * speed(g0, gauge()), wall, cg, items, ctx


def run_pass(kind, cg, ctx, items, tracer=None):
    """One pass over the items: each item's scaled seconds, the pass's scaled and
    wall seconds (gauges left out), and each item's exact fields and intervals
    (or its exception), summarized after the pass is timed."""
    clock = time.perf_counter
    times, results = [], []
    scaled = wall = 0.0
    first = 0
    # The record and the results of earlier passes are the benchmark's, not the
    # program's: keep them out of the collections made during the pass.
    gc.collect()
    gc.freeze()
    g0 = gauge()
    start = clock()
    for i, (_, inp) in enumerate(items):
        if tracer is not None:
            tracer.begin_item(i)
        t0 = clock()
        try:
            raw = kind.run(cg, ctx, inp)
        except Exception as exc:  # a failed request is counted, the run goes on
            raw = exc
        t1 = clock()
        times.append(t1 - t0)
        results.append(raw)
        if t1 - start >= GAUGE_EVERY_S or i == len(items) - 1:
            g1 = gauge()
            f = speed(g0, g1)
            times[first:] = [t * f for t in times[first:]]
            scaled += (t1 - start) * f
            wall += t1 - start
            g0, first, start = g1, i + 1, clock()
    gc.unfreeze()
    return times, scaled, wall, [raw if isinstance(raw, Exception) else kind.summarize(raw)
                                 for raw in results]


def throughput(passes: list[tuple[list[float], float]]) -> tuple[list[float], float]:
    """Per-item latencies, each the median over the passes, and the items of all
    passes per second of their time."""
    latencies = [statistics.median(ts) for ts in zip(*(times for times, _ in passes))]
    return latencies, len(latencies) * len(passes) / sum(t for _, t in passes)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at p90 of 100 values, ten values lie above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Checker:
    """Checks results against the record and sympy, outside the timed region."""

    def __init__(self, items):
        import sympy

        self.sympy = sympy
        self.x = sympy.Symbol("x")
        self.entries = [entry for entry, _ in items]
        self.verified: dict = {}

    def _interval_ok(self, iv) -> bool:
        key = (tuple(iv["poly"]), iv["low"], iv["high"])
        if key not in self.verified:
            sp = self.sympy
            low = sp.Rational(iv["low"].numerator, iv["low"].denominator)
            high = sp.Rational(iv["high"].numerator, iv["high"].denominator)
            # On the squarefree part, one root in [low, inf) with the sign of the
            # leading coefficient (or zero) at high puts that root in [low, high].
            sf = sp.Poly(list(reversed(iv["poly"])), self.x, domain="ZZ").sqf_part()
            self.verified[key] = (iv["high"] - iv["low"] <= iv["limit"]
                                  and sf.count_roots(low, None) == 1
                                  and sp.sign(sf.eval(high)) in (0, sp.sign(sf.LC())))
        return self.verified[key]

    def failures(self, summaries) -> list[str]:
        """One message per failed request of a pass."""
        out = []
        for entry, summary in zip(self.entries, summaries):
            label = entry.get("params") or entry.get("poly") or entry.get("edges")
            if isinstance(summary, Exception):
                out.append(f"{label}: raised {type(summary).__name__}: {summary}")
                continue
            exact, intervals = summary
            if exact != entry["expect"]:
                out.append(f"{label}: result differs from the record")
            elif not all(self._interval_ok(iv) for iv in intervals):
                out.append(f"{label}: interval too wide or not isolating the claimed root")
        return out


def source_id() -> str:
    """The checkout's commit when it is a git work tree, else a hash of the package sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "coxgrowth").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(args) -> int:
    if not (SRC / "coxgrowth" / "__init__.py").is_file():
        print(f"coxgrowth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer, metric_units, src_lines

    name = args.workload
    kind = WORKLOADS[name]
    units = metric_units()
    setups, wall_setups, plain, traced, all_results, rollups = [], [], [], [], [], []
    wall_passes = []
    start = time.perf_counter()
    for n in range(kind.passes):
        setup_s, wall_setup_s, cg, items, ctx = setup(name, args.seed)
        setups.append(setup_s)
        wall_setups.append(wall_setup_s)
        if args.trace and n % 2 == 1:
            tracer = Tracer(cg)
            tracer.install()
            try:
                times, pass_s, wall, results = run_pass(kind, cg, ctx, items, tracer)
            finally:
                tracer.uninstall()
            info = cg.intpoly.cyclotomic.cache_info()
            rollup = tracer.rollup(info.hits, info.misses)
            rollups.append({k: v * pass_s / wall if units[k] == "s" else v
                            for k, v in rollup.items()})
            if not traced:
                tracer.write_spans(BENCH_DIR / "out" / f"spans-{name}-seed{args.seed}.tsv")
            traced.append((times, pass_s))
        else:
            times, pass_s, wall, results = run_pass(kind, cg, ctx, items)
            plain.append((times, pass_s))
            wall_passes.append(wall)
        all_results.append(results)
        elapsed = time.perf_counter() - start
        if elapsed * (n + 2) / (n + 1) > args.seconds and (traced or not args.trace):
            break  # on a host much slower than the pass counts were sized on
    while len(setups) < MIN_SETUPS:
        setup_s, wall_setup_s, *_ = setup(name, args.seed)
        setups.append(setup_s)
        wall_setups.append(wall_setup_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checker = Checker(items)
    failures = [msg for results in all_results for msg in checker.failures(results)]
    attempted = sum(len(r) for r in all_results)
    for msg in sorted(set(failures))[:20]:
        print(f"FAILED {name} seed {args.seed}: {msg}", file=sys.stderr)

    latencies, items_per_s = throughput(plain)
    if args.trace:
        _, traced_rate = throughput(traced)
        values = dict(rollups[0])
        for metric, unit in units.items():
            if unit == "s" and metric in values:
                values[metric] = statistics.median(r[metric] for r in rollups)
        counts_repeat = all({k: v for k, v in r.items() if units[k] in COUNT_UNITS}
                            == {k: v for k, v in rollups[0].items() if units[k] in COUNT_UNITS}
                            for r in rollups)
        if not counts_repeat:
            print("WARNING: count metrics differ between traced passes", file=sys.stderr)
        values.update(src_lines(ROOT))
        values.update({"trace.items_per_s": traced_rate, "trace.untraced_items_per_s": items_per_s,
                       "trace.slowdown": items_per_s / traced_rate})
        metrics = {metric: {"value": values[metric], "unit": unit}
                   for metric, unit in units.items()}
    else:
        metrics = {
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "item_p50_ms": {"value": 1000 * percentile(latencies, 0.5), "unit": "ms"},
            "item_p90_ms": {"value": 1000 * percentile(latencies, 0.9), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "items_per_pass": len(items), "passes": len(plain), "traced_passes": len(traced),
        "failed_frac": len(failures) / attempted,
        "wall_items_per_s": len(items) * len(wall_passes) / sum(wall_passes),
        "wall_setup_s": statistics.median(wall_setups),
        "source": source_id(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(ROOT),
    }
    print(json.dumps(info))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in its own process; its JSON result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} exited with code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_all(args) -> int:
    """Every end-to-end metric of every workload, one table; non-zero on any failure."""
    cols = ["items_per_s", "item_p50_ms", "item_p90_ms", "failed_frac", "setup_s", "peak_rss_mb"]
    print(f"{'workload':<16}" + "".join(f"{c:>14}" for c in cols))
    print(f"{'':<16}" + "".join(f"{u:>14}" for u in ["1/s", "ms", "ms", "share", "s", "MB"]))
    bad = False
    for name in WORKLOADS:
        res = child(name, args.seed, args.seconds, 0)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        m["failed_frac"] = res["failed"] / res["attempted"]
        bad |= res["failed"] > 0 or not res["correct"]
        print(f"{name:<16}" + "".join(f"{m[c]:>14.4f}" for c in cols), flush=True)
    return 1 if bad else 0


def selftest(args) -> int:
    """Two traced runs on one seed must give identical count metrics."""
    from tracer import metric_units

    units = metric_units()
    names = [args.workload] if args.workload else list(WORKLOADS)
    bad = False
    for name in names:
        a, b = (child(name, args.seed, args.seconds, 1) for _ in range(2))
        counts = [k for k in units if units[k] in COUNT_UNITS]
        diff = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        bad |= bool(diff) or not (a["correct"] and b["correct"])
        slowdown = ", ".join(f"{r['metrics']['trace.slowdown']['value']:.2f}x" for r in (a, b))
        print(f"{name}: {len(counts) - len(diff)}/{len(counts)} count metrics repeat"
              + (f"; differ: {', '.join(diff)}" if diff else "")
              + f"; tracing slowdown {slowdown}", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="all workloads, end-to-end metrics")
    mode.add_argument("--selftest", action="store_true", help="count metrics repeat exactly")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.all:
        return run_all(args)
    if args.selftest:
        return selftest(args)
    if not args.workload:
        p.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
