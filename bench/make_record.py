"""Build the input pools of the benchmark and record their expected outputs.

    python3 bench/make_record.py [workload ...]
    python3 bench/make_record.py --costs [workload ...]

Writes ``bench/record/<workload>.json`` for the workloads of ``workloads.py``.
Every recorded field comes from the coxgrowth library and is cross-checked
here against a route that shares no code with it, and the script stops on
the first disagreement:

- tree polynomials against ``sympy`` ``Matrix.charpoly`` of the adjacency
  matrix, and below/above alpha0 against ``numpy`` eigenvalues (``mpmath``
  roots at 60 digits when the two are within 1e-9);
- cyclotomic factor lists and cores against ``sympy`` ``factor_list``;
- the existence of a pole in (0, 1) against ``sympy`` root counts, and growth
  rates against ``numpy`` roots;
- unit-circle root counts and labels against ``mpmath`` roots of the
  ``sympy`` squarefree factors.

The pools are drawn with fixed pool seeds.  Each entry also gets ``cost_ms``,
the median of three timed runs of its item made in three passes over the
pool, each scaled to the reference host speed with the gauges of ``run.py``
taken just before and after it.  The benchmark stratifies its draws on it;
it is a measurement, so a rerun changes it slightly and with it some of the
items a seed draws.  ``--costs`` measures ``cost_ms`` again for the existing
records and changes nothing else in them.  The script needs sympy, numpy and
mpmath; the benchmark runs need only sympy.
"""

from __future__ import annotations

import itertools
import json
import random
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy
import sympy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import coxgrowth as cg  # noqa: E402
from run import gauge, speed  # noqa: E402
from workloads import RECORD_DIR, WORKLOADS, decode_diagram, load_record  # noqa: E402

X = sympy.Symbol("x")
mpmath.mp.dps = 60
POOL_SEED = 20200824
COST_PASSES = 3


class CrossCheckError(AssertionError):
    pass


def expect(cond: bool, what: str):
    if not cond:
        raise CrossCheckError(what)


def sym(coeffs) -> sympy.Poly:
    return sympy.Poly(list(reversed(coeffs)), X, domain="ZZ")


def mp_roots(coeffs) -> list:
    """All complex roots of a squarefree integer polynomial, by mpmath."""
    return mpmath.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=400)


def cyclotomic_index(g: sympy.Poly) -> int | None:
    """n with g = Phi_n (up to sign), or None when g is not cyclotomic."""
    if not g.is_cyclotomic:
        return None
    d = g.degree()
    for n in range(1, 2 * d * d + 7):
        if sympy.totient(n) == d and sympy.Poly(sympy.cyclotomic_poly(n, X), X) in (g, -g):
            return n
    raise CrossCheckError(f"no index found for cyclotomic factor {g}")


def independent_strip(coeffs) -> tuple[list[int], list[list[int]]]:
    """(core, [[n, mult], ...]) from sympy's factorization, core up to sign."""
    content, factors = sym(coeffs).factor_list()
    core = sympy.Poly(content, X, domain="ZZ")
    cyc = {}
    for g, e in factors:
        n = cyclotomic_index(g)
        if n is None:
            core *= g ** e
        else:
            cyc[n] = cyc.get(n, 0) + e
    return [int(c) for c in reversed(core.all_coeffs())], [[n, cyc[n]] for n in sorted(cyc)]


def same_up_to_sign(a: list[int], b: list[int]) -> bool:
    return a == b or a == [-c for c in b]


def largest_real_root(coeffs) -> mpmath.mpf | None:
    best = None
    for f, _ in sym(coeffs).sqf_list()[1]:
        for r in mp_roots([int(c) for c in reversed(f.all_coeffs())]):
            if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40 and (best is None or mpmath.re(r) > best):
                best = mpmath.re(r)
    return best


def mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


# -- pools ---------------------------------------------------------------------


def tree_pool():
    return [{"group": "tree", "family": it.family, "params": list(it.params), "n": it.tree.n}
            for it in cg.brouwer_neumaier_enumerate(25, 25)]


def polygon_pool(per_k: int = 300):
    rng = random.Random(POOL_SEED)
    by_k: dict[int, list] = {}
    for k in range(3, 7):
        for ps in itertools.combinations_with_replacement(range(2, 13), k):
            if cg.polygon_is_hyperbolic(ps):
                by_k.setdefault(k, []).append(list(ps))
    pool = []
    for k, tuples in sorted(by_k.items()):
        chosen = tuples if len(tuples) <= per_k else sorted(rng.sample(tuples, per_k))
        pool += [{"group": f"k{k}", "params": ps} for ps in chosen]
    return pool


def random_diagram(rng: random.Random, n: int) -> dict:
    """A connected diagram: a random spanning tree plus up to two extra edges."""
    edges = {}
    for v in range(1, n):
        edges[(rng.randrange(v), v)] = rng.choice([3, 3, 3, 4, 4, 5, 6, "inf"])
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    for pair in rng.sample(free, min(rng.randrange(3), len(free))):
        edges[pair] = rng.choice([3, 4, 5, 6, "inf"])
    return {"n": n, "edges": sorted([i, j, w] for (i, j), w in edges.items())}


def coxeter_pool(max_degree: int = 40):
    """Random diagrams whose growth denominator has degree at most max_degree.

    The bound keeps cyclotomic stripping of very long denominators, which
    costs seconds per item, from crowding the subset sweep out of a pass.
    """
    rng = random.Random(POOL_SEED + 1)
    pool, seen = [], set()
    for ranks, count, group in [((4, 5, 6, 7), 120, "r4_7"), ((8, 9), 80, "r8_9"),
                                ((10, 11, 12), 60, "r10_12")]:
        made = 0
        while made < count:
            d = random_diagram(rng, ranks[made % len(ranks)])
            key = json.dumps(d)
            if key in seen:
                continue
            seen.add(key)
            if cg.steinberg_growth(decode_diagram(cg, d)).denominator.degree > max_degree:
                continue
            pool.append({"group": group, **d})
            made += 1
    return pool


class TooSlow(Exception):
    pass


def limited_classify(coeffs, limit_s: float):
    """``classify`` of coeffs and the seconds it took, or None when it would take
    over limit_s."""

    def stop(*_):
        raise TooSlow

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return timed(cg.classify, cg.IntPoly(coeffs))
    except TooSlow:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def random_monic(rng: random.Random, deg: int) -> list[int]:
    """Coefficients -2..2, leading coefficient 1 and a nonzero constant term."""
    return [rng.choice([-2, -1, 1, 2])] + [rng.randint(-2, 2) for _ in range(deg - 1)] + [1]


def classify_pool(core_count: int = 120, random_count: int = 300, product_count: int = 40,
                  big_fast: int = 3, big_slow: int = 2):
    """Cores of growth denominators of random diagrams (degree 2-10), random monic
    polynomials (degree 6-10), products of two polygon Salem cores (degree 12),
    and a few big random monic polynomials (degree 14-18, not Salem).

    The big group is where the quartic cost of ``disk_root_counts`` shows: its
    Perron cases take seconds.  It holds ``big_slow`` items that took 0.5-2.5 s
    here and ``big_fast`` that took under 0.5 s; big polynomials that take
    longer (up to about a minute) are skipped so that a pass stays short.
    """
    rng = random.Random(POOL_SEED + 2)
    pool, seen = [], set()

    def add(group, coeffs):
        if tuple(coeffs) not in seen:
            seen.add(tuple(coeffs))
            pool.append({"group": group, "poly": list(coeffs)})

    while len(pool) < core_count:
        d = decode_diagram(cg, random_diagram(rng, rng.randint(4, 9)))
        core, _ = cg.strip_cyclotomic(cg.steinberg_growth(d).denominator)
        if 2 <= core.degree <= 10 and core.leading == 1 and core.constant != 0:
            add("core", core.coeffs)
    while len(pool) < core_count + random_count:
        add("random", random_monic(rng, rng.randint(6, 10)))
    salem = sorted({tuple(e["expect"]["core"]) for e in load_record("polygon_sweep")["items"]
                    if len(e["expect"]["core"]) >= 5}, key=lambda c: (len(c), c))
    pairs = [(a, b) for a, b in itertools.combinations(salem, 2) if len(a) + len(b) - 2 == 12]
    for a, b in rng.sample(pairs, product_count):
        add("salem_product", (cg.IntPoly(a) * cg.IntPoly(b)).coeffs)
    fast = slow = 0
    while fast < big_fast or slow < big_slow:
        coeffs = random_monic(rng, rng.randint(14, 18))
        done = limited_classify(coeffs, 2.5)
        if done is None or "salem" in done[0].labels or tuple(coeffs) in seen:
            continue
        seconds = done[1]
        if seconds < 0.5 and fast < big_fast:
            fast += 1
        elif seconds >= 0.5 and slow < big_slow:
            slow += 1
        else:
            continue
        add("big", coeffs)
    return pool


# -- expected outputs with their cross-checks ---------------------------------------


def alpha0_float():
    f = cg.steinberg_growth(cg.parse_coxeter_symbol("[3,5,3]"))
    core, _ = independent_strip(list(f.denominator.coeffs))
    lam = largest_real_root(core)
    return mpmath.sqrt(2 + lam + 1 / lam)


def check_tree(entry, exact, alpha0):
    n = entry["n"]
    tree = cg.star_diagram(*entry["params"]) if entry["family"] == "star" else cg.h_graph(*entry["params"])
    m = sympy.zeros(n, n)
    for i, j, _ in tree.edge_list:
        m[i, j] = m[j, i] = 1
    expect([int(c) for c in reversed(m.charpoly(X).all_coeffs())] == exact["chi"],
           f"tree {entry['params']}: char poly differs from sympy")
    lam = max(numpy.linalg.eigvalsh(numpy.array(m.tolist(), dtype=float)))
    if abs(lam - float(alpha0)) < 1e-9:
        lam = largest_real_root(exact["chi"])
    expect(abs(lam - alpha0) > mpmath.mpf(10) ** -45, f"tree {entry['params']}: too close to alpha0")
    expect(exact["side"] == ("below" if lam < alpha0 else "above"),
           f"tree {entry['params']}: side differs from mpmath")


def check_strip(name, coeffs, core, factors):
    ind_core, ind_factors = independent_strip(coeffs)
    expect(same_up_to_sign(ind_core, core), f"{name}: core differs from sympy factor_list")
    expect(ind_factors == factors, f"{name}: cyclotomic factors differ from sympy factor_list")


def check_polygon(entry, exact):
    ps = entry["params"]
    expect(exact["delta_is_star"] and exact["cores_equal"] and exact["rate_meets_radius"],
           f"polygon {ps}: theorem-2 check failed")
    check_strip(f"polygon {ps} denominator", exact["denominator"], exact["core"], exact["den_factors"])
    check_strip(f"polygon {ps} delta", exact["delta"], exact["core"], exact["phi_factors"])


def check_growth(entry, exact):
    name = f"diagram {entry['n']} {entry['edges']}"
    check_strip(name, exact["denominator"], exact["core"], exact["factors"])
    den = sym(exact["denominator"])
    in_unit = den.count_roots(0, 1) - (den.eval(0) == 0) - (den.eval(1) == 0)
    expect(exact["exponential"] == (in_unit > 0), f"{name}: pole in (0, 1) disagrees with sympy")


def check_rate(name, den_coeffs, iv):
    """The growth rate is the inverse of the smallest positive root of the denominator."""
    core, _ = independent_strip(den_coeffs)
    roots = numpy.roots(list(reversed(core)))
    smallest = min(r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    expect(abs(float(iv.midpoint()) - 1 / smallest) < 1e-7, f"{name}: rate differs from numpy")


def independent_classes(coeffs) -> tuple[int, int, int, list[str]]:
    """(outside, on, inside, labels) from mpmath roots of the sympy squarefree factors."""
    eps = mpmath.mpf(10) ** -30
    outside = on = inside = 0
    sqf = sym(coeffs).sqf_list()[1]
    for f, e in sqf:
        for r in mp_roots([int(c) for c in reversed(f.all_coeffs())]):
            a = abs(r)
            if a > 1 + eps:
                outside += e
            elif a < 1 - eps:
                inside += e
            else:
                on += e
    labels = []
    s = sympy.Poly(1, X, domain="ZZ")
    for f, _ in sqf:
        s *= f
    core, _ = independent_strip([int(c) for c in reversed(s.all_coeffs())])
    if len(core) <= 1:
        labels.append("cyclotomic")
    else:
        core_roots = mp_roots(core)
        c_out = sum(abs(r) > 1 + eps for r in core_roots)
        c_on = sum(abs(abs(r) - 1) <= eps for r in core_roots)
        real_above = [r for r in core_roots if abs(mpmath.im(r)) < eps and mpmath.re(r) > 1 + eps]
        if c_out == 1 and c_on >= 1 and len(real_above) == 1:
            labels.append("salem")
        if c_out == 2 and c_on >= 1:
            labels.append("two_salem")
    s_roots = mp_roots([int(c) for c in reversed(s.all_coeffs())])
    real = [mpmath.re(r) for r in s_roots if abs(mpmath.im(r)) < eps]
    if real and max(real) > 1 + eps:
        top = max(real)
        others = sorted((abs(r) for r in s_roots), reverse=True)[1:]
        if not others or others[0] < top - eps:
            labels.append("perron")
    return outside, on, inside, sorted(labels)


def check_classify(entry, exact):
    outside, on, inside, labels = independent_classes(entry["poly"])
    name = f"classify {entry['poly']}"
    expect((exact["outside"], exact["on"], exact["inside"]) == (outside, on, inside),
           f"{name}: root counts differ from mpmath")
    expect(exact["labels"] == labels, f"{name}: labels {exact['labels']} differ from independent {labels}")


# -- building the records -------------------------------------------------------------


def build(name: str):
    w = WORKLOADS[name]
    pool = {"tree_sweep": tree_pool, "polygon_sweep": polygon_pool,
            "coxeter_growth": coxeter_pool, "classify_mix": classify_pool}[name]()
    inputs, ctx = w.setup(cg, pool)
    alpha0 = alpha0_float() if name == "tree_sweep" else None
    if alpha0 is not None:
        a = ctx["alpha0"]
        expect(mp(a.low) <= alpha0 <= mp(a.high), "alpha0 interval misses the mpmath value")
    start = time.perf_counter()
    for count, (entry, inp) in enumerate(zip(pool, inputs), 1):
        raw = w.run(cg, ctx, inp)
        exact, _ = w.summarize(raw)
        entry["expect"] = exact
        if name == "tree_sweep":
            check_tree(entry, exact, alpha0)
        elif name == "polygon_sweep":
            check_polygon(entry, exact)
            check_rate(f"polygon {entry['params']}", exact["denominator"], raw[3])
        elif name == "coxeter_growth":
            check_growth(entry, exact)
            if raw[3] is not None:
                check_rate(f"diagram {entry['edges']}", exact["denominator"], raw[3])
        else:
            check_classify(entry, exact)
        if count % 50 == 0:
            print(f"{name}: {count}/{len(pool)} items, {time.perf_counter() - start:.0f} s",
                  file=sys.stderr, flush=True)
    measure_costs(w, ctx, pool, inputs)
    write_record(name, pool)


def measure_costs(w, ctx, pool, inputs):
    """Set each entry's cost_ms.  The timed runs come from separate passes over
    the whole pool, so that a slow spell of the host lands on different items
    each time and the median drops it."""
    costs = [[] for _ in pool]
    for _ in range(COST_PASSES):
        for cost, inp in zip(costs, inputs):
            cg.intpoly.cyclotomic.cache_clear()
            g0 = gauge()
            seconds = timed(w.run, cg, ctx, inp)[1]
            cost.append(seconds * speed(g0, gauge()))
    for entry, cost in zip(pool, costs):
        entry["cost_ms"] = round(1000 * statistics.median(cost), 3)


def write_record(name: str, pool: list):
    RECORD_DIR.mkdir(exist_ok=True)
    with open(RECORD_DIR / f"{name}.json", "w") as fh:
        json.dump({"workload": name, "pool_seed": POOL_SEED, "items": pool}, fh,
                  separators=(",", ":"))
        fh.write("\n")


def recost(name: str):
    """Measure cost_ms again for the recorded pool of a workload."""
    w = WORKLOADS[name]
    pool = load_record(name)["items"]
    inputs, ctx = w.setup(cg, pool)
    measure_costs(w, ctx, pool, inputs)
    write_record(name, pool)


def main(argv):
    costs_only = argv[:1] == ["--costs"]
    names = argv[1:] if costs_only else argv
    for name in names or list(WORKLOADS):
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}")
        (recost if costs_only else build)(name)


if __name__ == "__main__":
    main(sys.argv[1:])
