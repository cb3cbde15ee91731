"""The four workloads of the coxgrowth benchmark, one per item kind.

``tree_sweep`` orders the adjacency radii of the small-radius trees against
alpha0 (Sturm evaluations and deep refinement in ``roots``, the ``spectra``
recursion); ``polygon_sweep`` runs the theorem-2 checks on hyperbolic
polygons (many fresh Sturm chains, trial division in ``strip_cyclotomic``);
``coxeter_growth`` computes Steinberg growth series, strips them and
certifies their rates (the subset sweep in ``growth`` and ``diagram``,
``IntPoly`` products); ``classify_mix`` counts unit-circle roots and labels
polynomials (``disk_root_counts`` in ``numclass``).

Each workload has a fixed input pool whose inputs and expected exact outputs
are committed in ``bench/record/<workload>.json`` (written by
``bench/make_record.py``).  A pass draws its items from that pool with the
workload seed, so every item any seed can draw has a recorded answer.

The draw is stratified: each group of a pool is sorted by the item's cost
as measured when the record was made (``cost_ms``), cut into as many
consecutive strata as the group contributes items, and one item is taken from
each stratum.  Every seed therefore draws the same cost profile, from the
cheapest items of a group to its heaviest, which keeps the spread between
seeds down to the spread within a stratum.  A group drawn whole (``big`` of
``classify_mix``, whose few items take up to seconds each) is the same for
every seed.  Later speed-ups change the costs, not which items a seed draws.

Each workload also fixes how many passes a run makes (``passes``), the same
on every commit, so that a whole run takes about 20-30 s on a 2-CPU host.

An item function receives the freshly imported ``coxgrowth`` package and one
input, calls only the public API, and returns raw library objects.  Turning
them into the recorded exact fields (``summarize``) happens outside the timed
region.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

RECORD_DIR = Path(__file__).resolve().parent / "record"

TREE_WIDTH = Fraction(1, 10**7)
POLYGON_WIDTH = Fraction(1, 10**9)
GROWTH_WIDTH = Fraction(1, 10**9)


def load_record(name: str) -> dict:
    with open(RECORD_DIR / f"{name}.json") as fh:
        return json.load(fh)


def draw(rng: random.Random, entries: list, groups: dict[str, int]) -> list:
    """`count` entries per group, one from each of `count` consecutive strata
    of the group sorted by cost."""
    items = []
    for group, count in groups.items():
        members = sorted((e for e in entries if e["group"] == group), key=lambda e: e["cost_ms"])
        if count > len(members):
            raise ValueError(f"cannot draw {count} {group} items from a pool of {len(members)}")
        for s in range(count):
            lo, hi = s * len(members) // count, (s + 1) * len(members) // count
            items.append(members[rng.randrange(lo, hi)])
    return items


def prepare(cg, workload: str, seed: int) -> tuple[list[tuple], dict]:
    """The shuffled items of one pass: (record entry, input) pairs, and the
    workload state."""
    rng = random.Random(seed)
    kind = WORKLOADS[workload]
    entries = draw(rng, load_record(workload)["items"], kind.groups)
    inputs, ctx = kind.setup(cg, entries)
    items = list(zip(entries, inputs))
    rng.shuffle(items)
    return items, ctx


# -- exact-field helpers ---------------------------------------------------------


def coeffs(p) -> list[int]:
    return list(p.coeffs)


def interval(iv, limit: Fraction) -> dict:
    """A claimed largest real root of iv.poly, with the width it must not exceed."""
    return {"poly": coeffs(iv.poly), "low": iv.low, "high": iv.high, "limit": limit}


# -- tree_sweep ----------------------------------------------------------------


class TreeSweep:
    """Adjacency radius of a small-radius tree, certified below or above alpha0."""

    name = "tree_sweep"
    groups = {"tree": 150}
    passes = 4

    @staticmethod
    def setup(cg, entries):
        trees = {(it.family, tuple(it.params)): it.tree
                 for it in cg.brouwer_neumaier_enumerate(25, 25)}
        # alpha0, the adjacency transfer of the smallest tetrahedral growth rate
        f = cg.steinberg_growth(cg.parse_coxeter_symbol("[3,5,3]"))
        lam = cg.growth_rate(f, Fraction(1, 10**15))
        core, _ = cg.strip_cyclotomic(f.denominator)
        apoly = cg.alpha_from_lambda(core)
        lo, hi = cg.alpha_from_lambda(lam, Fraction(1, 2 * 10**13))
        if cg.sturm_count(apoly, lo, hi) != 1:
            raise ArithmeticError("alpha0 interval does not isolate a root")
        alpha0 = cg.RootInterval(apoly, lo, hi, multiplicity_free=False).refined(
            Fraction(1, 10**13))
        inputs = [trees[(e["family"], tuple(e["params"]))] for e in entries]
        return inputs, {"alpha0": alpha0}

    @staticmethod
    def run(cg, ctx, tree):
        chi = cg.adjacency_char_poly(tree)
        iv = cg.isolate_largest_real_root(chi, TREE_WIDTH)
        iv, a0 = cg.roots.refine_until_disjoint(iv, ctx["alpha0"])
        return chi, iv, iv.is_strictly_below(a0)

    @staticmethod
    def summarize(raw):
        chi, iv, below = raw
        return ({"chi": coeffs(chi), "side": "below" if below else "above"},
                [interval(iv, TREE_WIDTH)])


# -- polygon_sweep --------------------------------------------------------------


class PolygonSweep:
    """Criterion 04 on one polygon: delta = star char poly, rate = radius, equal cores."""

    name = "polygon_sweep"
    groups = {"k3": 20, "k4": 25, "k5": 25, "k6": 30}
    passes = 3

    @staticmethod
    def setup(cg, entries):
        return [tuple(e["params"]) for e in entries], {}

    @staticmethod
    def run(cg, ctx, ps):
        delta = cg.polygon_delta(*ps)
        phi = cg.char_poly_star(*ps)
        f = cg.polygon_growth(*ps)
        rate = cg.growth_rate(f, POLYGON_WIDTH)
        radius = cg.coxtrans.star_spectral_radius(*ps, width=POLYGON_WIDTH)
        den_core, den_factors = cg.strip_cyclotomic(f.denominator)
        phi_core, phi_factors = cg.strip_cyclotomic(phi)
        return delta, phi, f, rate, radius, den_core, den_factors, phi_core, phi_factors

    @staticmethod
    def summarize(raw):
        delta, phi, f, rate, radius, den_core, den_factors, phi_core, phi_factors = raw
        exact = {
            "delta": coeffs(delta),
            "delta_is_star": delta == phi,
            "denominator": coeffs(f.denominator),
            "core": coeffs(den_core),
            "cores_equal": den_core == phi_core,
            "den_factors": [list(x) for x in den_factors],
            "phi_factors": [list(x) for x in phi_factors],
            "rate_meets_radius": rate.overlaps(radius),
        }
        return exact, [interval(rate, POLYGON_WIDTH), interval(radius, POLYGON_WIDTH)]


# -- coxeter_growth -------------------------------------------------------------


def decode_diagram(cg, entry):
    edges = {(i, j): (cg.INF if w == "inf" else w) for i, j, w in entry["edges"]}
    return cg.CoxeterDiagram(entry["n"], edges)


class CoxeterGrowth:
    """Steinberg growth series, cyclotomic stripping and the growth rate of a diagram."""

    name = "coxeter_growth"
    groups = {"r4_7": 62, "r8_9": 20, "r10_12": 18}
    passes = 3

    @staticmethod
    def setup(cg, entries):
        return [decode_diagram(cg, e) for e in entries], {}

    @staticmethod
    def run(cg, ctx, d):
        f = cg.steinberg_growth(d)
        core, factors = cg.strip_cyclotomic(f.denominator)
        try:
            rate = cg.growth_rate(f, GROWTH_WIDTH)
        except cg.NotExponentialError:
            rate = None
        return f, core, factors, rate

    @staticmethod
    def summarize(raw):
        f, core, factors, rate = raw
        exact = {
            "numerator": coeffs(f.numerator),
            "denominator": coeffs(f.denominator),
            "core": coeffs(core),
            "factors": [list(x) for x in factors],
            "exponential": rate is not None,
        }
        return exact, ([interval(rate, GROWTH_WIDTH)] if rate is not None else [])


# -- classify_mix ---------------------------------------------------------------


class ClassifyMix:
    """Unit-circle root counts and Salem / 2-Salem / Perron labels."""

    name = "classify_mix"
    groups = {"core": 43, "random": 42, "salem_product": 10, "big": 5}
    passes = 2

    @staticmethod
    def setup(cg, entries):
        return [cg.IntPoly(e["poly"]) for e in entries], {}

    @staticmethod
    def run(cg, ctx, p):
        return cg.classify(p)

    @staticmethod
    def summarize(raw):
        return ({"outside": raw.roots_outside_unit_disk, "on": raw.roots_on_unit_circle,
                 "inside": raw.roots_inside, "labels": sorted(raw.labels)}, [])


WORKLOADS = {k.name: k for k in (TreeSweep, PolygonSweep, CoxeterGrowth, ClassifyMix)}
