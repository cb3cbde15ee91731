"""Loading and querying a list of Salem numbers, the growth-rate gap
analysis between the two smallest polygonal rates, and the search for
polygons realizing a given Salem polynomial.

The bundled mini list carries only three entries; ordinal claims that need
the complete external list (degree <= 44) are reported as unavailable
rather than fabricated.
"""

from __future__ import annotations

import functools
import importlib.resources
import os
from fractions import Fraction

from .intpoly import INT_DIGITS_BOUND, IntPoly, _digits_value, parse_poly, reciprocity_type
from .numclass import strip_cyclotomic, unit_circle_root_count
from .record import Record
from .roots import RootInterval, compare, isolate_largest_real_root, largest_root_above_one
from .growth import growth_rate, polygon_delta, polygon_growth, polygon_rate_compare, steinberg_growth
from .diagram import CoxeterDiagram, polygon_is_hyperbolic

ENV_LIST_PATH = "COXGROWTH_SALEM_LIST"


class SalemListError(ValueError):
    pass


class SalemEntry(Record):
    poly: IntPoly
    hint: str
    interval: RootInterval  # certified on load; the hint is advisory only

    def decimal(self, places: int = 7) -> str:
        return self.interval.decimal(places)


def _validate_entry(poly: IntPoly) -> RootInterval:
    """Salem-compatibility: reciprocal, a real root above 1, and every other
    distinct root on the circle except its reciprocal partner.  With deg - 2
    distinct roots on the circle, the root above 1 and its partner are the
    only two off it, so that root is simple and the only one above 1.

    A conjugate on the circle is required, so the degree is at least 4 (and
    even, by reciprocity with no root at -1)."""
    if poly.degree < 4 or poly.degree % 2 != 0 or not poly.is_monic():
        raise SalemListError("entry must be monic of even degree >= 4")
    if reciprocity_type(poly) != "reciprocal":
        raise SalemListError("entry is not reciprocal")
    interval = largest_root_above_one(poly, Fraction(1, 10**9))
    if interval is None:
        raise SalemListError("entry has no real root above 1")
    on_circle = unit_circle_root_count(poly)
    if on_circle != poly.degree - 2:
        raise SalemListError(
            f"entry has {on_circle} unit-circle roots, expected degree-2 = {poly.degree - 2}")
    return interval


def parse_salem_line(line: str) -> SalemEntry:
    parts = line.split(";")
    if len(parts) != 3:
        raise SalemListError("expected 'degree;coefficients;approx'")
    field = parts[0].strip()
    if not (field.isascii() and field.isdigit()):
        raise SalemListError(f"bad degree field {parts[0]!r}")
    if (degree := _digits_value(field)) is None:
        raise SalemListError(f"degree field has more than {INT_DIGITS_BOUND} digits")
    poly = parse_poly(parts[1])
    if poly.degree != degree:
        raise SalemListError(f"declared degree {degree} but coefficients give {poly.degree}")
    return SalemEntry(poly, parts[2].strip(), _validate_entry(poly))


def _certified_cmp(a: SalemEntry, b: SalemEntry) -> int:
    return compare(a.interval, b.interval)


def _load_text(text: str) -> list[SalemEntry]:
    entries = []
    for no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            entries.append(parse_salem_line(line))
        except (SalemListError, ValueError) as e:
            raise SalemListError(f"line {no}: {e}") from None
    entries.sort(key=functools.cmp_to_key(_certified_cmp))
    return entries


def bundled_mini_list() -> list[SalemEntry]:
    """The three bundled entries, certified and sorted."""
    text = (importlib.resources.files("coxgrowth") / "data" / "mini_salem_list.csv").read_text()
    return _load_text(text)


def list_path(path=None):
    """The list file to read: path, else COXGROWTH_SALEM_LIST when it is set
    and not empty, else None for the bundled mini list."""
    return path if path is not None else os.environ.get(ENV_LIST_PATH) or None


def load_salem_list(path=None) -> list[SalemEntry]:
    """Load and certify a Salem list file, re-sorted by certified root intervals.

    The file is list_path(path); with none, the bundled three-entry mini list.
    """
    path = list_path(path)
    if path is None:
        return bundled_mini_list()
    with open(path, encoding="utf-8") as fh:
        return _load_text(fh.read())


class GapReport(Record):
    """Partition of a Salem list against the two smallest polygonal rates."""

    below_first: tuple[SalemEntry, ...]
    equal_first: tuple[SalemEntry, ...]
    band: tuple[SalemEntry, ...]  # strictly between the two rates
    at_or_above_second: tuple[SalemEntry, ...]
    first_rate: RootInterval
    second_rate: RootInterval
    full_list: bool

    @property
    def total(self) -> int:
        return (len(self.below_first) + len(self.equal_first)
                + len(self.band) + len(self.at_or_above_second))

    def ordinal_notes(self) -> list[str]:
        notes = []
        if not self.full_list:
            notes.append("ordinal claims (seventh smallest, first 47) require the "
                         "complete external list; not reproducible from bundled data")
        return notes


def count_entries_below(entries: list[SalemEntry], threshold: RootInterval) -> int:
    """Number of entries with root certified strictly below the threshold root."""
    return sum(compare(e.interval, threshold) < 0 for e in entries)


def gap_report(entries: list[SalemEntry], assume_full: bool = False) -> GapReport:
    """Sort the entries against the smallest and second-smallest polygon rates.

    Each entry's root is compared with both rates by roots.compare, so
    equality with a rate is certified by a shared root of the two
    polynomials and every other answer by disjoint intervals.
    """
    r1 = growth_rate(polygon_growth(2, 3, 7), Fraction(1, 10**12))
    r2 = growth_rate(steinberg_growth(CoxeterDiagram(3, {(0, 1): 3, (1, 2): 8})),
                     Fraction(1, 10**12))
    below, equal1, band, above = [], [], [], []
    for e in entries:
        side = compare(e.interval, r1)
        if side < 0:
            below.append(e)
        elif side == 0:
            equal1.append(e)
        elif compare(e.interval, r2) < 0:
            band.append(e)
        else:
            above.append(e)
    return GapReport(tuple(below), tuple(equal1), tuple(band), tuple(above),
                     r1, r2, assume_full)


class RealizationSearchResult(Record):
    target: IntPoly
    matches: tuple[tuple[int, ...], ...]  # the parameter tuples of the polygons found
    tuples_examined: int


def polygon_realization_search(target: SalemEntry | IntPoly, k_max: int = 6,
                               p_max: int = 12) -> RealizationSearchResult:
    """Search hyperbolic polygons whose growth denominator core equals the target.

    Parameter tuples are enumerated in nondecreasing order; the growth rate
    is monotone in every parameter, so once a tuple's rate certifiedly
    exceeds the target root the last coordinate stops being extended.
    Polygons are identified up to permutation of the parameters (the growth
    series depends only on the multiset).
    """
    poly = target.poly if isinstance(target, SalemEntry) else target
    root = isolate_largest_real_root(poly, Fraction(1, 10**9))
    matches = []
    examined = 0

    def extend(prefix: tuple[int, ...], k: int):
        nonlocal examined
        start = prefix[-1] if prefix else 2
        for p in range(start, p_max + 1):
            ps = prefix + (p,)
            if len(ps) == k:
                if not polygon_is_hyperbolic(ps):
                    continue
                examined += 1
                side = polygon_rate_compare(ps, root)
                if side == 1:
                    return  # larger last coordinates only increase the rate
                if side == 0:
                    core, _ = strip_cyclotomic(polygon_delta(*ps))
                    if core == poly:
                        matches.append(ps)
            else:
                # the minimal sorted completion pads with the current entry;
                # if it is hyperbolic and already too big, so is every
                # completion of this or any larger entry
                pad = ps + (p,) * (k - len(ps))
                if polygon_is_hyperbolic(pad) and polygon_rate_compare(pad, root) == 1:
                    return
                extend(ps, k)

    for k in range(3, k_max + 1):
        extend((), k)
    return RealizationSearchResult(poly, tuple(matches), examined)
