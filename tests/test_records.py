"""The value behaviour of every public record class: equality and hash by
field values, immutability, repr text, keyword construction and defaults,
and copy and pickle round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from coxgrowth import (INF, CoxeterDiagram, GrowthFunction, IntPoly, NumberClass, RootInterval, SalemEntry,
                       SphericalType, WeightedTree)
from coxgrowth.coxtrans import BipartiteOrder
from coxgrowth.growth import CaseReport, MonotonicityResult, SecondMinimalReport
from coxgrowth.salemdb import GapReport, RealizationSearchResult
from coxgrowth.spectra import Alpha0Report, LeafReplacementResult, Prop52Report, TreeFamilyItem

P = "IntPoly('t^2 - 2')"
R = f"RootInterval(poly={P}, low=Fraction(1, 1), high=Fraction(2, 1))"
TREE = "WeightedTree(n=2, edge_list=((0, 1, 3),))"
CASE = "CaseReport(name='c', passed=True, details={})"
ENTRY = f"SalemEntry(poly={P}, hint='1.41', interval={R})"
ALPHA0 = (f"Alpha0Report(passed=True, alpha0={R}, items_checked=2, items_below=1, "
          f"items_above=1, monotone_families={{}}, bracketing=())")


def _poly():
    return IntPoly(coeffs=(-2, 0, 1))


def _interval():
    return RootInterval(poly=_poly(), low=Fraction(1), high=Fraction(2))


def _tree():
    return WeightedTree(2, [(1, 0, 3)])


def _alpha0():
    return Alpha0Report(passed=True, alpha0=_interval(), items_checked=2, items_below=1, items_above=1,
                        monotone_families={})


# (name, make, repr); make builds equal values on each call
RECORDS = [
    ("IntPoly", _poly, P),
    ("RootInterval", _interval, R),
    ("NumberClass", lambda: NumberClass(roots_outside_unit_disk=1, roots_on_unit_circle=8, roots_inside=1,
                                        labels=frozenset({"salem"})),
     "NumberClass(roots_outside_unit_disk=1, roots_on_unit_circle=8, roots_inside=1, labels=frozenset({'salem'}))"),
    ("CoxeterDiagram", lambda: CoxeterDiagram(3, {(0, 1): 3, (1, 2): INF}),
     "CoxeterDiagram(n=3, weights=((1, 3, 2), (3, 1, inf), (2, inf, 1)))"),
    ("WeightedTree", _tree, TREE),
    ("SphericalType", lambda: SphericalType(family="A", rank=2, exponents=(1, 2)),
     "SphericalType(family='A', rank=2, exponents=(1, 2), m=None)"),
    ("GrowthFunction", lambda: GrowthFunction(IntPoly((1, 1)), IntPoly((1, -1))),
     "GrowthFunction(numerator=IntPoly('-t - 1'), denominator=IntPoly('t - 1'))"),
    ("SalemEntry", lambda: SalemEntry(poly=_poly(), hint="1.41", interval=_interval()), ENTRY),
    ("TreeFamilyItem", lambda: TreeFamilyItem(family="T", params=(1, 2), tree=_tree()),
     f"TreeFamilyItem(family='T', params=(1, 2), tree={TREE})"),
    ("LeafReplacementResult", lambda: LeafReplacementResult(_tree(), _tree(), _interval(), _interval(), True),
     f"LeafReplacementResult(original={TREE}, replaced={TREE}, original_radius={R}, replaced_radius={R}, "
     f"certified_equal=True)"),
    ("Alpha0Report", _alpha0, ALPHA0),
    ("Prop52Report", lambda: Prop52Report(passed=True, lambda0=_interval(), alpha0=_interval(),
                                          lambda_below_threshold=True, alpha_in_window=False,
                                          tree_report=_alpha0(), notes=("n",)),
     f"Prop52Report(passed=True, lambda0={R}, alpha0={R}, lambda_below_threshold=True, alpha_in_window=False, "
     f"tree_report={ALPHA0}, notes=('n',))"),
    ("MonotonicityResult", lambda: MonotonicityResult(passed=False),
     "MonotonicityResult(passed=False, low_rate=None, high_rate=None)"),
    ("CaseReport", lambda: CaseReport(name="c", passed=True, details={}), CASE),
    ("SecondMinimalReport", lambda: SecondMinimalReport(True, _interval(), (CaseReport("c", True, {}),)),
     f"SecondMinimalReport(passed=True, reference_rate={R}, cases=({CASE},))"),
    ("GapReport", lambda: GapReport((), (), (SalemEntry(_poly(), "1.41", _interval()),), (), _interval(),
                                    _interval(), full_list=False),
     f"GapReport(below_first=(), equal_first=(), band=({ENTRY},), at_or_above_second=(), first_rate={R}, "
     f"second_rate={R}, full_list=False)"),
    ("RealizationSearchResult", lambda: RealizationSearchResult(_poly(), ((2, 3, 7),), 5),
     f"RealizationSearchResult(target={P}, matches=((2, 3, 7),), tuples_examined=5)"),
    ("BipartiteOrder", lambda: BipartiteOrder(tree=_tree(), part1=(0,), part2=(1,), x_block=((1,),)),
     f"BipartiteOrder(tree={TREE}, part1=(0,), part2=(1,), x_block=((1,),))"),
]
# frozen records with a dict field have the field values' hash, so none
UNHASHABLE = {"Alpha0Report", "Prop52Report", "CaseReport", "SecondMinimalReport"}

_ids = [name for name, _, _ in RECORDS]


@pytest.mark.parametrize("name, make, text", RECORDS, ids=_ids)
def test_record_equality_and_hash(name, make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name, make, text", RECORDS, ids=_ids)
def test_record_differs_from_another_class(name, make, text):
    a = make()
    other = MonotonicityResult(True) if name != "MonotonicityResult" else CaseReport("c", True, {})
    assert a != other and not a == other
    assert a.__eq__(other) is NotImplemented
    assert a != tuple(vars(a).values())


@pytest.mark.parametrize("name, make, text", RECORDS, ids=_ids)
def test_record_fields_are_frozen(name, make, text):
    a = make()
    field = next(iter(vars(a)))
    before = repr(a)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert repr(a) == before


@pytest.mark.parametrize("name, make, text", RECORDS, ids=_ids)
def test_record_repr(name, make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("name, make, text", RECORDS, ids=_ids)
def test_record_copy_and_pickle(name, make, text):
    a = make()
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == text


def test_record_keyword_construction_and_defaults():
    assert NumberClass(1, 2, 3) == NumberClass(roots_inside=3, roots_on_unit_circle=2, roots_outside_unit_disk=1)
    assert NumberClass(1, 2, 3).labels == frozenset()
    assert SphericalType("I2", 2, (1, 4), 5).m == 5 and SphericalType("A", 1, (1,)).m is None
    assert MonotonicityResult(True).low_rate is None and MonotonicityResult(True).high_rate is None
    assert _alpha0().bracketing == ()
    with pytest.raises(TypeError):
        NumberClass(1, 2)
    with pytest.raises(TypeError):
        NumberClass(1, 2, 3, frozenset(), 5)
    with pytest.raises(TypeError):
        NumberClass(1, 2, 3, roots_inside=3)
    with pytest.raises(TypeError):
        NumberClass(1, 2, 3, colour="red")
    # an unknown keyword in place of a missing field is refused by name
    with pytest.raises(TypeError, match="unknown"):
        NumberClass(1, 2, colour="red")
    with pytest.raises(TypeError, match="unknown"):
        NumberClass(1, 2, roots_insde=3)
    with pytest.raises(TypeError, match="missing"):
        NumberClass(1, roots_on_unit_circle=2)
