import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth.diagram import (
    INF,
    CoxeterDiagram,
    DiagramError,
    WeightedTree,
    _connected_spherical_sets,
    _edge_masks,
    _grow,
    diagram_from_text,
    dominates,
    finite_type_recognize,
    h_graph,
    parse_coxeter_symbol,
    path_tree,
    polygon_diagram,
    polygon_is_hyperbolic,
    star_diagram,
)
from coxgrowth import diagram
from coxgrowth.growth import STEINBERG_RANK_BOUND, steinberg_growth
from coxgrowth.spectra import brouwer_neumaier_enumerate

from oracles import (
    dihedral_order,
    format_coxeter_symbol,
    random_tree_edges,
    reference_dominates,
    reference_finite_type,
    signed_permutation_order,
    symmetric_group_order,
    tree_degrees,
)

_LONG_DIGITS = "9" * 5000  # past the 4300 digits that int() converts


def test_parse_linear_symbols():
    d = parse_coxeter_symbol("[3,5,3]")
    assert d.n == 4
    assert [w for _, _, w in d.edges()] == [3, 5, 3]
    d2 = parse_coxeter_symbol("[8,3,4,3,8]")
    assert d2.n == 6
    assert [w for _, _, w in d2.edges()] == [8, 3, 4, 3, 8]


def test_parse_cyclic_symbol():
    d = parse_coxeter_symbol("[(3^2,inf)]")
    assert d.n == 3
    weights = sorted(str(w) for _, _, w in d.edges())
    assert weights == ["3", "3", "inf"]


def test_parse_linear_power_notation():
    assert parse_coxeter_symbol("[3^19]") == parse_coxeter_symbol("[" + ",".join(["3"] * 19) + "]")
    assert parse_coxeter_symbol("[4,3^2,inf^2]") == parse_coxeter_symbol("[4,3,3,inf,inf]")


def test_parse_infinity_forms():
    assert parse_coxeter_symbol("[3,inf]").weight(1, 2) == INF
    assert parse_coxeter_symbol("[3,∞]").weight(1, 2) == INF


@pytest.mark.parametrize("bad", ["", "[]", "[2,3]", "[3,,5]", "(3,5)", "[3,5", "[(3)]", "[3^0]"])
def test_parse_errors(bad):
    with pytest.raises(DiagramError):
        parse_coxeter_symbol(bad)


def test_symbol_roundtrip_linear():
    rng = random.Random(5)
    choices = [3, 4, 5, 6, 7, 8, INF]
    for _ in range(40):
        r = rng.randint(1, 7)
        weights = [rng.choice(choices) for _ in range(r)]
        text = "[" + ",".join(str(w) for w in weights) + "]"
        d = parse_coxeter_symbol(text)
        assert parse_coxeter_symbol(format_coxeter_symbol(d)) == d


def test_symbol_roundtrip_cyclic():
    # cyclic printing canonicalizes the rotation/reflection, so the reparse
    # is isomorphic to the original and the printed form is a fixed point
    rng = random.Random(6)
    choices = [3, 4, 5, INF]
    for _ in range(40):
        r = rng.randint(3, 8)
        weights = [rng.choice(choices) for _ in range(r)]
        text = "[(" + ",".join(str(w) for w in weights) + ")]"
        d = parse_coxeter_symbol(text)
        printed = format_coxeter_symbol(d)
        reparsed = parse_coxeter_symbol(printed)
        assert dominates(reparsed, d) == "isomorphic"
        assert format_coxeter_symbol(reparsed) == printed


def test_diagram_file_format():
    d = diagram_from_text("rank 3\n1 2 3\n2 3 inf\n")
    assert d.weight(0, 1) == 3
    assert d.weight(1, 2) == INF
    assert d.weight(0, 2) == 2
    with pytest.raises(DiagramError):
        diagram_from_text("rank 3\n1 2 3\n2 1 4\n")  # duplicate pair
    with pytest.raises(DiagramError):
        diagram_from_text("3\n1 2 3\n")


@pytest.mark.parametrize("text", [
    "[(3^3000)]",
    "[(3^18,4,inf,5)]",
    "[" + ",".join(["3"] * 2999) + "]",
    "[" + ",".join(["3"] * 20) + "]",
    "[3^20]",
    "[3^99999999]",
    f"[3^{_LONG_DIGITS}]",
], ids=["cyclic-3000", "cyclic-21", "linear-3000", "linear-21", "linear-power-21",
        "linear-power-100000000", "linear-power-5000-digits"])
def test_symbol_rank_above_bound_rejected(text):
    with pytest.raises(DiagramError, match=f"bound {STEINBERG_RANK_BOUND}"):
        parse_coxeter_symbol(text)


@pytest.mark.parametrize("rank", [STEINBERG_RANK_BOUND + 1, 3000, pytest.param(_LONG_DIGITS, id="5000-digits")])
def test_diagram_file_rank_above_bound_rejected(rank):
    with pytest.raises(DiagramError, match=f"bound {STEINBERG_RANK_BOUND}"):
        diagram_from_text(f"rank {rank}\n1 2 3\n")


def test_diagram_file_vertex_index_of_5000_digits_is_a_bad_pair():
    with pytest.raises(DiagramError, match="^line 2: bad vertex pair$"):
        diagram_from_text(f"rank 3\n1 {_LONG_DIGITS} 3\n")


def test_long_runs_of_leading_zeros_are_read_as_their_value():
    zeros = "0" * 5000
    assert parse_coxeter_symbol(f"[3^{zeros}2]") == parse_coxeter_symbol("[3,3]")
    d = diagram_from_text(f"rank {zeros}3\n{zeros}1 {zeros}3 {zeros}5\n")
    assert d == CoxeterDiagram(3, {(0, 2): 5})


def test_rank_bound_itself_accepted():
    n = STEINBERG_RANK_BOUND
    assert parse_coxeter_symbol(f"[(3^{n})]").n == n
    assert parse_coxeter_symbol("[" + ",".join(["3"] * (n - 1)) + "]").n == n
    assert diagram_from_text(f"rank {n}\n1 {n} inf\n").weight(0, n - 1) == INF


def test_polygon_diagram():
    d = polygon_diagram(2, 3, 7)
    assert d.n == 3
    assert sorted(w for _, _, w in d.edges()) == [3, 7]
    pent = polygon_diagram(2, 2, 2, 2, 2)
    assert all(w == INF for _, _, w in pent.edges())
    assert len(pent.edges()) == 5
    with pytest.raises(DiagramError):
        polygon_diagram(2, 3)


def test_polygon_hyperbolic_flag():
    assert polygon_is_hyperbolic((2, 3, 7))
    assert not polygon_is_hyperbolic((2, 3, 6))
    assert polygon_is_hyperbolic((2, 2, 2, 2, 2))
    assert not polygon_is_hyperbolic((2, 2, 2, 2))


def _angle_sum_in_fractions(ps) -> bool:
    return sum(Fraction(1, p) for p in ps) < len(ps) - 2


def test_polygon_hyperbolic_flag_matches_the_angle_sum_in_fractions():
    # every tuple verify theorem2 enumerates at its caps, k <= 6 and p <= 12
    tuples = [ps for k in range(3, 7) for ps in itertools.combinations_with_replacement(range(2, 13), k)]
    assert len(tuples) == 12298
    for ps in tuples:
        assert polygon_is_hyperbolic(ps) == _angle_sum_in_fractions(ps), ps
    # the Euclidean boundary: the angle sum equals k - 2
    for ps in [(2, 3, 6), (2, 4, 4), (3, 3, 3), (2, 2, 2, 2)]:
        assert not polygon_is_hyperbolic(ps) and not _angle_sum_in_fractions(ps)
    # the integer test stays exact for any nonzero parameters, of either sign
    rng = random.Random(30)
    for _ in range(2000):
        ps = [rng.choice([-1, 1]) * rng.randint(1, 12) for _ in range(rng.randint(0, 6))]
        assert polygon_is_hyperbolic(ps) == _angle_sum_in_fractions(ps), ps


def test_star_diagram():
    assert star_diagram(2, 3, 7).n == 10
    assert star_diagram(2, 2, 2).n == 4
    assert star_diagram(2).n == 2
    assert tree_degrees(star_diagram(2, 2, 2))[0] == 3
    with pytest.raises(DiagramError):
        star_diagram(1, 3)


def test_h_graph_counts():
    assert h_graph(2, 8, 3).n == 14
    assert h_graph(2, 1, 2).n == 6  # i + j + k + 1
    assert h_graph(3, 4, 3).n == 11
    assert h_graph(2, 1, 3).n == 7
    deg = sorted(tree_degrees(h_graph(2, 8, 3)).values())
    assert deg.count(3) == 2 and deg.count(1) == 4 and deg.count(2) == 8
    with pytest.raises(DiagramError):
        h_graph(1, 3, 2)


@pytest.mark.parametrize("label", [0.5, 1.0])
def test_weighted_tree_rejects_a_label_that_is_not_an_int(label):
    with pytest.raises(DiagramError, match="bad edge"):
        WeightedTree(2, [(0, label, 3)])


def test_coxeter_diagram_rejects_a_label_that_is_not_an_int():
    with pytest.raises(DiagramError, match="bad vertex pair"):
        CoxeterDiagram(2, {(0, 0.5): 3})


def test_weighted_tree_rejects_a_vertex_count_that_is_not_an_int():
    with pytest.raises(DiagramError, match="vertex count must be an integer, got 2.0"):
        WeightedTree(2.0, [(0, 1, 3)])


def test_coxeter_diagram_rejects_a_rank_that_is_not_an_int():
    with pytest.raises(DiagramError, match="rank must be an integer, got 2.0"):
        CoxeterDiagram(2.0, {})


def test_weighted_tree_rejects_a_label_that_does_not_compare_with_an_int():
    with pytest.raises(DiagramError, match=r"bad edge \(0, a\)"):
        WeightedTree(2, [(0, "a", 3)])


def test_infinity_is_the_float_and_other_float_weights_are_rejected():
    assert CoxeterDiagram(3, {(0, 1): float("inf"), (1, 2): 3}) == CoxeterDiagram(3, {(0, 1): INF, (1, 2): 3})
    assert WeightedTree(3, [(0, 1, float("inf")), (1, 2, 3)]) == WeightedTree(3, [(0, 1, INF), (1, 2, 3)])
    for w in (math.nan, -math.inf, 3.0, 2.5):
        with pytest.raises(DiagramError, match="bad weight"):
            CoxeterDiagram(2, {(0, 1): w})
        with pytest.raises(DiagramError, match="must be >= 3 or inf"):
            WeightedTree(2, [(0, 1, w)])


def _assert_rooted(tree):
    order = tree.rooted()
    pos = {v: k for k, (v, _, _) in enumerate(order)}
    assert sorted(pos) == list(range(tree.n))  # each vertex once
    assert order[-1] == (0, -1, 2)
    assert all(pos[up] > pos[v] for v, up, _ in order[:-1])
    edges = {(min(v, up), max(v, up), w) for v, up, w in order[:-1]}
    assert edges == set(tree.edge_list)


@pytest.mark.parametrize("tree", [path_tree(1), path_tree(9, INF), star_diagram(2, 5, 3, 4),
                                  h_graph(2, 8, 3), h_graph(3, 1, 2)])
def test_rooted_walk_of_the_builder_trees(tree):
    _assert_rooted(tree)


def _builder_trees():
    for item in brouwer_neumaier_enumerate(40, 40):
        yield item.tree
    for arms in range(1, 7):
        for ps in itertools.combinations_with_replacement(range(2, 13), arms):
            yield star_diagram(*ps)
    for i, j, k in itertools.product(range(2, 9), range(1, 13), range(2, 9)):
        yield h_graph(i, j, k)
    yield star_diagram(*[2] * 1199)


def test_builder_trees_pass_every_check_of_the_constructor():
    # star_diagram and h_graph skip WeightedTree's checks; each of their
    # trees must be the one the checked constructor makes, and walk whole
    for tree in _builder_trees():
        assert WeightedTree(tree.n, tree.edge_list) == tree
        _assert_rooted(tree)


class I:
    """An int-like number that is not an int."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    __int__ = __index__

    def __add__(self, other):
        return I(self.v + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return I(self.v - int(other))

    def __lt__(self, other):
        return self.v < int(other)

    def __repr__(self):
        return f"I({self.v})"


@pytest.mark.parametrize("build", [lambda: star_diagram(I(2), 3, 7), lambda: h_graph(2, I(3), 2)],
                         ids=["star_diagram", "h_graph"])
def test_builders_reject_a_vertex_count_that_is_not_an_int(build):
    with pytest.raises(DiagramError, match=r"vertex count must be an integer, got I\("):
        build()


def test_rooted_walk_of_random_trees():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randint(1, 30)
        edges = [(i, j, rng.choice([3, 4, 5, 6, INF])) for i, j, _ in random_tree_edges(n, rng)]
        _assert_rooted(WeightedTree(n, edges))

def _path_from(start, vertices, weight=3):
    """The edges of the path start, vertices[0], vertices[1], ..."""
    ends = [start, *vertices]
    return [(a, b, weight) for a, b in zip(ends, ends[1:])]


def test_h_graph_labels_follow_its_docstring():
    # 0 the first branch vertex, 1 its pendant leaf, 2..i its long arm, then
    # the j - 1 interior vertices, the second branch vertex v, its pendant, its arm
    for i, j, k in itertools.product(range(2, 6), range(1, 6), range(2, 6)):
        v = i + j
        expected = ([(0, 1, 3)] + _path_from(0, range(2, i + 1)) + _path_from(0, range(i + 1, v + 1))
                    + [(v, v + 1, 3)] + _path_from(v, range(v + 2, v + k + 1)))
        assert h_graph(i, j, k).edge_list == tuple(expected), (i, j, k)


@pytest.mark.parametrize("tree, edges, weight", [
    (h_graph(2, 1, 2), [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)], 3),
    (h_graph(3, 2, 2), [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (5, 7)], 3),
    (star_diagram(2), [(0, 1)], 3),
    (star_diagram(3, 2, 4), [(0, 1), (1, 2), (0, 3), (0, 4), (4, 5), (5, 6)], 3),
    (path_tree(1), [], 3),
    (path_tree(4), [(0, 1), (1, 2), (2, 3)], 3),
    (path_tree(3, 5), [(0, 1), (1, 2)], 5),
])
def test_small_tree_edge_lists(tree, edges, weight):
    assert tree.edge_list == tuple((a, b, weight) for a, b in edges)


def test_h_graph_vertex_count_formula():
    for i, j, k in itertools.product(range(2, 5), range(1, 5), range(2, 5)):
        assert h_graph(i, j, k).n == i + j + k + 1


@pytest.mark.parametrize("symbol,family,exponents", [
    ("[3]", "A", (1, 2)),
    ("[3,3,3]", "A", (1, 2, 3, 4)),
    ("[4]", "I2", (1, 3)),
    ("[6]", "I2", (1, 5)),
    ("[7]", "I2", (1, 6)),
    ("[4,3]", "B", (1, 3, 5)),
    ("[4,3,3]", "B", (1, 3, 5, 7)),
    ("[3,4,3]", "F4", (1, 5, 7, 11)),
    ("[5,3]", "H3", (1, 5, 9)),
    ("[5,3,3]", "H4", (1, 11, 19, 29)),
])
def test_finite_recognition(symbol, family, exponents):
    types = finite_type_recognize(parse_coxeter_symbol(symbol))
    assert types is not None and len(types) == 1
    assert types[0].family == family
    assert types[0].exponents == exponents


def test_finite_recognition_trees():
    assert finite_type_recognize(star_diagram(2, 2, 2).to_diagram())[0].family == "D"
    assert finite_type_recognize(star_diagram(2, 3, 3).to_diagram())[0].family == "E6"
    assert finite_type_recognize(star_diagram(2, 3, 4).to_diagram())[0].family == "E7"
    assert finite_type_recognize(star_diagram(2, 3, 5).to_diagram())[0].family == "E8"
    assert finite_type_recognize(star_diagram(2, 3, 6).to_diagram()) is None
    assert finite_type_recognize(star_diagram(2, 2, 2, 2).to_diagram()) is None


def test_not_finite_cases():
    assert finite_type_recognize(parse_coxeter_symbol("[3,inf]")) is None
    assert finite_type_recognize(parse_coxeter_symbol("[(3^2,3)]")) is None  # cycle
    assert finite_type_recognize(parse_coxeter_symbol("[3,5,3]")) is None
    assert finite_type_recognize(parse_coxeter_symbol("[5,4]")) is None
    assert finite_type_recognize(parse_coxeter_symbol("[6,3]")) is None


def test_all_threes_paths_are_a():
    for r in range(1, 8):
        d = parse_coxeter_symbol("[" + ",".join(["3"] * r) + "]")
        types = finite_type_recognize(d)
        assert [t.family for t in types] == ["A"]
        assert types[0].rank == r + 1


def test_components_multiply():
    # two disjoint edges: weight-2 middle
    d = CoxeterDiagram(4, {(0, 1): 3, (2, 3): 5})
    types = finite_type_recognize(d)
    assert sorted(t.family for t in types) == ["A", "I2"]


def test_exponent_products_match_group_orders():
    # brute-force permutation group orders
    for n in range(1, 6):
        d = parse_coxeter_symbol("[" + ",".join(["3"] * (n - 1)) + "]") if n > 1 \
            else CoxeterDiagram(1)
        t = finite_type_recognize(d)[0]
        assert t.order() == symmetric_group_order(n)
    for n in (2, 3, 4):
        sym = "[4" + ",3" * (n - 2) + "]"
        t = finite_type_recognize(parse_coxeter_symbol(sym))[0]
        assert t.order() == signed_permutation_order(n)
    t = finite_type_recognize(star_diagram(2, 2, 2).to_diagram())[0]
    assert t.order() == signed_permutation_order(4, even_signs_only=True)
    for m in range(3, 13):
        t = finite_type_recognize(parse_coxeter_symbol(f"[{m}]"))[0]
        assert t.order() == dihedral_order(m)


def test_exceptional_orders():
    classical = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152,
                 "H3": 120, "H4": 14400}
    builders = {
        "E6": star_diagram(2, 3, 3).to_diagram(),
        "E7": star_diagram(2, 3, 4).to_diagram(),
        "E8": star_diagram(2, 3, 5).to_diagram(),
        "F4": parse_coxeter_symbol("[3,4,3]"),
        "H3": parse_coxeter_symbol("[5,3]"),
        "H4": parse_coxeter_symbol("[5,3,3]"),
    }
    for name, diagram in builders.items():
        assert finite_type_recognize(diagram)[0].order() == classical[name]


def _random_diagram(rng: random.Random) -> CoxeterDiagram:
    """A random spanning tree on at most 9 vertices, its edges mostly of
    weight 3, plus up to two more edges (cycles) and some weight-2 pairs."""
    n = rng.randint(1, 9)
    weights = [3, 3, 3, 3, 4, 5, 6, 8, INF]
    edges = {(rng.randrange(v), v): rng.choice(weights) for v in range(1, n)}
    for _ in range(rng.randint(0, 2) if n > 2 else 0):
        i, j = sorted(rng.sample(range(n), 2))
        edges[(i, j)] = rng.choice(weights)
    for key in rng.sample(sorted(edges), len(edges) // 8):
        edges[key] = 2
    return CoxeterDiagram(n, edges)


def _with_pendant(d: CoxeterDiagram, at: int, weight) -> CoxeterDiagram:
    """d with one more vertex, joined to vertex at by an edge of the given weight."""
    edges = {(i, j): w for i, j, w in d.edges()}
    edges[(at, d.n)] = weight
    return CoxeterDiagram(d.n + 1, edges)


_PLANTED = [
    _with_pendant(star_diagram(2, 3, 5).to_diagram(), 7, 3),   # E8 inside affine E8
    _with_pendant(star_diagram(2, 3, 4).to_diagram(), 6, 4),   # E7 with a weight-4 tail
    _with_pendant(star_diagram(2, 2, 5).to_diagram(), 0, 3),   # D7 with a fourth arm
    _with_pendant(parse_coxeter_symbol("[5,3,3]"), 2, 3),       # H4 and a branch
    _with_pendant(parse_coxeter_symbol("[3,4,3]"), 0, 3),       # F4 inside affine F4
    _with_pendant(parse_coxeter_symbol("[4,3,3,3,3,3,3]"), 7, 4),  # B8 inside affine C8
    _with_pendant(parse_coxeter_symbol("[5,3]"), 0, 5),         # H3 and [5,5,3]
    parse_coxeter_symbol("[8,3,6,inf,3,3]"),
    parse_coxeter_symbol("[(3^4,4,3^3)]"),
]


def test_bitmask_typing_matches_the_weight_table_oracle():
    # every vertex subset of seeded random diagrams of rank <= 9 and of
    # diagrams planted with each exceptional type; the Steinberg sum types
    # exactly the connected subsets that the oracle finds spherical
    rng = random.Random(18)
    families = set()
    for d in _PLANTED + [_random_diagram(rng) for _ in range(150)]:
        connected_spherical = {}
        for mask in range(1, 1 << d.n):
            sub = d.subdiagram(tuple(v for v in range(d.n) if mask >> v & 1))
            want = reference_finite_type(sub)
            assert finite_type_recognize(sub) == want, (d, mask)
            if want is not None and len(want) == 1:
                connected_spherical[mask] = want[0]
                families.add(want[0].family)
        assert {mask: t for mask, (t, _) in _connected_spherical_sets(d).items()} == connected_spherical, d
    assert families == {"A", "B", "D", "E6", "E7", "E8", "F4", "H3", "H4", "I2"}


# The vertex 0, the path 0-1-2 and the D4 branch with centre 0 and arms (1,),
# (2,), (3,), each as (edges, shape), grown by the leaf v = 1, 3 or 4; and the
# extra edges of v that close a weight-3 triangle, a 4-cycle, or join v to the
# set by INF (from the vertex, the word (INF,) alone would read as dihedral)
_GROW_SHAPES = {
    "vertex": ({}, ("path", (0,), ())),
    "path": ({(0, 1): 3, (1, 2): 3}, ("path", (0, 1, 2), (3, 3))),
    "branch": ({(0, 1): 3, (0, 2): 3, (0, 3): 3}, ("branch", 0, ((1,), (2,), (3,)))),
}
_REFUSED_LEAVES = {
    ("vertex", "INF"): {(0, 1): INF},
    ("path", "triangle"): {(1, 3): 3, (2, 3): 3},
    ("path", "4-cycle"): {(0, 3): 3, (2, 3): 3},
    ("path", "INF at an end"): {(2, 3): INF},
    ("path", "INF and an end"): {(2, 3): 3, (0, 3): INF},
    ("branch", "triangle"): {(0, 4): 3, (1, 4): 3},
    ("branch", "4-cycle"): {(1, 4): 3, (2, 4): 3},
    ("branch", "INF at a tip"): {(1, 4): INF},
    ("branch", "INF and a tip"): {(1, 4): 3, (2, 4): INF},
}


def _grow_leaf(kind: str, leaf: dict):
    """_grow on the set of _GROW_SHAPES[kind] and the one vertex that leaf's
    edges add to it."""
    edges, shape = _GROW_SHAPES[kind]
    d = CoxeterDiagram(len(edges) + 2, {**edges, **leaf})
    return _grow(d.weights, *_edge_masks(d), shape, (1 << d.n - 1) - 1, d.n - 1)


@pytest.mark.parametrize("case", sorted(_REFUSED_LEAVES), ids=" ".join)
def test_grow_refuses_a_leaf_closing_a_cycle_or_an_inf_pair(case):
    assert _grow_leaf(case[0], _REFUSED_LEAVES[case]) is None


def test_grow_extends_a_path_end_and_an_arm_tip():
    shape, t = _grow_leaf("path", {(2, 3): 3})
    assert (shape, str(t)) == (("path", (0, 1, 2, 3), (3, 3, 3)), "A4")
    shape, t = _grow_leaf("branch", {(1, 4): 3})
    assert (shape, str(t)) == (("branch", 0, ((1, 4), (2,), (3,))), "D5")


def test_connected_spherical_sets_call_grow_once_per_grown_mask(monkeypatch):
    grown, grow = [], diagram._grow

    def counted(weights, nbr, inf, shape, mask, v):
        grown.append(mask | 1 << v)
        return grow(weights, nbr, inf, shape, mask, v)

    monkeypatch.setattr(diagram, "_grow", counted)
    rng = random.Random(46)
    for d in _PLANTED + [_random_diagram(rng) for _ in range(150)]:
        grown.clear()
        conn = _connected_spherical_sets(d)
        assert len(set(grown)) == len(grown), d
        assert set(conn) <= set(grown) | {1 << v for v in range(d.n)}


def _relabelled_union(parts, perm) -> CoxeterDiagram:
    """The disjoint union of the diagrams parts, in order, with vertex k of
    the union relabelled perm[k]."""
    edges, offset = {}, 0
    for d in parts:
        edges.update({(perm[offset + i], perm[offset + j]): w for i, j, w in d.edges()})
        offset += d.n
    return CoxeterDiagram(offset, edges)


def _catalog(r: int, m: int) -> list[tuple[str, CoxeterDiagram]]:
    """The connected catalog diagrams of rank r, by name, with I2(m) at rank 2."""
    out = [(f"A{r}", CoxeterDiagram(r, {(i, i + 1): 3 for i in range(r - 1)}))]
    if r == 2:
        out.append((f"I2({m})", CoxeterDiagram(2, {(0, 1): m})))
    if r >= 3:
        out.append((f"B{r}", parse_coxeter_symbol(f"[4,3^{r - 2}]")))
    if r >= 4:
        out.append((f"D{r}", star_diagram(2, 2, r - 2).to_diagram()))
    if r in (6, 7, 8):
        out.append((f"E{r}", star_diagram(2, 3, r - 3).to_diagram()))
    named = {3: [("H3", "[5,3]")], 4: [("F4", "[3,4,3]"), ("H4", "[5,3,3]")]}
    return out + [(name, parse_coxeter_symbol(text)) for name, text in named.get(r, [])]


@st.composite
def _catalog_unions(draw):
    """A disjoint union of catalog diagrams of rank at most the Steinberg rank
    bound, its vertex labels shuffled, and the names of its components in the
    order of their least vertices."""
    parts, n = [], 0
    while not parts or n < STEINBERG_RANK_BOUND and draw(st.booleans()):
        r = draw(st.integers(1, STEINBERG_RANK_BOUND - n))
        parts.append(draw(st.sampled_from(_catalog(r, draw(st.integers(4, 12))))))
        n += r
    perm = draw(st.permutations(range(n)))
    least, offset = [], 0
    for name, d in parts:
        least.append((min(perm[offset:offset + d.n]), name))
        offset += d.n
    return _relabelled_union([d for _, d in parts], perm), [name for _, name in sorted(least)]


@given(_catalog_unions())
@settings(max_examples=200, deadline=None)
def test_recognition_does_not_depend_on_the_grow_order(case):
    # ranks 10 to 20 are past the all-subsets sweep, and a shuffled component
    # grows from its least vertex wherever that lies: mid-arm, at an arm tip
    d, names = case
    got = finite_type_recognize(d)
    assert got == reference_finite_type(d)
    assert [str(t) for t in got] == names


# Rank 12 each, after E8 in the union: D11 with a leaf at its centre, the
# 12-cycle, which the last vertex grown closes, and A11 with an INF edge at
# its end, which grows from its other end and meets the INF edge last
_NOT_SPHERICAL = [
    _with_pendant(star_diagram(2, 2, 9).to_diagram(), 0, 3),
    CoxeterDiagram(12, {(i, (i + 1) % 12): 3 for i in range(12)}),
    CoxeterDiagram(12, {**{(i, i + 1): 3 for i in range(10)}, (10, 11): INF}),
]


@pytest.mark.parametrize("bad", _NOT_SPHERICAL, ids=["D-centre-leaf", "cycle", "inf-at-the-end"])
def test_a_non_spherical_component_grown_last_is_found(bad):
    e8 = star_diagram(2, 3, 5).to_diagram()
    n, rng = STEINBERG_RANK_BOUND, random.Random(38)
    for perm in [list(range(n))] + [rng.sample(range(n), n) for _ in range(20)]:
        d = _relabelled_union([e8, bad], perm)
        assert finite_type_recognize(d) is None and reference_finite_type(d) is None, perm
    assert [str(t) for t in finite_type_recognize(e8)] == ["E8"]


def test_dominates_chain():
    d38 = parse_coxeter_symbol("[3,8]")
    d3i = parse_coxeter_symbol("[3,inf]")
    cyc = parse_coxeter_symbol("[(3^2,inf)]")
    assert dominates(d38, d3i) == "less"
    assert dominates(d3i, cyc) == "less"
    assert dominates(d38, d38) == "isomorphic"
    assert dominates(d3i, d38) == "greater"


def test_dominates_gamma_uvw():
    # the three-vertex graph with weights k=2, l=3 against the infinite edge
    g = CoxeterDiagram(3, {(0, 1): INF, (1, 2): 3})
    assert dominates(parse_coxeter_symbol("[3,inf]"), g) == "isomorphic"
    g2 = CoxeterDiagram(3, {(0, 1): INF, (1, 2): 3, (0, 2): 4})
    assert dominates(parse_coxeter_symbol("[3,inf]"), g2) == "less"


def test_dominates_incomparable():
    a = parse_coxeter_symbol("[8,3]")
    b = parse_coxeter_symbol("[4,4]")
    assert dominates(a, b) == "incomparable"


def test_dominates_rank_bound():
    big = CoxeterDiagram(13)
    with pytest.raises(DiagramError):
        dominates(big, big)


def test_dominates_partial_order_properties():
    rng = random.Random(11)
    pool = []
    for _ in range(8):
        r = rng.randint(2, 4)
        weights = {}
        for i in range(r - 1):
            weights[(i, i + 1)] = rng.choice([2, 3, 4, 5, INF])
        pool.append(CoxeterDiagram(r, weights))
    for d in pool:
        assert dominates(d, d) == "isomorphic"
    for a, b in itertools.permutations(pool, 2):
        ab, ba = dominates(a, b), dominates(b, a)
        pairs = {ab, ba}
        assert pairs in ({"less", "greater"}, {"isomorphic"}, {"incomparable"})
    for a, b, c in itertools.permutations(pool, 3):
        if dominates(a, b) == "less" and dominates(b, c) == "less":
            assert dominates(a, c) == "less"


_DOMINATION_WEIGHTS = [2, 3, 4, 6, INF]  # in increasing order


def _random_weight_table(rng, n: int) -> CoxeterDiagram:
    """A diagram of rank n with each pair's weight drawn from _DOMINATION_WEIGHTS."""
    return CoxeterDiagram(n, {(i, j): rng.choice(_DOMINATION_WEIGHTS)
                              for i, j in itertools.combinations(range(n), 2)})


def test_dominates_matches_brute_force():
    """Against every injection, on random pairs of rank <= 5 and on pairs
    built to be isomorphic (a relabelling), dominated (weights raised) or
    nested (a subdiagram)."""
    rng = random.Random(43)
    seen = set()
    for _ in range(60):
        d = _random_weight_table(rng, rng.randint(1, 5))
        perm = rng.sample(range(d.n), d.n)
        relabelled = CoxeterDiagram(d.n, {(perm[i], perm[j]): d.weights[i][j]
                                          for i, j in itertools.combinations(range(d.n), 2)})
        raised = CoxeterDiagram(d.n, {
            (i, j): rng.choice(_DOMINATION_WEIGHTS[_DOMINATION_WEIGHTS.index(d.weights[i][j]):])
            for i, j in itertools.combinations(range(d.n), 2)})
        sub = d.subdiagram(tuple(sorted(rng.sample(range(d.n), rng.randint(1, d.n)))))
        for e in (_random_weight_table(rng, rng.randint(1, 5)), relabelled, raised, sub):
            for a, b in ((d, e), (e, d)):
                expected = reference_dominates(a, b)
                assert dominates(a, b) == expected, (a, b)
                seen.add(expected)
    assert seen == {"isomorphic", "less", "greater", "incomparable"}


_INFINITE_EDGES = {
    "[3,inf]": parse_coxeter_symbol("[3,inf]"),
    "[(3^2,inf)]": parse_coxeter_symbol("[(3^2,inf)]"),
    "[inf]": parse_coxeter_symbol("[inf]"),
    "A1 beside [inf]": CoxeterDiagram(3, {(0, 1): INF}),
    "polygon 2,3,3,4": polygon_diagram(2, 3, 3, 4),
    "[4,3,inf,5,3]": parse_coxeter_symbol("[4,3,inf,5,3]"),
}


@pytest.mark.parametrize("d", _INFINITE_EDGES.values(), ids=_INFINITE_EDGES)
def test_a_pickled_diagram_with_infinite_weights_computes_the_same(d):
    """Unpickling makes a new float for each infinity, equal to INF but not
    INF itself, so no computation may compare weights by identity."""
    e = pickle.loads(pickle.dumps(d))
    assert e == d and any(w == INF and w is not INF for row in e.weights for w in row)
    assert steinberg_growth(e) == steinberg_growth(d)
    assert finite_type_recognize(e) == finite_type_recognize(d)
    assert dominates(d, e) == dominates(e, d) == "isomorphic"


def test_weighted_tree_validation():
    with pytest.raises(DiagramError, match="n-1 edges"):
        WeightedTree(3, [(0, 1, 3)])  # not enough edges
    with pytest.raises(DiagramError, match=r"bad edge \(0, 3\)"):
        WeightedTree(3, [(0, 1, 3), (3, 0, 3)])  # label out of range
    with pytest.raises(DiagramError, match=r"bad edge \(1, 1\)"):
        WeightedTree(2, [(1, 1, 3)])  # loop
    with pytest.raises(DiagramError, match=r"duplicate edge \(0, 1\)"):
        WeightedTree(3, [(0, 1, 3), (0, 1, 3)])
    with pytest.raises(DiagramError, match="not connected"):
        WeightedTree(4, [(0, 1, 3), (0, 2, 3), (1, 2, 3)])  # a cycle through 0 misses 3
    with pytest.raises(DiagramError, match="must be >= 3 or inf, got 2"):
        WeightedTree(2, [(0, 1, 2)])
    t = path_tree(4)
    assert t.to_diagram().weight(0, 1) == 3
    assert t.to_diagram().weight(0, 2) == 2
