"""Coxeter diagrams, Coxeter-symbol parsing, weighted trees, spherical-type
recognition, the connected spherical sets of the Steinberg sum, and the
domination order.

Vertices are 0-based internally; the text file format uses 1-based indices.
The infinite edge weight INF = math.inf orders above every integer weight, so
weights compare with plain <=, and it prints as inf.  WeightedTree runs
rooted(), the one walk of a tree, as its connectivity check; builder trees,
connected by construction, skip it (_built).  The parsers count a number's
digits before converting it (intpoly._digits_value).
"""

from __future__ import annotations

import functools
import math
import re

from .intpoly import _digits_value
from .record import Record


INF = math.inf

Weight = int | float


# The largest integer edge weight of a symbol, a diagram file or a polygon: on a 2-CPU host
# "growth --symbol [3,m]" takes 0.19 s at m = 100, 4.8 s at 400 and 18 s at 600.
WEIGHT_BOUND = 100


def _check_weight(w: int) -> int:
    """w, or DiagramError when it is above WEIGHT_BOUND."""
    if w > WEIGHT_BOUND:
        raise DiagramError(f"weight {w} exceeds the bound {WEIGHT_BOUND}")
    return w


def parse_weight(text: str) -> Weight:
    text = text.strip()
    if text in ("inf", "∞", "infinity"):
        return INF
    if not re.fullmatch(r"[0-9]+", text):
        raise ValueError(f"bad weight {text!r}")
    if (w := _digits_value(text, len(str(WEIGHT_BOUND)))) is None:
        raise DiagramError(f"weight {text} exceeds the bound {WEIGHT_BOUND}")
    return _check_weight(w)


class DiagramError(ValueError):
    pass


# The largest rank of a Steinberg growth sum, and so of any diagram a command
# can use.  The parsers reject a larger rank before building the weight table.
STEINBERG_RANK_BOUND = 20


class CoxeterDiagram(Record):
    """A finite-rank Coxeter system: symmetric weight table with m_ii = 1."""

    n: int
    weights: tuple[tuple[Weight, ...], ...]

    def __init__(self, n: int, edges: dict[tuple[int, int], Weight] | None = None):
        if not isinstance(n, int):
            raise DiagramError(f"rank must be an integer, got {n!r}")
        if n < 1:
            raise DiagramError("rank must be at least 1")
        table = [[2] * n for _ in range(n)]
        for i in range(n):
            table[i][i] = 1
        for (i, j), m in (edges or {}).items():
            if not (isinstance(i, int) and isinstance(j, int)
                    and i != j and 0 <= i < n and 0 <= j < n):
                raise DiagramError(f"bad vertex pair ({i}, {j})")
            if not (isinstance(m, int) or m == INF) or m < 2:
                raise DiagramError(f"bad weight {m!r} for pair ({i}, {j})")
            table[i][j] = table[j][i] = m
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", tuple(tuple(row) for row in table))

    def weight(self, i: int, j: int) -> Weight:
        return self.weights[i][j]

    def edges(self) -> list[tuple[int, int, Weight]]:
        """Pairs with weight >= 3 (the drawn edges of the diagram)."""
        return [(i, j, self.weights[i][j])
                for i in range(self.n) for j in range(i + 1, self.n)
                if self.weights[i][j] >= 3]

    def subdiagram(self, vertices: tuple[int, ...]) -> "CoxeterDiagram":
        idx = {v: k for k, v in enumerate(vertices)}
        edges = {}
        for a in vertices:
            for b in vertices:
                if a < b:
                    m = self.weights[a][b]
                    if m != 2:
                        edges[(idx[a], idx[b])] = m
        return CoxeterDiagram(len(vertices), edges)


# -- Coxeter symbols --------------------------------------------------------------


def parse_coxeter_symbol(text: str) -> CoxeterDiagram:
    """Parse a linear symbol [w1,...,wr] or a cyclic symbol [(items)].

    Weights are integers >= 3 or inf; an item p^k repeats the weight p k
    times, so [3^19] is [3,3,...,3] with 19 weights.  A linear symbol with r
    weights is a path on r+1 nodes; the cyclic symbol closes the path into a
    cycle with as many nodes as weights.  The rank is at most
    STEINBERG_RANK_BOUND, checked before a repetition is expanded.
    """
    s = "".join(text.split())

    def fail(msg: str, pos: int):
        raise DiagramError(f"symbol parse error at position {pos}: {msg} in {text!r}")

    if not s.startswith("["):
        fail("expected '['", 0)
    cyclic = s.startswith("[(")
    if cyclic:
        if not s.endswith(")]"):
            fail("expected ')]'", len(s))
        body = s[2:-2]
    else:
        if not s.endswith("]"):
            fail("expected ']'", len(s))
        body = s[1:-1]
    if not body:
        fail("empty symbol", 1)
    weights: list[Weight] = []
    offset = 2 if cyclic else 1
    for item in body.split(","):
        pos = offset
        offset += len(item) + 1
        if not item:
            fail("empty item", pos)
        rep = 1
        if "^" in item:
            item, _, exp = item.partition("^")
            rep = _digits_value(exp, len(str(STEINBERG_RANK_BOUND))) if re.fullmatch(r"[0-9]+", exp) else 0
            if rep == 0:
                fail(f"bad repetition count {exp!r}", pos)
        if rep is None or len(weights) + rep + (0 if cyclic else 1) > STEINBERG_RANK_BOUND:
            fail(f"rank exceeds the bound {STEINBERG_RANK_BOUND}", pos)
        try:
            w = parse_weight(item)
        except ValueError as e:
            fail(str(e), pos)
        if w < 3:
            fail(f"weight {w} below 3 in symbol position", pos)
        weights.extend([w] * rep)
    if cyclic and len(weights) < 3:
        fail("cyclic symbol needs at least 3 weights", 1)
    n = len(weights) + (not cyclic)  # a linear symbol's last index never wraps
    return CoxeterDiagram(n, {(i, (i + 1) % n): w for i, w in enumerate(weights)})


# -- file format --------------------------------------------------------------------


def diagram_from_text(text: str) -> CoxeterDiagram:
    """Read the diagram file format: 'rank N' then lines 'i j m' (1-based),
    with N at most STEINBERG_RANK_BOUND."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(k + 1, ln) for k, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise DiagramError("empty diagram file")
    no, header = lines[0]
    m = re.fullmatch(r"rank\s+([0-9]+)", header)
    if not m:
        raise DiagramError(f"line {no}: expected 'rank N'")
    n = _digits_value(m.group(1), len(str(STEINBERG_RANK_BOUND)))
    if n is None or n > STEINBERG_RANK_BOUND:
        raise DiagramError(f"line {no}: rank {m.group(1).lstrip('0')} exceeds the bound {STEINBERG_RANK_BOUND}")
    edges: dict[tuple[int, int], Weight] = {}
    for no, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise DiagramError(f"line {no}: expected 'i j m'")
        try:
            if not all(re.fullmatch(r"[0-9]+", x) for x in parts[:2]):
                raise ValueError(f"bad vertex pair {parts[0]} {parts[1]}")
            i, j = (_digits_value(x, len(str(n))) for x in parts[:2])  # None for too many digits
            w = parse_weight(parts[2])
        except ValueError as e:
            raise DiagramError(f"line {no}: {e}")
        if None in (i, j) or not (1 <= i <= n and 1 <= j <= n) or i == j:
            raise DiagramError(f"line {no}: bad vertex pair")
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges:
            raise DiagramError(f"line {no}: duplicate pair {i} {j}")
        if w < 2:
            raise DiagramError(f"line {no}: weight below 2")
        edges[key] = w
    return CoxeterDiagram(n, edges)


def diagram_from_file(path) -> CoxeterDiagram:
    with open(path, encoding="utf-8") as fh:
        return diagram_from_text(fh.read())


# -- geometric polygon / tree constructors -------------------------------------------


def polygon_diagram(*ps: int) -> CoxeterDiagram:
    """The reflection-group diagram of a compact polygon with angles pi/p_i.

    Cyclically consecutive generators i, i+1 get weight p_i; all other pairs
    get infinity (the corresponding sides are disjoint).
    """
    if len(ps) < 3:
        raise DiagramError("a polygon needs at least 3 sides")
    if any(p < 2 for p in ps):
        raise DiagramError("polygon parameters must be at least 2")
    _check_weight(max(ps))
    k = len(ps)
    edges: dict[tuple[int, int], Weight] = {}
    for i in range(k):
        for j in range(i + 1, k):
            if j == i + 1 or (i == 0 and j == k - 1):
                continue
            edges[(i, j)] = INF
    for i, p in enumerate(ps):
        a, b = i, (i + 1) % k
        edges[(min(a, b), max(a, b))] = p
    return CoxeterDiagram(k, edges)


def polygon_is_hyperbolic(ps) -> bool:
    """Angle-sum test: a compact polygon with angles pi/p_i exists iff sum 1/p_i < k - 2.

    Tested in integers: with P = prod p_i, each P/p_i is exact, and the test
    times P^2 > 0 reads (sum P/p_i) P < (k - 2) P^2 for any nonzero p_i."""
    ps = tuple(ps)
    whole = math.prod(ps)
    return sum(whole // p for p in ps) * whole < (len(ps) - 2) * whole * whole


class WeightedTree(Record):
    """A tree on vertices 0..n-1 with integer edge weights >= 3 or INF."""

    n: int
    edge_list: tuple[tuple[int, int, Weight], ...]

    def __init__(self, n: int, edge_list):
        if not isinstance(n, int):
            raise DiagramError(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise DiagramError("tree needs at least one vertex")
        edge_list = tuple(edge_list)
        if len(edge_list) != n - 1:
            raise DiagramError("a tree on n vertices has n-1 edges")
        edges = []
        seen = set()
        for i, j, w in edge_list:
            if not (isinstance(i, int) and isinstance(j, int)):
                raise DiagramError(f"bad edge ({i}, {j})")
            if i > j:
                i, j = j, i
            if not 0 <= i < j < n:
                raise DiagramError(f"bad edge ({i}, {j})")
            if (i, j) in seen:
                raise DiagramError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if not (isinstance(w, int) or w == INF) or w < 3:
                raise DiagramError(f"tree edge weight must be >= 3 or inf, got {w!r}")
            edges.append((i, j, w))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edge_list", tuple(edges))
        self.rooted()  # the connectivity check

    def rooted(self) -> list[tuple[int, int, Weight]]:
        """The tree rooted at 0 as (v, parent, weight of the edge to it),
        children first, the root last as (0, -1, 2), 2 being no edge: a
        breadth-first walk over edge_list.  DiagramError when the walk misses
        a vertex."""
        nbrs: list[list] = [[] for _ in range(self.n)]
        for i, j, w in self.edge_list:
            nbrs[i].append((j, w))
            nbrs[j].append((i, w))
        seen = [False] * self.n
        seen[0] = True
        order = [(0, -1, 2)]
        for v, _, _ in order:  # the list grows while it is walked
            for c, w in nbrs[v]:
                if not seen[c]:
                    seen[c] = True
                    order.append((c, v, w))
        if len(order) != self.n:
            raise DiagramError("tree is not connected")
        return order[::-1]

    def weights_used(self) -> set:
        return {w for _, _, w in self.edge_list}

    def to_diagram(self) -> CoxeterDiagram:
        return CoxeterDiagram(self.n, {(i, j): w for i, j, w in self.edge_list})


def _arm(edges: list, start: int, length: int, nxt: int, weight: Weight) -> int:
    """Append the path of new vertices nxt, ..., nxt + length - 1 hanging
    from start, in that order; the next free label, nxt + length."""
    for v in range(nxt, nxt + length):
        edges.append((start, v, weight))
        start = v
    return nxt + length


def _built(n: int, edges: list) -> WeightedTree:
    """WeightedTree(n, edges) checking only that n is an int, for star_diagram
    and h_graph: every label comes from range in _arm, every edge joins a new
    vertex to an older one (n - 1 distinct edges, connected), every weight is 3."""
    if not isinstance(n, int):
        raise DiagramError(f"vertex count must be an integer, got {n!r}")
    tree = object.__new__(WeightedTree)
    tree.__dict__.update(n=n, edge_list=tuple(edges))  # as copy and pickle restore a Record
    return tree


def path_tree(n: int, weight: Weight = 3) -> WeightedTree:
    if n < 1:
        raise DiagramError("path needs at least one vertex")
    edges: list = []
    _arm(edges, 0, n - 1, 1, weight)
    return WeightedTree(n, edges)


def star_diagram(*ps: int) -> WeightedTree:
    """The tree with one central vertex and arms of lengths p_i - 1, all weights 3.

    Vertex 0 is the center; arms are numbered consecutively outward.
    """
    n = _star_size(ps)
    edges: list = []
    nxt = 1
    for p in ps:
        nxt = _arm(edges, 0, p - 1, nxt, 3)
    return _built(n, edges)


def _star_size(ps) -> int:
    """The vertex count 1 + sum (p_i - 1) of star_diagram(*ps), found before
    any edge is made; DiagramError for no arm or a parameter below 2."""
    if len(ps) < 1:
        raise DiagramError("star needs at least one arm")
    if any(p < 2 for p in ps):
        raise DiagramError("star parameters must be at least 2")
    return 1 + sum(ps) - len(ps)


def h_graph(i: int, j: int, k: int) -> WeightedTree:
    """Two valency-3 vertices joined by a length-j path; each carries a pendant
    edge, plus arms of lengths i-1 and k-1.  All weights 3; i + j + k + 1 vertices.

    Labels: 0 the first branch vertex, 1 its pendant leaf, 2..i its long arm,
    then the interior path, the second branch vertex, its pendant, its arm.
    """
    if i < 2 or k < 2 or j < 1:
        raise DiagramError("need i, k >= 2 and j >= 1")
    edges: list = []
    nxt = _arm(edges, 0, 1, 1, 3)  # pendant leaf 1
    nxt = _arm(edges, 0, i - 1, nxt, 3)  # long arm 2..i
    nxt = _arm(edges, 0, j, nxt, 3)  # interior path, then the second branch vertex
    v2 = nxt - 1
    nxt = _arm(edges, v2, 1, nxt, 3)  # its pendant
    nxt = _arm(edges, v2, k - 1, nxt, 3)  # its long arm
    return _built(nxt, edges)


# -- spherical classification -----------------------------------------------------------


class SphericalType(Record):
    """A connected spherical component with its exponents."""

    family: str
    rank: int
    exponents: tuple[int, ...]
    m: int | None = None  # edge label for I2(m)

    def order(self) -> int:
        out = 1
        for e in self.exponents:
            out *= e + 1
        return out

    def __str__(self):
        if self.family == "I2":
            return f"I2({self.m})"
        if self.family in ("A", "B", "D"):
            return f"{self.family}{self.rank}"
        return self.family


_EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    "F4": (1, 5, 7, 11),
    "H3": (1, 5, 9),
    "H4": (1, 11, 19, 29),
}


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _edge_masks(d: CoxeterDiagram) -> tuple[list[int], list[int]]:
    """Per vertex, the bitmask of its neighbours (weight >= 3, INF too)
    and the bitmask of those joined to it by INF."""
    nbr, inf = [0] * d.n, [0] * d.n
    for i, row in enumerate(d.weights):
        for j, w in enumerate(row):
            if w >= 3:
                nbr[i] |= 1 << j
                if w == INF:
                    inf[i] |= 1 << j
    return nbr, inf


@functools.lru_cache(maxsize=4096)
def _path_type(word: tuple) -> SphericalType | None:
    """The type of the path on len(word) + 1 vertices with the edge weights
    word (integers >= 3) read from either end, or None if it is not spherical."""
    r = len(word) + 1
    if r == 2 and word[0] != 3:
        return SphericalType("I2", 2, (1, word[0] - 1), m=word[0])
    if all(w == 3 for w in word):
        return SphericalType("A", r, tuple(range(1, r + 1)))
    words = {word, word[::-1]}
    if (4,) + (3,) * (r - 2) in words:
        return SphericalType("B", r, tuple(range(1, 2 * r, 2)))
    if r == 4 and word == (3, 4, 3):
        return SphericalType("F4", 4, _EXCEPTIONAL_EXPONENTS["F4"])
    if r == 3 and (5, 3) in words:
        return SphericalType("H3", 3, _EXCEPTIONAL_EXPONENTS["H3"])
    if r == 4 and (5, 3, 3) in words:
        return SphericalType("H4", 4, _EXCEPTIONAL_EXPONENTS["H4"])
    return None


@functools.cache
def _branch_type(lengths: tuple[int, int, int]) -> SphericalType | None:
    """The type of one branch vertex with three arms of weight-3 edges, of
    the given lengths in increasing order, or None when it is not spherical."""
    r = 1 + sum(lengths)
    if lengths[:2] == (1, 1):
        return SphericalType("D", r, tuple(range(1, 2 * r - 2, 2)) + (r - 1,))
    if lengths in ((1, 2, 2), (1, 2, 3), (1, 2, 4)):
        return SphericalType(f"E{r}", r, _EXCEPTIONAL_EXPONENTS[f"E{r}"])
    return None


def _grow(weights, nbr: list[int], inf: list[int], shape: tuple, mask: int,
          v: int) -> tuple[tuple, SphericalType] | None:
    """The shape and type of the spherical set mask grown by its neighbour v,
    from the set's shape, or None when the grown set is not spherical; nbr and
    inf are the masks of _edge_masks.  A v with two neighbours or an INF edge
    in the set closes a cycle or holds an INF pair, so the grown set is not
    spherical.  Otherwise v is a leaf joined to the set at its one neighbour u
    there.  A shape is ("path", vertices in order, weight word) or ("branch",
    centre, its three weight-3 arms, vertex tuples from the centre outward).
    With x the weight of uv: at a path's end the word grows by x; at an inner
    vertex, u becomes a branch vertex, which needs x and the whole word to be
    3, with the two sides of u and (v,) as arms; at an arm tip, with x = 3,
    that arm grows; at any other vertex it is not spherical.  The one typing
    step of the package: finite_type_recognize and _connected_spherical_sets
    grow every spherical set by it.
    """
    touch = nbr[v] & mask
    if touch & touch - 1 or inf[v] & mask:
        return None
    u = touch.bit_length() - 1
    x = weights[u][v]
    kind, first, second = shape
    if kind == "path":
        if u == first[-1]:
            return _typed(("path", first + (v,), second + (x,)))
        if u == first[0]:
            return _typed(("path", (v,) + first, (x,) + second))
        if x != 3 or second.count(3) < len(second):
            return None
        i = first.index(u)
        return _typed(("branch", u, (first[i - 1::-1], first[i + 1:], (v,))))
    if x == 3:
        for k, arm in enumerate(second):
            if arm[-1] == u:
                return _typed(("branch", first, second[:k] + (arm + (v,),) + second[k + 1:]))
    return None


def _typed(shape: tuple) -> tuple[tuple, SphericalType] | None:
    """A shape with its type from the catalog, or None when it is not spherical."""
    kind, _, second = shape
    t = _path_type(second) if kind == "path" else _branch_type(tuple(sorted(map(len, second))))
    return None if t is None else (shape, t)


def finite_type_recognize(d: CoxeterDiagram) -> list[SphericalType] | None:
    """Split into connected components and match each against the spherical catalog.

    Returns the list of component types, ordered by least vertex, or None
    when any component is not spherical ("not finite" is a value, not an error).
    Each component grows from its least vertex by one neighbour v at a time,
    typed by _grow.  A step _grow refuses gives a non-spherical connected set,
    so d is not spherical: every connected part of a spherical diagram is
    spherical.
    """
    nbr, inf = _edge_masks(d)
    out = []
    left = (1 << d.n) - 1
    while left:
        v = (left & -left).bit_length() - 1
        comp, near, shape, t = 1 << v, nbr[v], ("path", (v,), ()), _path_type(())
        while near & ~comp:
            v = (near & ~comp).bit_length() - 1
            if (step := _grow(d.weights, nbr, inf, shape, comp, v)) is None:
                return None
            (shape, t), comp, near = step, comp | 1 << v, near | nbr[v]
        out.append(t)
        left &= ~comp
    return out


def _connected_spherical_sets(d: CoxeterDiagram) -> dict[int, tuple[SphericalType, int]]:
    """Each connected spherical vertex set of d, as a bitmask, with its type
    and the bitmask of the set and its neighbours.

    Sets grow from singletons, one-vertex paths, by one neighbour v (a bit of
    near & ~mask) at a time, typed by _grow from the parent's shape.  Each
    grown mask is marked seen before its one _grow call, so a set is typed
    once, and one that _grow refuses is refused once: a cycle or an INF pair
    belongs to the grown set, whichever parent reaches it.  Only spherical
    sets are queued, with their shape, type and near mask, near | nbr[v].
    Pruning at the first non-spherical set is sound: a parabolic subgroup of
    a finite group is finite, so a connected set containing a non-spherical
    one is not spherical; and a connected spherical set of size k+1 minus a
    non-cut vertex (a leaf of a spanning tree) is a connected spherical set
    of size k.
    """
    nbr, inf = _edge_masks(d)
    out: dict[int, tuple[SphericalType, int]] = {}
    todo = [(1 << v, ("path", (v,), ()), _path_type(()), 1 << v | nbr[v]) for v in range(d.n)]
    seen = {1 << v for v in range(d.n)}
    while todo:
        mask, shape, t, near = todo.pop()
        out[mask] = (t, near)
        for v in _bits(near & ~mask):
            if (grown := mask | 1 << v) not in seen:
                seen.add(grown)
                if (step := _grow(d.weights, nbr, inf, shape, mask, v)) is not None:
                    todo.append((grown, *step, near | nbr[v]))
    return out


# -- domination partial order ---------------------------------------------------------


DOMINATION_RANK_BOUND = 12


def _injection_exists(d: CoxeterDiagram, e: CoxeterDiagram) -> bool:
    """Is there an injection of d's vertices into e's with m <= m' on every pair?"""
    if d.n > e.n:
        return False
    # order d's vertices by decreasing constrainedness for better pruning
    order = sorted(range(d.n),
                   key=lambda v: -sum(1 for u in range(d.n) if u != v and d.weights[v][u] != 2))
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(pos: int) -> bool:
        if pos == d.n:
            return True
        v = order[pos]
        for target in range(e.n):
            if target in used:
                continue
            if all(d.weights[v][u] <= e.weights[target][tu] for u, tu in assigned.items()):
                assigned[v] = target
                used.add(target)
                if backtrack(pos + 1):
                    return True
                del assigned[v]
                used.remove(target)
        return False

    return backtrack(0)


def dominates(d: CoxeterDiagram, e: CoxeterDiagram) -> str:
    """The domination relation of d relative to e.

    Returns 'less' when e strictly dominates d, 'greater' when d strictly
    dominates e, 'isomorphic', or 'incomparable'.

    The two weight-raising injection searches also decide isomorphism.
    Injections f: d -> e and g: e -> d that never lower a weight force equal
    ranks, so g.f permutes the vertex pairs of d and no weight falls along
    any cycle of pairs: every weight along such a cycle is equal, and f is an
    isomorphism.  An isomorphism is an injection both ways.
    """
    if max(d.n, e.n) > DOMINATION_RANK_BOUND:
        raise DiagramError(f"domination search limited to rank {DOMINATION_RANK_BOUND}")
    less, greater = _injection_exists(d, e), _injection_exists(e, d)
    if less and greater:
        return "isomorphic"
    if less:
        return "less"
    if greater:
        return "greater"
    return "incomparable"
