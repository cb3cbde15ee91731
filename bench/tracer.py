"""Span tracing of the coxgrowth layers, from outside the package.

``Tracer.install`` wraps every public module-level function of the seven
layer modules, plus the few methods listed in ``METHODS``.  Because the
modules bind imported names directly (``from .roots import ...``), each
wrapper replaces the function under every name that any ``coxgrowth`` module
binds it to; methods are replaced on their class.  ``uninstall`` puts the
originals back.

A wrapped call opens a span: name, start, end, parent span and item.  Spans
stay in memory (compact arrays) and are rolled up when a pass ends: a span's
self time is its duration minus the durations of its child spans.  A call
merges into the enclosing span, instead of opening a child, when that span
has the same name: recursion, and the aliases grouped under one name in
``GROUPS`` (``certify_strictly_less`` calling ``refine_until_disjoint`` is one
``roots.separate`` span).  Calls between different functions of one layer do
open child spans, because several metrics are about such callees
(``roots.sturm_chain`` under ``roots.isolate``, ``intpoly.pseudo_rem`` under
``intpoly.poly_gcd``, ``numclass.disk_root_counts`` under
``numclass.classify``).

``COUNTED`` methods are too hot and too small for a span each; they are only
counted.  Their time stays in the enclosing span's self time.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("intpoly", "roots", "numclass", "diagram", "growth", "coxtrans", "spectra")

GROUPS = {
    "roots.isolate_largest_real_root": "roots.isolate",
    "roots.isolate_smallest_positive_root": "roots.isolate",
    "roots.isolate_real_roots": "roots.isolate",
    "roots.refine_until_disjoint": "roots.separate",
    "roots.certify_strictly_less": "roots.separate",
    "coxtrans.spectral_radius_coxeter": "coxtrans.spectral_radius",
    "coxtrans.spectral_radius_from_charpoly": "coxtrans.spectral_radius",
    "coxtrans.star_spectral_radius": "coxtrans.spectral_radius",
}

# (layer, class, method, span name)
METHODS = [
    ("intpoly", "IntPoly", "__mul__", "intpoly.mul"),
    ("roots", "RootInterval", "refined", "roots.refined"),
    ("diagram", "CoxeterDiagram", "subdiagram", "diagram.subdiagram"),
]

# (layer, class, method, counter name)
COUNTED = [
    ("intpoly", "IntPoly", "sign_at", "roots.sign_at_calls"),
    ("intpoly", "IntPoly", "__init__", "intpoly.constructed"),
    ("growth", "GrowthFunction", "__init__", "growth.growth_function.calls"),
]

# Per-layer metrics reported from a traced pass, with their units.
SPAN_METRICS = [
    ("roots.sturm_chain", ("calls", "self_s")),
    ("roots.isolate", ("calls", "self_s")),
    ("roots.refined", ("calls", "self_s")),
    ("roots.separate", ("calls",)),
    ("spectra.adjacency_char_poly", ("calls", "self_s")),
    ("coxtrans.char_poly_star", ("self_s",)),
    ("coxtrans.spectral_radius", ("self_s",)),
    ("numclass.strip_cyclotomic", ("calls", "self_s")),
    ("numclass.classify", ("self_s",)),
    ("numclass.disk_root_counts", ("calls", "self_s")),
    ("intpoly.exact_div", ("calls", "self_s")),
    ("intpoly.mul", ("calls", "self_s")),
    ("intpoly.pseudo_rem", ("self_s",)),
    ("intpoly.poly_gcd", ("self_s",)),
    ("growth.steinberg_growth", ("self_s",)),
    ("diagram.finite_type_recognize", ("calls", "self_s")),
]

DERIVED_METRICS = [
    ("roots.sign_at_calls", "count"),
    ("roots.sturm_chain.repeat_ratio", "ratio"),
    ("roots.sturm_chain.len_max", "count"),
    ("roots.sturm_chain.bits_max", "bits"),
    ("roots.separate.refined_per_call", "ratio"),
    ("numclass.strip_cyclotomic.divides_per_factor", "ratio"),
    ("numclass.disk_root_counts.degree_max", "degree"),
    ("numclass.disk_root_counts.bits_max", "bits"),
    ("intpoly.exact_div.fallback_ratio", "ratio"),
    ("intpoly.divides.hit_ratio", "ratio"),
    ("intpoly.constructed", "count"),
    ("intpoly.squarefree_part.repeat_ratio", "ratio"),
    ("intpoly.cyclotomic.hit_ratio", "ratio"),
    ("growth.steinberg_growth.subsets_per_call", "ratio"),
    ("growth.growth_function.calls", "count"),
    ("diagram.finite_type_recognize.spherical_ratio", "ratio"),
]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update(DERIVED_METRICS)
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.src_lines"] = "lines"
    units.update({"trace.items_per_s": "1/s", "trace.untraced_items_per_s": "1/s",
                  "trace.slowdown": "x"})
    return units


def src_lines(root: Path) -> dict[str, int]:
    out = {}
    for layer in LAYERS:
        with open(root / "src" / "coxgrowth" / f"{layer}.py") as fh:
            out[f"{layer}.src_lines"] = sum(1 for _ in fh)
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def _bits(polys) -> int:
    return max((abs(c).bit_length() for p in polys for c in p.coeffs), default=0)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self, cg):
        self.cg = cg
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- per-pass state ----------------------------------------------------------

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.item = -1
        self.counts = {counter: 0 for _, _, _, counter in COUNTED}
        self.counts.update({"strip.factors": 0, "exact_div.fallback": 0, "divides.hits": 0,
                            "sturm_chain.repeats": 0, "squarefree_part.repeats": 0,
                            "finite_type.spherical": 0})
        self.maxima = {"sturm_chain.len": 0, "sturm_chain.bits": 0,
                       "disk.degree": 0, "disk.bits": 0}
        self._seen_sturm: set = set()
        self._seen_sqf: set = set()

    def begin_item(self, index: int):
        self.item = index
        self._seen_sturm.clear()
        self._seen_sqf.clear()

    # -- wrappers ------------------------------------------------------------------

    def _span_wrapper(self, fn, name, observe=None):
        nid = self._id(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.span_name[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.span_end[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, True)
                raise
            tracer.span_end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, False)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, counter):
        tracer = self
        if counter == "roots.sign_at_calls":
            def wrapper(*args, **kwargs):
                stack = tracer.stack
                if stack and tracer.span_name[stack[-1]] in tracer._roots_ids:
                    tracer.counts[counter] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                tracer.counts[counter] += 1
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_is(self, name: str) -> bool:
        return bool(self.stack) and self.names[self.span_name[self.stack[-1]]] == name

    def _observers(self):
        c, m = self.counts, self.maxima

        def sturm_chain(args, chain, raised):
            if raised:
                return
            key = args[0].coeffs
            if key in self._seen_sturm:
                c["sturm_chain.repeats"] += 1
            self._seen_sturm.add(key)
            m["sturm_chain.len"] = max(m["sturm_chain.len"], len(chain))
            m["sturm_chain.bits"] = max(m["sturm_chain.bits"], _bits(chain))

        def squarefree_part(args, result, raised):
            key = args[0].coeffs
            if key in self._seen_sqf:
                c["squarefree_part.repeats"] += 1
            self._seen_sqf.add(key)

        def disk_root_counts(args, result, raised):
            h = args[0]
            m["disk.degree"] = max(m["disk.degree"], h.degree)
            m["disk.bits"] = max(m["disk.bits"], _bits([h]))

        def divides(args, result, raised):
            if result:
                c["divides.hits"] += 1

        def divmod_exact_lc(args, result, raised):
            if (raised or result[1]) and self._parent_is("intpoly.exact_div"):
                c["exact_div.fallback"] += 1

        def strip_cyclotomic(args, result, raised):
            if not raised:
                c["strip.factors"] += sum(mult for _, mult in result[1])

        def finite_type_recognize(args, result, raised):
            if result is not None:
                c["finite_type.spherical"] += 1

        return {
            "roots.sturm_chain": sturm_chain,
            "intpoly.squarefree_part": squarefree_part,
            "numclass.disk_root_counts": disk_root_counts,
            "intpoly.divides": divides,
            "intpoly.divmod_exact_lc": divmod_exact_lc,
            "numclass.strip_cyclotomic": strip_cyclotomic,
            "diagram.finite_type_recognize": finite_type_recognize,
        }

    def _rebind(self, original, wrapper):
        """Replace original under every name a coxgrowth module binds it to."""
        for modname, mod in list(sys.modules.items()):
            if modname != "coxgrowth" and not modname.startswith("coxgrowth."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._installed.append((mod, attr, original))

    def _rebind_method(self, cls, original, wrapper):
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, wrapper)
                self._installed.append((cls, attr, original))

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        for layer in LAYERS:
            mod = getattr(self.cg, layer)
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = GROUPS.get(f"{layer}.{attr}", f"{layer}.{attr}")
                self._rebind(fn, self._span_wrapper(fn, name, observers.get(name)))
        for layer, clsname, attr, name in METHODS:
            cls = getattr(getattr(self.cg, layer), clsname)
            fn = vars(cls)[attr]
            self._rebind_method(cls, fn, self._span_wrapper(fn, name, observers.get(name)))
        self._roots_ids = {i for i, name in enumerate(self.names) if name.startswith("roots.")}
        for layer, clsname, attr, counter in COUNTED:
            cls = getattr(getattr(self.cg, layer), clsname)
            fn = vars(cls)[attr]
            self._rebind_method(cls, fn, self._count_wrapper(fn, counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- roll-up -------------------------------------------------------------------

    def rollup(self, cache_hits: int, cache_misses: int) -> dict[str, float]:
        """The per-layer metrics of the pass just traced."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_s[names[i]] += dur[i] - child[i]

        def span_calls(name):
            return calls[self._ids[name]] if name in self._ids else 0

        def span_self(name):
            return self_s[self._ids[name]] if name in self._ids else 0.0

        def children(child_name, parent_name):
            cid, pid = self._ids.get(child_name), self._ids.get(parent_name)
            return sum(1 for i in range(n)
                       if names[i] == cid and parents[i] >= 0 and names[parents[i]] == pid)

        c, m = self.counts, self.maxima
        out: dict[str, float] = {}
        for span, fields in SPAN_METRICS:
            for f in fields:
                out[f"{span}.{f}"] = span_calls(span) if f == "calls" else span_self(span)
        out.update({
            "roots.sign_at_calls": c["roots.sign_at_calls"],
            "roots.sturm_chain.repeat_ratio": _ratio(c["sturm_chain.repeats"],
                                                     span_calls("roots.sturm_chain")),
            "roots.sturm_chain.len_max": m["sturm_chain.len"],
            "roots.sturm_chain.bits_max": m["sturm_chain.bits"],
            "roots.separate.refined_per_call": _ratio(children("roots.refined", "roots.separate"),
                                                      span_calls("roots.separate")),
            "numclass.strip_cyclotomic.divides_per_factor": _ratio(
                children("intpoly.divides", "numclass.strip_cyclotomic"), c["strip.factors"]),
            "numclass.disk_root_counts.degree_max": m["disk.degree"],
            "numclass.disk_root_counts.bits_max": m["disk.bits"],
            "intpoly.exact_div.fallback_ratio": _ratio(c["exact_div.fallback"],
                                                       span_calls("intpoly.exact_div")),
            "intpoly.divides.hit_ratio": _ratio(c["divides.hits"], span_calls("intpoly.divides")),
            "intpoly.constructed": c["intpoly.constructed"],
            "intpoly.squarefree_part.repeat_ratio": _ratio(c["squarefree_part.repeats"],
                                                           span_calls("intpoly.squarefree_part")),
            "intpoly.cyclotomic.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
            "growth.steinberg_growth.subsets_per_call": _ratio(
                children("diagram.finite_type_recognize", "growth.steinberg_growth"),
                span_calls("growth.steinberg_growth")),
            "growth.growth_function.calls": c["growth.growth_function.calls"],
            "diagram.finite_type_recognize.spherical_ratio": _ratio(
                c["finite_type.spherical"], span_calls("diagram.finite_type_recognize")),
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(self_s[i] for i, name in enumerate(self.names)
                                         if name.startswith(layer + "."))
        return out

    def write_spans(self, path: Path):
        """The spans of the pass just traced, one tab-separated line each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("span\tparent\titem\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if len(self.span_start) else 0.0
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.span_item[i]}\t"
                         f"{self.names[self.span_name[i]]}\t{self.span_start[i] - t0:.9f}\t"
                         f"{self.span_end[i] - t0:.9f}\n")
