"""Package-wide rules: invariants raise instead of asserting, parsers take ASCII digits."""

import argparse
import ast
import re
from pathlib import Path

import pytest

import coxgrowth
from coxgrowth.cli import _parse_int_list, _parse_width, build_parser
from coxgrowth.diagram import diagram_from_text, parse_coxeter_symbol, parse_weight
from coxgrowth.intpoly import parse_poly
from coxgrowth.salemdb import SalemListError, parse_salem_line

SRC = Path(coxgrowth.__file__).parent


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so invariants must raise explicitly
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts at lines {lines}"


_ROOT_COMPARISONS = {"overlaps", "is_disjoint_from", "is_strictly_below"}
# separation by refinement, and its failure, which compare turns into its verdict
_ROOT_SEPARATIONS = {"SeparationError", "refine_until_disjoint", "certify_strictly_less"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "roots.py"),
                         ids=lambda p: p.name)
def test_root_intervals_are_compared_only_by_roots_compare(path):
    # every yes/no about the order or equality of two roots goes through roots.compare
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in _ROOT_COMPARISONS
             or isinstance(node, ast.Name) and node.id in _ROOT_SEPARATIONS
             or isinstance(node, ast.Attribute) and node.attr in _ROOT_SEPARATIONS
             or isinstance(node, ast.alias) and node.name in _ROOT_SEPARATIONS]
    assert lines == [], f"{path.name} compares root intervals by hand at lines {lines}"


_REMAINDER_KERNEL_HOMES = {"intpoly.py"}
_REMAINDER_KERNEL_NAMES = {"pseudo_rem", "_divide"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name not in _REMAINDER_KERNEL_HOMES),
                         ids=lambda p: p.name)
def test_remainder_sequences_come_only_from_roots(path):
    # one remainder-sequence kernel, in intpoly: gcds come from intpoly, Sturm
    # chains and Cauchy indices from roots on top of it; no other module, roots
    # included, runs pseudo-remainders or the long division behind them itself
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id in _REMAINDER_KERNEL_NAMES
                  or isinstance(node.func, ast.Attribute) and node.func.attr in _REMAINDER_KERNEL_NAMES)]
    assert lines == [], f"{path.name} calls pseudo_rem or _divide at lines {lines}"


_GROW_PROTOCOL_NAMES = {"_grow", "_typed", "_path_type", "_branch_type", "_edge_masks", "_bits"}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "diagram.py"),
                         ids=lambda p: p.name)
def test_spherical_sets_are_grown_only_in_diagram(path):
    # one grow protocol, in diagram: finite_type_recognize and the connected
    # spherical sets of the Steinberg sum are grown there, and no other module
    # reads the grow step, its shapes, its catalog or its bitmasks
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in _GROW_PROTOCOL_NAMES
             or isinstance(node, ast.Attribute) and node.attr in _GROW_PROTOCOL_NAMES
             or isinstance(node, ast.alias) and node.name in _GROW_PROTOCOL_NAMES]
    assert lines == [], f"{path.name} reads diagram's grow protocol at lines {lines}"


_CODE_GENERATORS = {"dataclasses", "namedtuple", "NamedTuple"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_importing_generates_no_code(path):
    # dataclasses and named tuples write their methods as source and exec it
    # when the class is made, and dataclasses imports inspect: records
    # subclass coxgrowth.record.Record, so importing the package execs nothing
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
             or isinstance(node, ast.alias) and node.name in _CODE_GENERATORS
             or isinstance(node, ast.Attribute) and node.attr in _CODE_GENERATORS
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in {"exec", "eval"}]
    assert lines == [], f"{path.name} generates code at lines {lines}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """The names that the module's imports bind, each with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


# __init__.py imports only to re-export
_IMPORTING_MODULES = sorted([*(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                             *Path(__file__).parent.glob("*.py")])


@pytest.mark.parametrize("path", _IMPORTING_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in _imported_names(tree).items()
                    if name not in used)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def _private_definitions(node: ast.stmt) -> list[str]:
    """The private names that a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used_in_src():
    # a private top-level name serves src alone, so some other top-level
    # statement of src reads it; a helper left behind by a removed caller fails
    statements = [(path.name, node) for path in sorted(SRC.glob("*.py"))
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    readers: dict[str, set[int]] = {}
    for i, (_, node) in enumerate(statements):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                readers.setdefault(sub.id, set()).add(i)
            elif isinstance(sub, ast.Attribute):
                readers.setdefault(sub.attr, set()).add(i)
    unused = [(file, node.lineno, name) for i, (file, node) in enumerate(statements)
              for name in _private_definitions(node) if not readers.get(name, set()) - {i}]
    assert unused == [], f"private names that src never reads: {unused}"


# a construction from the paper, exported for its own sake
_EXPORTS_WITHOUT_CALLER = {"weight4_leaf_replace"}
_CALLER_DIRS = [SRC, *(Path(__file__).parent.parent / d for d in ("demos", "bench"))]


def _names_read(node: ast.stmt) -> set[str]:
    """The names that a top-level statement reads: names, attributes, and the
    last part of a dotted string such as "roots.isolate_largest_real_root", which is
    how bench/tracer.py names the functions that it wraps."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and re.fullmatch(r"\w+(\.\w+)+", sub.value):
            out.add(sub.value.rsplit(".", 1)[1])
    return out


def test_every_exported_name_has_a_caller():
    # a public name of the package serves src, the demos or the benchmark;
    # one that only tests use belongs in tests/oracles.py
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set()
    for path in sorted(p for d in _CALLER_DIRS for p in d.rglob("*.py")):
        if path == SRC / "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defined = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            read |= _names_read(node) - defined
    unused = sorted(exported - read - _EXPORTS_WITHOUT_CALLER)
    assert unused == [], f"exported names with no caller in src, demos or bench: {unused}"


def _option(*argv):
    """Parses a value of the command-line option that ends argv."""
    def parse(text):
        return build_parser().parse_args([*argv, text])
    parse.__name__ = " ".join(argv)
    return parse


_INT_OPTIONS = [("salem", "--max-k"), ("salem", "--max-p"), ("verify", "table1", "--max-k"),
                ("verify", "table1", "--max-p"), ("verify", "table1", "--rmax"),
                ("verify", "table1", "--jmax")]


def test_integer_options_take_ascii_digits():
    for argv in _INT_OPTIONS:
        assert getattr(_option(*argv)("25"), argv[-1][2:].replace("-", "_")) == 25


@pytest.mark.parametrize("parse,text,error", [
    (parse_poly, "١,٢", ValueError),                       # Arabic-Indic digits
    (parse_poly, "1,２", ValueError),                       # fullwidth digit
    (parse_weight, "٣", ValueError),
    (parse_coxeter_symbol, "[٣,٥,٣]", ValueError),
    (parse_coxeter_symbol, "[(3^٢,inf)]", ValueError),      # repetition count
    (_parse_int_list, "٢,٣,٧", argparse.ArgumentTypeError),
    (diagram_from_text, "rank ٣\n1 2 3\n", ValueError),
    (diagram_from_text, "rank 3\n١ 2 3\n", ValueError),
    (parse_salem_line, "١٠;1,1,0,-1,-1,-1,-1,-1,0,1,1;1.17628", SalemListError),
    (_parse_width, "١/١٠٠٠", argparse.ArgumentTypeError),
    *[(_option(*argv), text, SystemExit) for argv in _INT_OPTIONS for text in ("٣", "2_5")],
])
def test_parsers_reject_non_ascii_digits(parse, text, error):
    with pytest.raises(error):
        parse(text)
