"""Command-line front end.

Subcommands: growth, coxtrans, spectra, classify, salem, and verify with its
named checks.  All numeric output is printed with 7 decimals together with
the certified interval width; --json switches to a single machine-readable
object on stdout.  Exit status: 0 on success (and a passing verification),
1 on a computation error or a stdout closed by its reader, 2 on usage errors.

`spectra --table1` and `verify table1` share `_verify_table1` over
`spectra.TABLE1`.  `verify theorem2` runs
`coxtrans.coxeter_tree_radius_equals_polygon_rate` alone and isolates no
root (that function's docstring has the proof); the tests cross-check its
verdict against the rate of the full growth function.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import coxtrans, growth, salemdb, spectra
from .diagram import (
    CoxeterDiagram,
    DiagramError,
    WeightedTree,
    diagram_from_file,
    h_graph,
    parse_coxeter_symbol,
    path_tree,
    polygon_diagram,
    polygon_is_hyperbolic,
    star_diagram,
)
from .intpoly import INT_DIGITS_BOUND, IntPoly, _digits_value, parse_poly
from .numclass import classify, strip_cyclotomic
from .roots import DEFAULT_WIDTH, RootInterval, _decimal_text


def _interval_payload(iv: RootInterval) -> dict:
    digits = next((d for d in range(7, 40) if Fraction(1, 10**d) <= iv.width), 40)
    return {
        "low": _decimal_text(math.floor(iv.low * 10**digits), digits),
        "high": _decimal_text(math.ceil(iv.high * 10**digits), digits),
        "decimal": iv.decimal(),
        "width": f"{float(iv.width):.2e}" if iv.width else "0",
        "exact_low": str(iv.low),
        "exact_high": str(iv.high),
    }


# The narrowest width accepted.  Bisection time grows faster than the digits
# asked for: on a 2-CPU host "growth --symbol [3,5,3]" takes about 2 s at
# 1e-1000 and 24 s at 1e-3000.
MIN_WIDTH = Fraction(1, 10**1000)


def _parse_width(text: str) -> Fraction:
    bad = argparse.ArgumentTypeError(f"bad width {text!r}; use forms like 1e-9 or 1/1000000000")
    # a longer exponent would make Fraction build 10**exponent before any check
    exponent = text.lower().partition("e")[2].lstrip("+-")
    if not text.isascii() or "_" in text or len(exponent) > 5:
        raise bad
    try:
        width = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise bad from None
    if width <= 0:
        raise argparse.ArgumentTypeError("width must be positive")
    if width < MIN_WIDTH:
        raise argparse.ArgumentTypeError("width must be at least 1e-1000")
    return width


def _parse_int(text: str) -> int:
    """An integer in ASCII digits, with an optional minus sign, and at most
    INT_DIGITS_BOUND digits after its leading zeros."""
    text = text.strip()
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    if (value := _digits_value(digits)) is None:
        raise argparse.ArgumentTypeError(f"integer of more than {INT_DIGITS_BOUND} digits")
    return -value if text.startswith("-") else value


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(x) for x in text.split(","))
    except argparse.ArgumentTypeError as e:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}: {e}") from None


def _diagram_from_args(args) -> CoxeterDiagram:
    if args.symbol:
        return parse_coxeter_symbol(args.symbol)
    if args.file:
        return diagram_from_file(args.file)
    # the rank follows from the parameters: reject it before building the table
    if args.polygon:
        growth._check_rank(len(args.polygon))
        return polygon_diagram(*args.polygon)
    for kind, params in (("star", args.star), ("h", args.hgraph)):
        if params:
            return _tree(kind, params, growth._check_rank).to_diagram()
    raise DiagramError("no diagram given; use --symbol, --file, --polygon, --star or --hgraph")


def _tree(kind: str, params: tuple[int, ...], check) -> WeightedTree:
    """The star, H-graph or path of the parameters, check(vertex count) run first."""
    if kind == "star":
        check(1 + sum(p - 1 for p in params))
        return star_diagram(*params)
    if kind == "h":
        check(sum(params) + 1)
        if len(params) != 3:
            raise DiagramError(f"an H-graph takes three parameters i,j,k, got {len(params)}")
        return h_graph(*params)
    if len(params) != 1:
        raise DiagramError(f"a path takes one parameter n, got {len(params)}")
    check(params[0])
    return path_tree(*params)


def _label(kind: str, params: tuple[int, ...]) -> str:
    """The star or H-graph of the parameters as text, as in Star(2, 3, 7)."""
    return f"{'Star' if kind == 'star' else 'H'}{params}"


def _tree_from_spec(text: str) -> WeightedTree:
    kind, _, rest = text.partition(":")
    params = _parse_int_list(rest) if rest else ()
    kind = {"h": "h", "hgraph": "h", "star": "star", "path": "path"}.get(kind.strip().lower())
    if kind is None:
        raise DiagramError(f"unknown tree spec {text!r}; use H:i,j,k / Star:p1,..,pk / Path:n")
    return _tree(kind, params, coxtrans._check_vertices)


def _cmd_growth(args) -> tuple[bool, dict]:
    d = _diagram_from_args(args)
    f = growth.steinberg_growth(d)
    payload: dict = {
        "numerator": f.numerator.to_text(),
        "denominator": f.denominator.to_text(),
    }
    core, factors = strip_cyclotomic(f.denominator)
    payload["denominator_core"] = core.to_text()
    payload["cyclotomic_factors"] = [{"index": n, "multiplicity": m} for n, m in factors]
    try:
        rate = growth.growth_rate(f, args.width)
        payload["growth_rate"] = _interval_payload(rate)
        rev = core.reversed()
        if core.degree >= 1 and core.is_monic() and (core.degree <= 44 or rev in (core, -core)):
            payload["classification"] = sorted(classify(core).labels)
        else:
            # a non-reciprocal core above degree 44 is not classified; raising
            # the cutoff changes which cores are.  The Perron check counts the
            # roots of p(ct) at dyadic scales c of at most 128 bits: 0.04-0.35 s
            # on random monic inputs of degree 44-50, at most 1.3 s at degree
            # 64 (CPython 3.11, one core of a 2-CPU Xeon host)
            payload["classification"] = None
    except growth.NotExponentialError:
        payload["growth_rate"] = None
        payload["classification"] = []
    return True, payload


def _cmd_coxtrans(args) -> tuple[bool, dict]:
    for kind, params in (("star", args.star), ("h", args.hgraph)):
        if params:
            tree, label = _tree(kind, params, coxtrans._check_vertices), _label(kind, params)
            break
    else:
        if not args.tree:
            raise DiagramError("no tree given; use --star, --hgraph or --tree")
        tree, label = _tree_from_spec(args.tree), args.tree
    phi = coxtrans.char_poly_recursive(tree)
    radius = coxtrans.spectral_radius_from_charpoly(phi, args.width)
    core, factors = strip_cyclotomic(phi)
    payload = {
        "tree": label,
        "vertices": tree.n,
        "char_poly": phi.to_text(),
        "char_poly_core": core.to_text(),
        "cyclotomic_factors": [{"index": n, "multiplicity": m} for n, m in factors],
        "spectral_radius": _interval_payload(radius),
    }
    return True, payload


def _cmd_spectra(args) -> tuple[bool, dict]:
    if args.table1:
        return _verify_table1(args)
    if not args.tree:
        raise DiagramError("no input; use --tree or --table1")
    tree = _tree_from_spec(args.tree)
    iv = spectra.spectral_radius_adjacency(tree, args.width)
    return True, {
        "tree": args.tree,
        "vertices": tree.n,
        "adjacency_char_poly": iv.poly.to_text(),
        "spectral_radius": _interval_payload(iv),
    }


# The largest degree classify --poly and salem --target accept: on random monic inputs
# with coefficients in [-3, 3], classify took at most 1.07 s at degree 160, 3.4 s at 200
# and 129 s at 400 (one core of a 2-CPU host).
CLASSIFY_DEGREE_BOUND = 160
# The most bits of a coefficient they accept: on random monic inputs with 16-bit
# coefficients, classify and strip_cyclotomic took at most 2.6 s at degree 160 and
# 12.9 s at degree 64, the largest degree whose Perron check counts the roots of
# p(ct) (9.4 s with 14 bits); 30 decimal digits at degree 160 took over 30 s.
CLASSIFY_COEFFICIENT_BITS = 16


def _poly_arg(text: str) -> IntPoly:
    """The polynomial of --poly or --target; ValueError, before any work, above
    CLASSIFY_DEGREE_BOUND or CLASSIFY_COEFFICIENT_BITS."""
    p = parse_poly(text)
    if p.degree > CLASSIFY_DEGREE_BOUND:
        raise ValueError(f"degree {p.degree} exceeds the bound {CLASSIFY_DEGREE_BOUND}")
    for pos, c in enumerate(p.coeffs, start=1):
        if c.bit_length() > CLASSIFY_COEFFICIENT_BITS:
            raise ValueError(f"coefficient at position {pos} has more than {CLASSIFY_COEFFICIENT_BITS} bits")
    return p


def _cmd_classify(args) -> tuple[bool, dict]:
    p = _poly_arg(args.poly)
    nc = classify(p)
    core, factors = strip_cyclotomic(p)
    return True, {
        "poly": p.to_text(),
        "degree": p.degree,
        "roots_outside_unit_disk": nc.roots_outside_unit_disk,
        "roots_on_unit_circle": nc.roots_on_unit_circle,
        "roots_inside": nc.roots_inside,
        "labels": sorted(nc.labels),
        "core": core.to_text(),
        "cyclotomic_factors": [{"index": n, "multiplicity": m} for n, m in factors],
    }


def _cmd_salem(args) -> tuple[bool, dict]:
    if args.search:
        if not args.target:
            raise DiagramError("--search requires --target")
        max_k, max_p = _bounds(args, VERIFY_MAX_K, VERIFY_MAX_P, _polygons_exist)
        target = _poly_arg(args.target)
    elif args.target is not None:
        raise DiagramError("--target requires --search")
    path = salemdb.list_path(args.list)
    entries = salemdb.load_salem_list(path)
    payload: dict = {
        "entries": len(entries),
        "source": path or "bundled mini list",
    }
    if args.gap:
        rep = salemdb.gap_report(entries, assume_full=bool(path))
        payload["gap"] = {
            "first_rate": _interval_payload(rep.first_rate),
            "second_rate": _interval_payload(rep.second_rate),
            "below_first": [e.poly.to_text() for e in rep.below_first],
            "equal_first": [e.poly.to_text() for e in rep.equal_first],
            "band": [e.poly.to_text() for e in rep.band],
            "at_or_above_second": [e.poly.to_text() for e in rep.at_or_above_second],
            "notes": rep.ordinal_notes(),
        }
        if path:
            payload["gap"]["entries_below_second"] = salemdb.count_entries_below(
                entries, rep.second_rate)
            rate_353 = growth.growth_rate(
                growth.steinberg_growth(parse_coxeter_symbol("[3,5,3]")), Fraction(1, 10**12))
            payload["gap"]["entries_below_rate_353"] = salemdb.count_entries_below(
                entries, rate_353)
    if args.search:
        res = salemdb.polygon_realization_search(target, max_k, max_p)
        payload["search"] = {
            "target": target.to_text(),
            "matches": [list(m) for m in res.matches],
            "tuples_examined": res.tuples_examined,
        }
    return True, payload


# The largest --max-k and --max-p of salem --search and verify delta-phi, theorem2
# and second-minimal; the BENCH_<n>.json files time theorem2 at (6, 12).
VERIFY_MAX_K, VERIFY_MAX_P = 6, 12


def _stars_exist(k: int, p: int) -> bool:
    """Whether delta-phi has a star with 1..k arms, each parameter in 2..p."""
    return k >= 1 and p >= 2


def _polygons_exist(k: int, p: int) -> bool:
    """Whether a hyperbolic polygon has 3..k sides and every p_i in 2..p;
    (p, ..., p) with k sides is the furthest from the angle-sum limit."""
    return k >= 3 and p >= 2 and polygon_is_hyperbolic((p,) * k)


def _bounds(args, k_default: int, p_default: int, exist) -> tuple[int, int]:
    """--max-k and --max-p, or the check's defaults.  ValueError, before any
    tuple is built, above VERIFY_MAX_K or VERIFY_MAX_P, or when exist(k, p)
    says the sweep checks nothing."""
    max_k = args.max_k if args.max_k is not None else k_default
    max_p = args.max_p if args.max_p is not None else p_default
    if max_k > VERIFY_MAX_K or max_p > VERIFY_MAX_P:
        raise ValueError(f"bounds must be at most max_k={VERIFY_MAX_K}, max_p={VERIFY_MAX_P}")
    if not exist(max_k, max_p):
        raise ValueError(f"bounds max_k={max_k}, max_p={max_p} leave nothing to check")
    return max_k, max_p


def _verify_delta_phi(args) -> tuple[bool, dict]:
    max_k, max_p = _bounds(args, 5, 8, _stars_exist)
    checked = 0
    for k in range(1, max_k + 1):
        for ps in itertools.combinations_with_replacement(range(2, max_p + 1), k):
            if not coxtrans.verify_delta_eq_phi(*ps):
                return False, {"failed_at": list(ps)}
            checked += 1
    return True, {"tuples_checked": checked, "max_k": max_k, "max_p": max_p}


def _verify_theorem2(args) -> tuple[bool, dict]:
    max_k, max_p = _bounds(args, 5, 8, _polygons_exist)
    tuples = [ps for k in range(3, max_k + 1) for ps in growth._hyperbolic_tuples(k, max_p)]
    bad = [list(ps) for ps in tuples if not coxtrans.coxeter_tree_radius_equals_polygon_rate(ps)]
    return not bad, {"hyperbolic_tuples": len(tuples), "failures": bad,
                     "max_k": max_k, "max_p": max_p}


def _verify_second_minimal(args) -> tuple[bool, dict]:
    max_k, max_p = _bounds(args, 5, 9, _polygons_exist)
    rep = growth.verify_second_minimal_polygon(max_k, max_p)
    return rep.passed, {
        "reference_rate": _interval_payload(rep.reference_rate),
        "cases": [{"name": c.name, "passed": c.passed, "details": c.details}
                  for c in rep.cases],
    }


def _verify_prop52(args) -> tuple[bool, dict]:
    rep = spectra.prop52_pipeline(args.rmax, args.jmax)
    tr = rep.tree_report
    return rep.passed, {
        "lambda0": _interval_payload(rep.lambda0),
        "alpha0": _interval_payload(rep.alpha0),
        "lambda_below_threshold": rep.lambda_below_threshold,
        "alpha_in_window": rep.alpha_in_window,
        "trees_checked": tr.items_checked,
        "below_value": tr.items_below,
        "above_value": tr.items_above,
        "monotone_families": tr.monotone_families,
        "notes": list(rep.notes),
    }


def _verify_table1(args) -> tuple[bool, dict]:
    """The Table 1 radii at args.width against their published values."""
    rows = []
    for family, params, ref, _ in spectra.TABLE1:
        iv = spectra.spectral_radius_adjacency(_tree(family, params, coxtrans._check_vertices), args.width)
        rows.append({
            "graph": _label(family, params),
            "reference": ref,
            "computed": _interval_payload(iv),
            "agrees": abs(iv.midpoint() - Fraction(ref)) <= Fraction(1, 10**6) + iv.width,
        })
    ok = all(row["agrees"] for row in rows)
    return ok, {"table1": rows, "all_agree": ok}


def _verify_chain_fig1(args) -> tuple[bool, dict]:
    d38 = parse_coxeter_symbol("[3,8]")
    d3i = parse_coxeter_symbol("[3,inf]")
    cyc = parse_coxeter_symbol("[(3^2,inf)]")
    first = growth.monotonicity_check(d38, d3i)
    second = growth.monotonicity_check(d3i, cyc)
    return first.passed and second.passed, {
        "rates": {
            "[3,8]": _interval_payload(first.low_rate),
            "[3,inf]": _interval_payload(first.high_rate),
            "[(3^2,inf)]": _interval_payload(second.high_rate),
        },
        "first_strictly_less": first.passed,
        "second_strictly_less": second.passed,
    }


_VERIFY_DISPATCH = {
    "delta-phi": _verify_delta_phi,
    "second-minimal": _verify_second_minimal,
    "prop52": _verify_prop52,
    "theorem2": _verify_theorem2,
    "table1": _verify_table1,
    "chain-fig1": _verify_chain_fig1,
}


def _cmd_verify(args) -> tuple[bool, dict]:
    passed, details = _VERIFY_DISPATCH[args.check](args)
    return passed, {"check": args.check, "passed": passed, **details}


def _common_options(parser, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output",
                        **({"default": d} if suppress else {}))
    parser.add_argument("--no-meta", action="store_true", dest="no_meta",
                        help="omit the timestamp field",
                        **({"default": d} if suppress else {}))
    parser.add_argument("--width", type=_parse_width,
                        default=argparse.SUPPRESS if suppress else DEFAULT_WIDTH,
                        help="certified interval width (default 1e-9)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxgrowth",
        description="Exact growth rates of Coxeter systems and spectra of Coxeter trees",
    )
    _common_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("growth", help="growth series and growth rate of a Coxeter system")
    _common_options(g, suppress=True)
    g.add_argument("--symbol", help='Coxeter symbol, e.g. "[3,5,3]" or "[(3^2,inf)]"')
    g.add_argument("--file", help="diagram file (rank N; lines 'i j m')")
    g.add_argument("--polygon", type=_parse_int_list, help="polygon angles p1,...,pk")
    g.add_argument("--star", type=_parse_int_list, help="star parameters p1,...,pk")
    g.add_argument("--hgraph", type=_parse_int_list, help="H-graph parameters i,j,k")
    g.set_defaults(func=_cmd_growth)

    c = sub.add_parser("coxtrans", help="Coxeter transformation of a tree")
    _common_options(c, suppress=True)
    c.add_argument("--star", type=_parse_int_list)
    c.add_argument("--hgraph", type=_parse_int_list)
    c.add_argument("--tree", help="H:i,j,k / Star:p1,..,pk / Path:n")
    c.set_defaults(func=_cmd_coxtrans)

    s = sub.add_parser("spectra", help="adjacency spectra of weight-3 trees")
    _common_options(s, suppress=True)
    s.add_argument("--tree", help="H:i,j,k / Star:p1,..,pk / Path:n")
    s.add_argument("--table1", action="store_true", help="reproduce the benchmark radii")
    s.set_defaults(func=_cmd_spectra)

    k = sub.add_parser("classify", help="unit-circle root counts and labels")
    _common_options(k, suppress=True)
    k.add_argument("--poly", required=True, help="ascending coefficients, e.g. 1,1,0,-1,...")
    k.set_defaults(func=_cmd_classify)

    m = sub.add_parser("salem", help="Salem list queries")
    _common_options(m, suppress=True)
    m.add_argument("--list",
                   help=f"list file (default ${salemdb.ENV_LIST_PATH} or bundled mini list)")
    m.add_argument("--gap", action="store_true", help="gap partition against the two smallest rates")
    m.add_argument("--search", action="store_true", help="search polygons realizing --target")
    m.add_argument("--target", help="target polynomial, ascending coefficients")
    m.add_argument("--max-k", type=_parse_int, help=f"default and bound: {VERIFY_MAX_K}")
    m.add_argument("--max-p", type=_parse_int, help=f"default and bound: {VERIFY_MAX_P}")
    m.set_defaults(func=_cmd_salem)

    v = sub.add_parser("verify", help="run a named verification")
    _common_options(v, suppress=True)
    v.add_argument("check", choices=sorted(_VERIFY_DISPATCH))
    v.add_argument("--max-k", type=_parse_int, default=None,
                   help="per-check default: 5")
    v.add_argument("--max-p", type=_parse_int, default=None,
                   help="per-check default: 8 (9 for second-minimal)")
    v.add_argument("--rmax", type=_parse_int, default=25)
    v.add_argument("--jmax", type=_parse_int, default=25)
    v.set_defaults(func=_cmd_verify)
    return parser


def _print_human(command: str, payload: dict, out):
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key, val in obj.items():
                if isinstance(val, (dict, list, tuple)):
                    print(f"{pad}{key}:", file=out)
                    walk(val, indent + 1)
                else:
                    print(f"{pad}{key}: {val}", file=out)
        elif isinstance(obj, (list, tuple)):
            for val in obj:
                if isinstance(val, (dict, list, tuple)):
                    walk(val, indent)
                    print(file=out)
                else:
                    print(f"{pad}- {val}", file=out)

    print(f"[{command}]", file=out)
    walk(payload)


# The options whose value is a coefficient list, which may start with '-'.
_COEFFICIENT_OPTIONS = ("--poly", "--target")


def _join_coefficient_values(argv: list[str]) -> list[str]:
    """argv with "--poly -1,..." joined into "--poly=-1,..." (and so for
    --target and the abbreviations argparse accepts, such as --pol): argparse
    reads a value that starts with '-' and holds more than a number as an
    option, and stops with "expected one argument"."""
    out: list[str] = []
    for arg in argv:
        option = out[-1] if out else ""
        if (len(option) > 2 and any(o.startswith(option) for o in _COEFFICIENT_OPTIONS)
                and arg[:1] == "-" and arg[1:2].isdigit()):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_coefficient_values(sys.argv[1:] if argv is None else argv))
    try:
        passed, payload = args.func(args)
    except (ValueError, ArithmeticError, OSError, argparse.ArgumentTypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        if args.json:
            doc = {"command": args.command, "payload": payload}
            if not args.no_meta:
                doc["meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            print()
        else:
            _print_human(args.command, payload, sys.stdout)
    except BrokenPipeError:
        # The reader closed stdout: send what is still buffered to the null
        # device, so that the interpreter's final flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
