#!/usr/bin/env python3
"""Coxeter transformations versus adjacency spectra of trees.

The growth rate of the [4,3,5] simplex group is attained as the spectral
radius of the Coxeter transformation of one specific tree; the [3,5,3] rate
is attained by none.  This script walks both stories.
"""

from fractions import Fraction

from coxgrowth import (
    bipartite_order,
    char_poly_recursive,
    growth_rate,
    h_graph,
    parse_coxeter_symbol,
    spectral_radius_adjacency,
    spectral_radius_coxeter,
    star_diagram,
    steinberg_growth,
    strip_cyclotomic,
)
from coxgrowth.coxtrans import alpha_from_lambda
from coxgrowth.spectra import prop52_pipeline


def main():
    print("== the positive story: [4,3,5] ==\n")
    tree = h_graph(2, 8, 3)
    print("H(2,8,3) biadjacency block (one bipartition class against the other):")
    for row in bipartite_order(tree).x_block:
        print("   ", " ".join(str(v) for v in row))
    phi = char_poly_recursive(tree)
    print("\ncharacteristic polynomial:", phi)
    core, factors = strip_cyclotomic(phi)
    print("cyclotomic-free core:", core)
    print("cyclotomic factors:", ", ".join(f"Phi_{n}^{m}" if m > 1 else f"Phi_{n}"
                                           for n, m in factors))
    radius = spectral_radius_coxeter(tree, Fraction(1, 10**9))
    rate = growth_rate(steinberg_growth(parse_coxeter_symbol("[4,3,5]")), Fraction(1, 10**9))
    print(f"\nCoxeter-transformation radius: {radius.decimal(7)}")
    print(f"growth rate of [4,3,5]:        {rate.decimal(7)}")
    print("intervals overlap:", radius.overlaps(rate))

    print("\n== the negative story: [3,5,3] ==\n")
    lam = growth_rate(steinberg_growth(parse_coxeter_symbol("[3,5,3]")), Fraction(1, 10**12))
    lo, hi = alpha_from_lambda(lam, Fraction(1, 10**9))
    print(f"growth rate: {lam.decimal(7)}")
    print(f"transferred adjacency eigenvalue: [{float(lo):.7f}, {float(hi):.7f}]")
    print("\nbenchmark radii bracketing that value:")
    for label, tree in [("Star(2,4,5)", star_diagram(2, 4, 5)),
                        ("H(2,10,3)", h_graph(2, 10, 3)),
                        ("H(2,9,3)", h_graph(2, 9, 3)),
                        ("Star(2,4,6)", star_diagram(2, 4, 6))]:
        iv = spectral_radius_adjacency(tree, Fraction(1, 10**9))
        print(f"   {label:>12}: {iv.decimal(7)}")
    print("\nrunning the full non-realization pipeline (a few seconds)...")
    rep = prop52_pipeline(25, 25)
    print(f"trees certified distinct from the value: {rep.tree_report.items_checked}")
    print("verdict:", "PASS" if rep.passed else "FAIL")


if __name__ == "__main__":
    main()
