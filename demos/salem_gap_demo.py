#!/usr/bin/env python3
"""Which Salem numbers arise as polygon growth rates?

Loads the bundled mini list, sorts it by certified root intervals, splits it
against the two smallest polygonal growth rates, and searches for polygons
realizing each entry.
"""

from coxgrowth import bundled_mini_list, gap_report, polygon_realization_search


def main():
    entries = bundled_mini_list()
    print("bundled entries, sorted by certified largest root:")
    for e in entries:
        print(f"   {e.decimal(6)}   {e.poly}")

    rep = gap_report(entries)
    print(f"\nsmallest polygonal rate:        {rep.first_rate.decimal(7)}")
    print(f"second-smallest polygonal rate: {rep.second_rate.decimal(7)}")
    print("\npartition:")
    print("  equal to the smallest rate:  ", [str(e.poly) for e in rep.equal_first])
    print("  strictly inside the gap:     ", [str(e.poly) for e in rep.band])
    print("  at or above the second rate: ", [str(e.poly) for e in rep.at_or_above_second])
    for note in rep.ordinal_notes():
        print("  note:", note)

    print("\nsearching polygons (k <= 6, p <= 12) for each entry:")
    for e in entries:
        res = polygon_realization_search(e, 6, 12)
        found = list(res.matches) or "none"
        print(f"   {e.decimal(6)} -> {found}")


if __name__ == "__main__":
    main()
