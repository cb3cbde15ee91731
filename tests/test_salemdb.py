import textwrap
from fractions import Fraction

import pytest

from coxgrowth.intpoly import parse_poly
from coxgrowth.numclass import unit_circle_root_count
from coxgrowth.roots import root_bound
from coxgrowth.salemdb import (
    SalemListError,
    bundled_mini_list,
    count_entries_below,
    gap_report,
    load_salem_list,
    parse_salem_line,
    polygon_realization_search,
)

from oracles import reference_count

LEHMER = parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1")
FIFTH = parse_poly("1,0,0,0,-1,-1,-1,0,0,0,1")
MIN_38 = parse_poly("1,0,0,-1,0,-1,0,-1,0,0,1")


def test_bundled_list_loads_sorted():
    entries = bundled_mini_list()
    assert [e.poly for e in entries] == [LEHMER, FIFTH, MIN_38]
    values = [float(e.interval.midpoint()) for e in entries]
    assert values == sorted(values)
    assert abs(values[0] - 1.176281) < 1e-5
    assert abs(values[1] - 1.216391) < 1e-5
    assert abs(values[2] - 1.230391) < 1e-5


def test_entries_satisfy_salem_invariants():
    for e in bundled_mini_list():
        assert e.poly.reversed() == e.poly
        assert reference_count(e.poly, Fraction(1), root_bound(e.poly)) == 1
        assert unit_circle_root_count(e.poly) == e.poly.degree - 2


def test_load_ignores_hint_order(tmp_path):
    # scrambled file order; certified sorting restores it
    path = tmp_path / "list.csv"
    path.write_text(textwrap.dedent("""\
        10;1,0,0,-1,0,-1,0,-1,0,0,1;9.9
        10;1,1,0,-1,-1,-1,-1,-1,0,1,1;0.1
        10;1,0,0,0,-1,-1,-1,0,0,0,1;5.0
        """))
    entries = load_salem_list(path)
    assert [e.poly for e in entries] == [LEHMER, FIFTH, MIN_38]


def test_env_var_default(tmp_path, monkeypatch):
    path = tmp_path / "env.csv"
    path.write_text("10;1,1,0,-1,-1,-1,-1,-1,0,1,1;1.18\n")
    monkeypatch.setenv("COXGROWTH_SALEM_LIST", str(path))
    entries = load_salem_list()
    assert len(entries) == 1


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# no entries\n")
    assert load_salem_list(path) == []


def test_rejections():
    with pytest.raises(SalemListError):
        parse_salem_line("10;1,1,0,-1,-1,-1,-1,-1,0,1,1")  # missing field
    with pytest.raises(SalemListError):
        parse_salem_line("9;1,1,0,-1,-1,-1,-1,-1,0,1,1;1.17")  # degree mismatch
    with pytest.raises(SalemListError):
        parse_salem_line("2;1,-3,1;2.6")  # degree 2: no room for circle roots
    with pytest.raises(SalemListError):
        parse_salem_line("4;1,0,-1,0,1;1.0")  # cyclotomic: no root above 1
    with pytest.raises(SalemListError):
        parse_salem_line("2;2,0,2;1.0")  # not monic


def test_a_degree_of_more_than_4300_digits_is_rejected_before_conversion():
    with pytest.raises(SalemListError, match="degree field has more than 4300 digits") as info:
        parse_salem_line("1" * 5000 + ";1,-1,-1,-1,1;1.72")
    assert "set_int_max_str_digits" not in str(info.value)


def test_a_zero_padded_degree_is_read_as_its_value():
    entry = parse_salem_line("0" * 5000 + "4;1,-1,-1,-1,1;1.72")
    assert entry.poly == parse_poly("1,-1,-1,-1,1") and entry.interval.decimal(4) == "1.7221"


def test_lehmer_at_minus_t_is_rejected():
    # reciprocal, with its one root outside the disk at -1.17628, below -1
    with pytest.raises(SalemListError, match="no real root above 1"):
        parse_salem_line("10;1,-1,0,1,-1,1,-1,1,0,-1,1;-1.17628")


def test_line_numbers_in_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("10;1,1,0,-1,-1,-1,-1,-1,0,1,1;1.17\n3;1,1;0.5\n")
    with pytest.raises(SalemListError, match="line 2"):
        load_salem_list(path)


def test_gap_report_mini_list():
    rep = gap_report(bundled_mini_list())
    assert rep.total == 3
    assert [e.poly for e in rep.equal_first] == [LEHMER]
    assert [e.poly for e in rep.band] == [FIFTH]
    assert [e.poly for e in rep.at_or_above_second] == [MIN_38]
    assert rep.below_first == ()
    assert rep.ordinal_notes()  # bundled data cannot support ordinal claims
    assert abs(rep.first_rate.midpoint() - Fraction("1.176281")) < Fraction(1, 10**6)
    assert abs(rep.second_rate.midpoint() - Fraction("1.230391")) < Fraction(1, 10**6)


def test_count_entries_below():
    entries = bundled_mini_list()
    rep = gap_report(entries)
    assert count_entries_below(entries, rep.second_rate) == 2
    assert count_entries_below(entries, rep.first_rate) == 0


def test_realization_search_lehmer():
    res = polygon_realization_search(LEHMER, 6, 12)
    assert res.matches == ((2, 3, 7),)


def test_realization_search_fifth_unrealized():
    res = polygon_realization_search(FIFTH, 6, 12)
    assert res.matches == ()


def test_realization_search_38():
    res = polygon_realization_search(MIN_38, 6, 12)
    assert res.matches == ((2, 3, 8),)


def test_realization_search_accepts_entry():
    entry = bundled_mini_list()[0]
    res = polygon_realization_search(entry, 5, 9)
    assert res.matches == ((2, 3, 7),)


def _synthetic_list(tmp_path):
    """Five genuine Salem polynomials: the bundled three plus two produced by
    the polygon machinery itself (triangle denominators are Salem for n=2)."""
    from coxgrowth.growth import polygon_delta
    from coxgrowth.numclass import classify, strip_cyclotomic
    lines = [
        "10;1,1,0,-1,-1,-1,-1,-1,0,1,1;1.176281",
        "10;1,0,0,0,-1,-1,-1,0,0,0,1;1.216391",
        "10;1,0,0,-1,0,-1,0,-1,0,0,1;1.230391",
    ]
    for ps in [(2, 3, 9), (2, 4, 5)]:
        core, _ = strip_cyclotomic(polygon_delta(*ps))
        assert "salem" in classify(core).labels
        lines.append(f"{core.degree};{core.to_text()};0")
    path = tmp_path / "synthetic.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_gap_report_with_larger_list(tmp_path):
    entries = load_salem_list(_synthetic_list(tmp_path))
    assert len(entries) == 5
    rep = gap_report(entries, assume_full=True)
    assert rep.total == 5
    assert [e.poly for e in rep.band] == [FIFTH]
    assert len(rep.at_or_above_second) == 3
    assert not rep.ordinal_notes()
    assert count_entries_below(entries, rep.second_rate) == 2


def test_cli_gap_with_user_list(tmp_path, capsys):
    import json
    from coxgrowth.cli import main
    path = _synthetic_list(tmp_path)
    code = main(["salem", "--list", str(path), "--gap", "--json", "--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    gap = json.loads(out)["payload"]["gap"]
    assert gap["entries_below_second"] == 2
    # all five synthetic entries lie below the smallest 3-dimensional rate
    assert gap["entries_below_rate_353"] == 5
    assert gap["notes"] == []
