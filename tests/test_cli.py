import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coxgrowth import cli, coxtrans, diagram, growth, roots, salemdb, spectra
from coxgrowth.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json", "--no-meta")
    return code, json.loads(out), err


def test_growth_symbol_json(capsys):
    code, doc, _ = run_json(capsys, "growth", "--symbol", "[3,5,3]")
    assert code == 0
    payload = doc["payload"]
    assert payload["denominator_core"] == "1,-1,0,0,-1,1,-1,0,0,-1,1"
    assert payload["growth_rate"]["decimal"] == "1.3509803"
    assert "salem" in payload["classification"]


def test_growth_polygon(capsys):
    code, doc, _ = run_json(capsys, "growth", "--polygon", "2,3,7")
    assert code == 0
    assert doc["payload"]["denominator"] == "1,1,0,-1,-1,-1,-1,-1,0,1,1"


def test_growth_non_exponential(capsys):
    code, doc, _ = run_json(capsys, "growth", "--symbol", "[inf]")
    assert code == 0
    assert doc["payload"]["growth_rate"] is None


def test_growth_file_input(capsys, tmp_path):
    path = tmp_path / "diagram.txt"
    path.write_text("rank 3\n1 2 3\n2 3 8\n")
    code, doc, _ = run_json(capsys, "growth", "--file", str(path))
    assert code == 0
    assert doc["payload"]["denominator_core"] == "1,0,0,-1,0,-1,0,-1,0,0,1"


@pytest.mark.parametrize("option, value, rank", [
    ("--star", "2,3,3000", 3003),
    ("--star", "2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2,2", 21),
    ("--hgraph", "2,17,2", 22),
    ("--polygon", ",".join(["3"] * 21), 21),
])
def test_growth_rank_above_bound_rejected_before_building(capsys, monkeypatch, option, value, rank):
    def unreachable(*args):
        raise AssertionError("diagram constructor called")

    for name in ("star_diagram", "h_graph", "polygon_diagram"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run_cli(capsys, "growth", option, value)
    assert code == 1 and out == ""
    assert err.strip() == f"error: rank {rank} exceeds the Steinberg-sum rank bound 20"


@pytest.mark.parametrize("option, value", [("--star", "2,2,17"), ("--hgraph", "2,15,2"),
                                           ("--polygon", ",".join(["3"] * 20))])
def test_growth_rank_bound_itself_accepted(capsys, option, value):
    code, doc, _ = run_json(capsys, "growth", option, value)
    assert code == 0
    assert doc["payload"]["denominator"]


@pytest.mark.parametrize("option, value", [
    ("--symbol", "[3,101]"), ("--symbol", "[(4,101^2)]"), ("--symbol", "[3," + "9" * 5000 + "]"),
    ("--polygon", "2,3,101"), ("--file", "rank 2\n1 2 101\n"), ("--file", "rank 2\n1 2 00101\n"),
], ids=["symbol", "cyclic", "symbol-5000-digits", "polygon", "file", "file-leading-zeros"])
def test_growth_weight_above_bound_rejected_before_building(capsys, monkeypatch, tmp_path,
                                                            option, value):
    def unreachable(*args):
        raise AssertionError("weight table built")

    if option == "--file":
        (tmp_path / "diagram.txt").write_text(value)
        value = str(tmp_path / "diagram.txt")
    monkeypatch.setattr(diagram, "CoxeterDiagram", unreachable)
    code, out, err = run_cli(capsys, "growth", option, value)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "exceeds the bound 100" in err


@pytest.mark.parametrize("option, value", [("--symbol", "[3,100]"), ("--polygon", "2,3,100")])
def test_growth_weight_bound_itself_accepted(capsys, option, value):
    code, doc, _ = run_json(capsys, "growth", option, value)
    assert code == 0
    assert doc["payload"]["growth_rate"]


@pytest.mark.parametrize("argv, vertices", [
    (("coxtrans", "--tree", "Path:1201"), 1201),
    (("coxtrans", "--tree", "Star:2,2,1199"), 1201),
    (("coxtrans", "--star", "2,3,3000"), 3003),
    (("coxtrans", "--hgraph", "2,1191,7"), 1201),
    (("spectra", "--tree", "H:2,1191,7"), 1201),
    (("spectra", "--tree", "Path:1201"), 1201),
])
def test_tree_above_vertex_bound_rejected_before_building(capsys, monkeypatch, argv, vertices):
    def unreachable(*args):
        raise AssertionError("tree constructor called")

    for name in ("star_diagram", "h_graph", "path_tree"):
        monkeypatch.setattr(cli, name, unreachable)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.strip() == f"error: {vertices} vertices exceed the tree vertex bound 1200"


@pytest.mark.parametrize("kind, params", [("path", (1200,)), ("star", (2, 2, 1198)),
                                          ("star", (2,) * 1199), ("h", (2, 1190, 7))])
def test_tree_vertex_bound_itself_accepted(kind, params):
    assert cli._tree(kind, params, coxtrans._check_vertices).n == 1200


def test_coxtrans_path_at_vertex_bound(capsys):
    code, doc, _ = run_json(capsys, "coxtrans", "--tree", "Path:1200")
    assert code == 0
    assert doc["payload"]["vertices"] == 1200
    assert doc["payload"]["char_poly"] == ",".join(["1"] * 1201)


def test_classify_command(capsys):
    code, doc, _ = run_json(capsys, "classify", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1")
    assert code == 0
    assert "salem" in doc["payload"]["labels"]
    assert doc["payload"]["roots_on_unit_circle"] == 8


def test_classify_degree_above_bound_rejected_before_classifying(capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("classify called")

    monkeypatch.setattr(cli, "classify", unreachable)
    code, out, err = run_cli(capsys, "classify", "--poly", ",".join(["1"] + ["0"] * 160 + ["1"]))
    assert code == 1 and out == ""
    assert err.strip() == "error: degree 161 exceeds the bound 160"


def test_classify_degree_bound_itself_accepted(capsys):
    poly = ",".join(["1", "1"] + ["0"] * 158 + ["1"])
    code, doc, _ = run_json(capsys, "classify", "--poly", poly)
    assert code == 0
    assert doc["payload"]["degree"] == 160


_OVER_BITS = str(2**cli.CLASSIFY_COEFFICIENT_BITS)  # one bit over the coefficient bound
_AT_BITS = str(2**cli.CLASSIFY_COEFFICIENT_BITS - 1)


@pytest.mark.parametrize("poly, message", [
    (f"1,{_OVER_BITS},1", f"coefficient at position 2 has more than {cli.CLASSIFY_COEFFICIENT_BITS} bits"),
    (f"-{_OVER_BITS},0,1", f"coefficient at position 1 has more than {cli.CLASSIFY_COEFFICIENT_BITS} bits"),
])
def test_classify_coefficient_above_bound_rejected_before_classifying(capsys, monkeypatch, poly, message):
    def unreachable(*args):
        raise AssertionError("classify called")

    monkeypatch.setattr(cli, "classify", unreachable)
    monkeypatch.setattr(cli, "strip_cyclotomic", unreachable)
    code, out, err = run_cli(capsys, "classify", f"--poly={poly}")
    assert code == 1 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("poly", [f"1,{_AT_BITS},1", f"-{_AT_BITS},0,1"])
def test_classify_coefficient_bound_itself_accepted(capsys, poly):
    code, doc, _ = run_json(capsys, "classify", f"--poly={poly}")
    assert code == 0
    assert doc["payload"]["poly"] == poly


def test_coxtrans_hgraph(capsys):
    code, doc, _ = run_json(capsys, "coxtrans", "--hgraph", "2,8,3")
    assert code == 0
    assert doc["payload"]["char_poly"] == "1,1,-1,-2,-1,0,0,0,0,0,-1,-2,-1,1,1"
    assert doc["payload"]["char_poly_core"] == "1,-1,1,-2,1,-2,1,-1,1"
    assert doc["payload"]["spectral_radius"]["decimal"] == "1.3599997"


def test_coxtrans_star(capsys):
    code, doc, _ = run_json(capsys, "coxtrans", "--star", "2,3,7")
    assert code == 0
    assert doc["payload"]["char_poly"] == "1,1,0,-1,-1,-1,-1,-1,0,1,1"


@pytest.mark.parametrize("argv, count", [
    (("growth", "--hgraph", "2,3"), 2),
    (("coxtrans", "--hgraph", "2,3,4,5"), 4),
    (("coxtrans", "--tree", "H:2,3"), 2),
    (("spectra", "--tree", "H:"), 0),
])
def test_h_graph_needs_three_parameters(capsys, argv, count):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.strip() == f"error: an H-graph takes three parameters i,j,k, got {count}"


def test_path_spec_needs_one_parameter(capsys):
    code, out, err = run_cli(capsys, "coxtrans", "--tree", "Path:3,4,5")
    assert code == 1 and out == ""
    assert err.strip() == "error: a path takes one parameter n, got 3"


def test_tree_spec_with_non_ascii_digits_is_an_error(capsys):
    code, out, err = run_cli(capsys, "coxtrans", "--tree", "Path:٦")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad integer list")


def test_spectra_tree(capsys):
    code, doc, _ = run_json(capsys, "spectra", "--tree", "H:2,8,3")
    assert code == 0
    assert doc["payload"]["vertices"] == 14


def test_spectra_table1(capsys):
    code, doc, _ = run_json(capsys, "spectra", "--table1")
    assert code == 0
    assert doc["payload"]["all_agree"] is True
    assert len(doc["payload"]["table1"]) == 8


def test_spectra_table1_rows_are_verify_table1_rows(capsys):
    _, spectra_doc, _ = run_json(capsys, "spectra", "--table1")
    _, verify_doc, _ = run_json(capsys, "verify", "table1")
    assert spectra_doc["payload"]["table1"] == verify_doc["payload"]["table1"]
    assert [row["reference"] for row in verify_doc["payload"]["table1"]] == [
        radius for _, _, radius, _ in spectra.TABLE1]


def test_prop52_with_a_table1_side_wrong_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(spectra, "TABLE1", tuple(
        (f, p, r, "below" if (f, p) == ("h", (2, 9, 3)) else side)
        for f, p, r, side in spectra.TABLE1))
    code, doc, err = run_json(capsys, "verify", "prop52")
    assert code == 1
    assert doc["payload"]["passed"] is False
    assert err == ""


@pytest.mark.parametrize("option", ["--rmax", "--jmax"])
def test_prop52_bound_above_cap_rejected_before_building(capsys, monkeypatch, option):
    def unreachable(*args):
        raise AssertionError("tree constructor called")

    for name in ("star_diagram", "h_graph"):
        monkeypatch.setattr(spectra, name, unreachable)
    code, out, err = run_cli(capsys, "verify", "prop52", option, "1000")
    assert code == 1 and out == ""
    assert err.strip() == "error: bounds must be at most r_max=40, j_max=40"


def test_salem_gap(capsys):
    code, doc, _ = run_json(capsys, "salem", "--gap")
    assert code == 0
    gap = doc["payload"]["gap"]
    assert gap["band"] == ["1,0,0,0,-1,-1,-1,0,0,0,1"]
    assert gap["notes"]


def test_salem_list_from_the_environment_is_reported_as_that_list(capsys, monkeypatch):
    path = str(Path(salemdb.__file__).parent / "data" / "mini_salem_list.csv")
    monkeypatch.delenv(salemdb.ENV_LIST_PATH, raising=False)
    code, expected, _ = run_json(capsys, "salem", "--gap", "--list", path)
    assert code == 0 and expected["payload"]["source"] == path
    gap = expected["payload"]["gap"]
    assert (gap["entries_below_second"], gap["entries_below_rate_353"]) == (2, 3)
    monkeypatch.setenv(salemdb.ENV_LIST_PATH, path)
    code, doc, _ = run_json(capsys, "salem", "--gap")
    assert code == 0 and doc == expected


def test_an_empty_salem_list_variable_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv(salemdb.ENV_LIST_PATH, "")
    code, doc, err = run_json(capsys, "salem", "--gap")
    assert code == 0 and err == ""
    assert doc["payload"]["source"] == "bundled mini list"
    assert "entries_below_second" not in doc["payload"]["gap"]


@pytest.mark.parametrize("check, bounds", [
    ("delta-phi", ["--max-k", "7"]),
    ("delta-phi", ["--max-p", "13"]),
    ("theorem2", ["--max-k", "7"]),
    ("theorem2", ["--max-p", "20"]),
    ("second-minimal", ["--max-k", "7"]),
    ("second-minimal", ["--max-p", "13"]),
])
def test_verify_bounds_above_cap_rejected_before_building(capsys, monkeypatch, check, bounds):
    def unreachable(*args):
        raise AssertionError("sweep started")

    monkeypatch.setattr(cli.itertools, "combinations_with_replacement", unreachable)
    monkeypatch.setattr(growth, "_hyperbolic_tuples", unreachable)
    monkeypatch.setattr(growth, "verify_second_minimal_polygon", unreachable)
    code, out, err = run_cli(capsys, "verify", check, *bounds)
    assert code == 1 and out == ""
    assert err.strip() == "error: bounds must be at most max_k=6, max_p=12"


@pytest.mark.parametrize("check, bounds, k, p", [
    ("theorem2", ["--max-k", "2"], 2, 8),
    ("theorem2", ["--max-k", "3", "--max-p", "3"], 3, 3),
    ("theorem2", ["--max-k", "4", "--max-p", "2"], 4, 2),
    ("delta-phi", ["--max-p", "1"], 5, 1),
    ("delta-phi", ["--max-k", "0"], 0, 8),
])
def test_verify_bounds_with_nothing_to_check_rejected(capsys, check, bounds, k, p):
    code, out, err = run_cli(capsys, "verify", check, *bounds)
    assert code == 1 and out == ""
    assert err.strip() == f"error: bounds max_k={k}, max_p={p} leave nothing to check"


def test_sweep_emptiness_matches_the_tuples_built():
    for k in range(-1, cli.VERIFY_MAX_K + 1):
        for p in range(-1, cli.VERIFY_MAX_P + 1):
            stars = itertools.chain.from_iterable(
                itertools.combinations_with_replacement(range(2, p + 1), j) for j in range(1, k + 1))
            polygons = itertools.chain.from_iterable(
                growth._hyperbolic_tuples(j, p) for j in range(3, k + 1))
            assert cli._stars_exist(k, p) == any(True for _ in stars)
            assert cli._polygons_exist(k, p) == any(True for _ in polygons)


def test_salem_search(capsys):
    code, doc, _ = run_json(capsys, "salem", "--search",
                            "--target", "1,1,0,-1,-1,-1,-1,-1,0,1,1",
                            "--max-k", "5", "--max-p", "9")
    assert code == 0
    assert doc["payload"]["search"]["matches"] == [[2, 3, 7]]


@pytest.mark.parametrize("argv, option, value", [
    (["classify"], "--poly", "-1,-1,1,2,1,0,0,0,-1,-2,-1,1,1"),
    (["classify"], "--poly", "-1,0,1"),
    (["salem", "--search", "--max-k", "4", "--max-p", "8"], "--target", "-1,-1,0,1,1,1,1,1,0,-1,-1"),
])
def test_a_coefficient_list_starting_with_minus_is_read_spaced_or_joined(capsys, argv, option, value):
    spaced = run_cli(capsys, *argv, option, value, "--json", "--no-meta")
    joined = run_cli(capsys, *argv, f"{option}={value}", "--json", "--no-meta")
    assert spaced == joined and spaced[0] == 0 and spaced[2] == ""


def test_only_a_coefficient_value_is_joined_to_its_option():
    assert cli._join_coefficient_values(["classify", "--poly", "-1,2", "--json"]) == [
        "classify", "--poly=-1,2", "--json"]
    assert cli._join_coefficient_values(["salem", "--target", "-3,1"]) == ["salem", "--target=-3,1"]
    assert cli._join_coefficient_values(["classify", "--pol", "-1,2"]) == ["classify", "--pol=-1,2"]
    for argv in (["classify", "--poly", "--json"], ["classify", "--poly", "-x"],
                 ["growth", "--polygon", "-1,2"], ["classify", "--poly", "1,-1"],
                 ["classify", "--", "-1,2"], ["classify", "-", "-1,2"]):
        assert cli._join_coefficient_values(argv) == argv


@pytest.mark.parametrize("bounds, message", [
    (["--max-k", "7"], "bounds must be at most max_k=6, max_p=12"),
    (["--max-p", "20"], "bounds must be at most max_k=6, max_p=12"),
    (["--max-k", "0"], "bounds max_k=0, max_p=12 leave nothing to check"),
    (["--max-k", "3", "--max-p", "3"], "bounds max_k=3, max_p=3 leave nothing to check"),
])
def test_salem_search_bounds_rejected_before_searching(capsys, monkeypatch, bounds, message):
    def unreachable(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(salemdb, "polygon_realization_search", unreachable)
    code, out, err = run_cli(capsys, "salem", "--search", "--target", "1,-5,1", *bounds)
    assert code == 1 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("target, message", [
    (",".join(["1"] + ["0"] * 160 + ["1"]), "degree 161 exceeds the bound 160"),
    (f"1,{_OVER_BITS},1", f"coefficient at position 2 has more than {cli.CLASSIFY_COEFFICIENT_BITS} bits"),
])
def test_salem_target_above_bound_rejected_before_any_work(capsys, monkeypatch, target, message):
    def unreachable(*args):
        raise AssertionError("search started")

    monkeypatch.setattr(salemdb, "polygon_realization_search", unreachable)
    monkeypatch.setattr(salemdb, "gap_report", unreachable)
    code, out, err = run_cli(capsys, "salem", "--gap", "--search", "--target", target,
                             "--max-k", "3", "--max-p", "7")
    assert code == 1 and out == ""
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("target", [",".join(["-1", "1"] + ["0"] * 158 + ["1"]), f"-{_AT_BITS},0,1"])
def test_salem_target_at_the_bounds_accepted(capsys, target):
    code, doc, _ = run_json(capsys, "salem", "--search", "--target", target, "--max-k", "3", "--max-p", "7")
    assert code == 0
    assert doc["payload"]["search"]["target"] == target


@pytest.mark.parametrize("argv, message", [
    (["--search"], "--search requires --target"),
    (["--target", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], "--target requires --search"),
])
def test_salem_search_and_target_go_together(capsys, monkeypatch, argv, message):
    def unreachable(*args):
        raise AssertionError("list loaded")

    monkeypatch.setattr(salemdb, "load_salem_list", unreachable)
    code, out, err = run_cli(capsys, "salem", *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_a_closed_stdout_ends_the_cli_quietly(mode):
    # the output of Path:1200 overflows the pipe buffer, so the CLI is still
    # writing when the reader goes away
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "coxgrowth.cli", *mode, "spectra", "--tree", "Path:1200"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_verify_chain(capsys):
    code, doc, _ = run_json(capsys, "verify", "chain-fig1")
    assert code == 0
    assert doc["payload"]["passed"] is True


def test_verify_delta_phi_small(capsys):
    code, doc, _ = run_json(capsys, "verify", "delta-phi", "--max-k", "3", "--max-p", "5")
    assert code == 0
    assert doc["payload"]["passed"] is True


def test_verify_theorem2_small(capsys):
    code, doc, _ = run_json(capsys, "verify", "theorem2", "--max-k", "3", "--max-p", "7")
    assert code == 0
    assert doc["payload"]["passed"] is True
    assert doc["payload"]["hyperbolic_tuples"] > 0


def test_verify_second_minimal_json(capsys):
    code, doc, _ = run_json(capsys, "verify", "second-minimal")
    assert code == 0
    payload = doc["payload"]
    assert payload["passed"] is True
    triangles = next(c for c in payload["cases"] if c["name"] == "triangles")
    assert triangles["details"]["minimal_cases"] == [[2, 3, 9], [2, 4, 5], [3, 3, 4]]


def test_verify_second_minimal_human_walks_the_minimal_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "second-minimal")
    assert code == 0
    cases = ["      - 2\n      - 3\n      - 9\n",
             "      - 2\n      - 4\n      - 5\n",
             "      - 3\n      - 3\n      - 4\n"]
    assert "    minimal_cases:\n" + "\n".join(cases) + "\n    swept_up_to: 9\n" in out


def test_exit_code_on_error(capsys):
    code, out, err = run_cli(capsys, "growth", "--symbol", "[2,3]")
    assert code == 1
    assert "error" in err


def test_exit_code_on_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_no_input_error(capsys):
    code, out, err = run_cli(capsys, "growth")
    assert code == 1


def test_json_determinism(capsys):
    _, doc1, _ = run_json(capsys, "verify", "delta-phi", "--max-k", "2", "--max-p", "4")
    _, doc2, _ = run_json(capsys, "verify", "delta-phi", "--max-k", "2", "--max-p", "4")
    assert doc1 == doc2


def test_meta_timestamp_present_by_default(capsys):
    code, out, _ = run_cli(capsys, "classify", "--poly", "1,1", "--json")
    doc = json.loads(out)
    assert "meta" in doc and "timestamp" in doc["meta"]


@pytest.mark.parametrize("argv", [
    ["growth", "--symbol", "[3,8]"],
    ["coxtrans", "--star", "2,3,7"],
    ["spectra", "--tree", "H:2,10,3"],
    ["classify", "--poly", "1,1"],
    ["salem"],
    ["verify", "delta-phi", "--max-k", "1", "--max-p", "2"],
], ids=lambda argv: argv[0])
def test_command_name_is_the_subcommand(capsys, argv):
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0 and doc["command"] == argv[0]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out.splitlines()[0] == f"[{argv[0]}]"


def test_spectra_table1_with_a_reference_off_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(spectra, "TABLE1", tuple(
        (f, p, "2.1" if (f, p) == ("h", (2, 9, 3)) else r, side) for f, p, r, side in spectra.TABLE1))
    code, doc, _ = run_json(capsys, "spectra", "--table1")
    assert code == 1 and doc["payload"]["all_agree"] is False
    assert [row["graph"] for row in doc["payload"]["table1"] if not row["agrees"]] == ["H(2, 9, 3)"]
    code, out, _ = run_cli(capsys, "spectra", "--table1")
    assert code == 1 and out.count("agrees: False") == 1 and "all_agree: False" in out


def test_human_output(capsys):
    code, out, _ = run_cli(capsys, "growth", "--symbol", "[3,8]")
    assert code == 0
    assert "denominator_core: 1,0,0,-1,0,-1,0,-1,0,0,1" in out


def test_global_flags_before_subcommand(capsys):
    code, out, _ = run_cli(capsys, "--json", "--no-meta", "classify", "--poly", "1,0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["labels"] == ["cyclotomic"]


def test_tree_spec_variants(capsys):
    code, doc, _ = run_json(capsys, "coxtrans", "--tree", "Path:6")
    assert code == 0
    assert doc["payload"]["vertices"] == 6
    code, doc, _ = run_json(capsys, "spectra", "--tree", "Star:2,3,7")
    assert code == 0
    assert doc["payload"]["vertices"] == 10
    code, out, err = run_cli(capsys, "spectra", "--tree", "Blob:1")
    assert code == 1 and "tree spec" in err


def test_rejects_bad_width(capsys):
    for width in ["0", "1/0"]:
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--symbol", "[3,8]", "--width", width])
        assert exc.value.code == 2
        assert "width" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["1e-1001", "1/1" + "0" * 1001, "1e-99999999999"])
def test_rejects_widths_below_the_minimum_before_any_work(capsys, monkeypatch, width):
    def unreachable(*args):
        raise AssertionError("command ran")

    monkeypatch.setattr(cli, "_cmd_growth", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(["growth", "--symbol", "[3,5,3]", "--width", width])
    assert exc.value.code == 2
    assert "error: argument --width:" in capsys.readouterr().err


def test_narrowest_width_accepted():
    from fractions import Fraction
    assert cli._parse_width("1e-1000") == cli.MIN_WIDTH == Fraction(1, 10**1000)


def test_width_override(capsys):
    code, doc, _ = run_json(capsys, "growth", "--symbol", "[3,8]", "--width", "1/1000")
    assert code == 0
    # coarser interval honored
    from fractions import Fraction
    assert Fraction(doc["payload"]["growth_rate"]["exact_high"]) \
        - Fraction(doc["payload"]["growth_rate"]["exact_low"]) <= Fraction(1, 1000)


_NINES = "9" * 5000  # past the 4300 digits that int() converts
_ZEROS = "0" * 5000


def test_classify_coefficient_of_5000_digits_is_refused_by_the_parser(capsys):
    code, out, err = run_cli(capsys, "classify", "--poly", f"1,{_NINES},1")
    assert code == 1 and out == ""
    assert err.strip() == "error: coefficient at position 2 has more than 4300 digits"


def test_classify_reads_a_small_coefficient_behind_5000_zeros(capsys):
    code, doc, _ = run_json(capsys, "classify", "--poly", f"-1,0,-{_ZEROS}0,{_ZEROS}1")
    assert code == 0
    assert doc["payload"]["poly"] == "-1,0,0,1"


def test_star_parameter_of_5000_digits_is_refused_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coxtrans", "--star", f"2,3,{_NINES}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --star: bad integer list" in err
    assert err.rstrip().endswith("integer of more than 4300 digits")


def test_star_parameter_behind_5000_zeros_is_its_value(capsys):
    code, doc, _ = run_json(capsys, "coxtrans", "--star", f"2,3,{_ZEROS}7")
    assert code == 0
    assert doc == run_json(capsys, "coxtrans", "--star", "2,3,7")[1]


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The arguments of each `coxgrowth ...` line of README's sh blocks."""
    readme = README.read_text()
    blocks = [block.split("```")[0] for block in readme.split("```sh\n")[1:]]
    return [shlex.split(line, comments=True)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("coxgrowth ")]


def test_readme_lists_commands():
    assert len(_readme_commands()) >= 17


@pytest.mark.parametrize("args", _readme_commands(), ids=" ".join)
def test_readme_command_exits_zero(capsys, monkeypatch, tmp_path, args):
    (tmp_path / "diagram.txt").write_text("rank 3\n1 2 3\n2 3 8\n")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COXGROWTH_SALEM_LIST", raising=False)
    code, _, err = run_cli(capsys, *args)
    assert code == 0, err


# Each bound README states, as a pattern over its text with the whitespace
# collapsed (one group per number), and the values the groups must have
_README_BOUNDS = [
    (r"default `(1e-9)`", [roots.DEFAULT_WIDTH]),
    (r"at least `(1e-1000)`", [cli.MIN_WIDTH]),
    (r"from (\d+) to (\d+) \(`spectra\.PROP52_BOUND`\)",
     [cli.build_parser().parse_args(["verify", "prop52"]).rmax, spectra.PROP52_BOUND]),
    (r"`PROP52_BOUND` = (\d+)", [spectra.PROP52_BOUND]),
    (r"`--max-k` up to (\d+) and `--max-p` up to (\d+) \(`cli\.VERIFY_MAX_K`, `cli\.VERIFY_MAX_P`",
     [cli.VERIFY_MAX_K, cli.VERIFY_MAX_P]),
    (r"degree up to (\d+) \(`cli\.CLASSIFY_DEGREE_BOUND`\)", [cli.CLASSIFY_DEGREE_BOUND]),
    (r"at most (\d+) bits \(`cli\.CLASSIFY_COEFFICIENT_BITS`\)", [cli.CLASSIFY_COEFFICIENT_BITS]),
    (r"limited to rank (\d+), the rank bound of the Steinberg sum", [diagram.STEINBERG_RANK_BOUND]),
    (r"at most (\d+) \(`diagram\.WEIGHT_BOUND`\)", [diagram.WEIGHT_BOUND]),
    (r"at most (\d+) vertices \(`coxtrans\.TREE_VERTEX_BOUND`\)", [coxtrans.TREE_VERTEX_BOUND]),
    (r"`TREE_VERTEX_BOUND` = (\d+)", [coxtrans.TREE_VERTEX_BOUND]),
]


def test_readme_bounds_match_constants():
    text = " ".join(README.read_text().split())
    for pattern, values in _README_BOUNDS:
        found = re.findall(pattern, text)
        assert found, f"README no longer states {pattern!r}"
        for groups in found:
            stated = [Fraction(g) for g in ((groups,) if isinstance(groups, str) else groups)]
            assert stated == values, pattern
