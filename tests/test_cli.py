import gc
import json
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from hypertree_spectra import (
    TensorKind,
    bounds_report,
    format_hypergraph,
    hyperstar,
    loose_path,
    parse_hypergraph,
    s_path,
    spectral_radius,
    validate,
)
from hypertree_spectra import census, cli
from hypertree_spectra.cli import main
from hypertree_spectra.errors import HypertreeError, NoConvergence
from oracles import is_isomorphic


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star_7_3.hg"
    path.write_text(format_hypergraph(hyperstar(7, 3)))
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path_9_3.hg"
    path.write_text(format_hypergraph(loose_path(9, 3)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- compute -----------------------------------------------------------------


def test_compute_qstar_closed_form(capsys, star_file):
    code, out, _ = run(capsys, "compute", "--kind", "qstar", star_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["rho"] == pytest.approx(13.92820323, abs=1e-7)
    assert payload["kind"] == "qstar"
    assert (payload["n"], payload["k"], payload["m"]) == (7, 3, 3)
    assert payload["lower"] <= payload["rho"] <= payload["upper"]
    assert list(payload) == [
        "n",
        "k",
        "m",
        "kind",
        "rho",
        "lower",
        "upper",
        "residual",
        "iterations",
    ]


def test_compute_adj_single_edge(capsys, tmp_path):
    f = tmp_path / "e.hg"
    f.write_text("3 3 1\n1 2 3\n")
    code, out, _ = run(capsys, "compute", "--kind", "adj", str(f))
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(1.0, abs=1e-10)
    # one vertex and no edges: every tensor is zero
    f.write_text("2 1 0\n")
    for kind in ("adj", "q", "qstar"):
        code, out, _ = run(capsys, "compute", "--kind", kind, str(f))
        assert code == 0
        assert json.loads(out)["rho"] == 0.0


def test_compute_q_matches_library(capsys, star_file):
    code, out, _ = run(capsys, "compute", "--kind", "q", star_file)
    assert code == 0
    expected = spectral_radius(TensorKind.SignlessLaplacian, hyperstar(7, 3)).rho
    assert json.loads(out)["rho"] == pytest.approx(expected, abs=1e-9)


def test_compute_eigvec_flag(capsys, star_file):
    code, out, _ = run(capsys, "compute", "--eigvec", star_file)
    assert code == 0
    vec = json.loads(out)["eigvec"]
    assert len(vec) == 7
    assert all(v > 0 for v in vec)


def test_compute_formats(capsys, star_file):
    code, out, _ = run(capsys, "compute", "--format", "csv", star_file)
    assert code == 0
    header, values = out.strip().splitlines()
    assert header.split(",")[0] == "n"
    assert values.split(",")[0] == "7"
    code, out, _ = run(capsys, "compute", "--format", "text", star_file)
    assert code == 0
    assert out.startswith("n: 7")


def test_compute_csv_prints_the_eigvec_row(capsys, star_file):
    code, out, _ = run(capsys, "compute", "--format", "csv", "--eigvec", star_file)
    assert code == 0
    header, values, eigvec = out.strip().splitlines()
    assert "eigvec" not in header
    _, out, _ = run(capsys, "compute", "--eigvec", star_file)
    assert [float(v) for v in eigvec.split(",")] == json.loads(out)["eigvec"]


def test_stray_argument_is_a_parse_error(capsys, star_file):
    # only construct collects trailing integers as its parameters
    with pytest.raises(SystemExit) as exc:
        main(["compute", star_file, "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: 7" in capsys.readouterr().err


def test_compute_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.hg"
    f.write_text("3 5\n1 2 3\n")
    code, _, err = run(capsys, "compute", str(f))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("text", ["3 -1 0\n", "0 1 0\n", "1 1 1\n1\n"])
def test_compute_bad_dimensions(capsys, tmp_path, text):
    # k < 2 or n < 1: a typed error, never a traceback or a radius
    f = tmp_path / "dims.hg"
    f.write_text(text)
    code, out, err = run(capsys, "compute", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_compute_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "compute", str(tmp_path / "nope.hg"))
    assert code == 2


@pytest.mark.parametrize(
    "data", [b"\xff\xfe\x00", b"3 7 3\n1 2 x\n"], ids=["not-utf8", "non-integer-token"]
)
def test_compute_unreadable_file(capsys, tmp_path, data):
    f = tmp_path / "bad.hg"
    f.write_bytes(data)
    code, out, err = run(capsys, "compute", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_compute_disconnected(capsys, tmp_path):
    f = tmp_path / "disc.hg"
    f.write_text(format_hypergraph(validate([[1, 2, 3], [4, 5, 6]], 6)))
    code, _, err = run(capsys, "compute", str(f))
    assert code == 3


def test_compute_no_convergence_prints_bracket(capsys, path_file):
    code, _, err = run(capsys, "compute", "--max-iter", "2", path_file)
    assert code == 4
    assert "bracket=[" in err


def test_compute_adj_long_path_with_1000_edges(capsys, tmp_path):
    # Newton-Noda steps: the power iteration would need millions here
    f = tmp_path / "path_2001_3.hg"
    f.write_text(format_hypergraph(loose_path(2001, 3)))
    code, out, _ = run(capsys, "compute", "--kind", "adj", str(f))
    assert code == 0
    payload = json.loads(out)
    assert payload["upper"] - payload["lower"] <= 1e-10
    assert payload["iterations"] <= 30


def test_compute_below_rounding_floor_prints_finite_bracket(capsys, tmp_path):
    # tol below the rounding floor: the q solve runs out of its budget with
    # a finite, certified bracket around a tol=1e-13 radius
    f = tmp_path / "path_121_3.hg"
    f.write_text(format_hypergraph(loose_path(121, 3)))
    code, out, err = run(
        capsys, "compute", "--kind", "q", "--tol", "1e-300", "--max-iter", "50", str(f)
    )
    assert code == 4
    assert out == ""
    lo, hi = map(float, re.search(r"bracket=\[(.*), (.*)\]", err).groups())
    rho = spectral_radius(TensorKind.SignlessLaplacian, loose_path(121, 3), tol=1e-13).rho
    assert lo <= rho <= hi


@pytest.mark.parametrize(
    "flags",
    [("--tol", "0"), ("--tol=-1e-9",), ("--tol", "inf"), ("--max-iter", "0")],
    ids=["tol-zero", "tol-negative", "tol-inf", "max-iter-zero"],
)
def test_compute_bad_solver_parameters(capsys, path_file, flags):
    code, out, err = run(capsys, "compute", *flags, path_file)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_transform_check_monotone_bad_tol(capsys, star_file):
    code, out, err = run(
        capsys, "transform", star_file, "--graft", "1", "1", "1",
        "--check-monotone", "--tol", "0",
    )
    assert code == 2
    assert err.startswith("error: ")


def test_verify_bad_tol(capsys):
    code, _, err = run(capsys, "verify", "--n", "9", "--k", "3", "--tol", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_compute_help_states_the_solver_contract(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "the largest allowed width of the certified bracket" in out
    assert "below the rounding floor" in out and "runs the whole --max-iter budget" in out
    assert "once it is spent the command exits 4 and prints the last bracket" in out


def test_compute_json_deterministic(capsys, star_file):
    _, out1, _ = run(capsys, "compute", "--kind", "qstar", star_file)
    _, out2, _ = run(capsys, "compute", "--kind", "qstar", star_file)
    assert out1 == out2


def test_parser_is_built_once_and_calls_do_not_share_state(capsys, star_file, path_file):
    """main reuses one parser per process: repeated calls, of one command
    or of several, print what the first call printed, and a parse error
    after a successful call still exits 2 and leaves the parser usable."""
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, "compute", "--kind", "q", star_file)
    assert first[0] == 0
    built = run(capsys, "construct", "loosepath", "9", "3")
    assert built[0] == 0
    assert run(capsys, "compute", "--kind", "q", star_file) == first
    assert run(capsys, "construct", "loosepath", "9", "3") == built
    for argv in (["compute", "--kind", "bogus", star_file], ["bogus"], [], ["compute"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    assert run(capsys, "compute", "--kind", "q", star_file) == first
    # an option given to one call does not become the next call's default
    assert run(capsys, "compute", "--format", "text", path_file)[0] == 0
    assert json.loads(run(capsys, "compute", path_file)[1])["kind"] == "adj"


# -- construct ---------------------------------------------------------------


def test_construct_hyperstar_roundtrip(capsys):
    code, out, _ = run(capsys, "construct", "hyperstar", "7", "3")
    assert code == 0
    assert parse_hypergraph(out) == hyperstar(7, 3)


def test_construct_families_roundtrip(capsys):
    cases = [
        (["loosepath", "9", "3"], loose_path(9, 3)),
        (["singleedge", "4"], None),
        (["doublestar", "1", "2", "3"], None),
        (["spath", "3", "2", "4"], None),
        (["scycle", "4", "2", "4"], None),
    ]
    for argv, expected in cases:
        code, out, _ = run(capsys, "construct", *argv)
        assert code == 0
        g = parse_hypergraph(out)
        if expected is not None:
            assert g == expected


def test_construct_treepower(capsys):
    code, out, _ = run(capsys, "construct", "treepower", "--tree", "1 1 2 2", "3")
    assert code == 0
    from hypertree_spectra import double_star

    assert is_isomorphic(parse_hypergraph(out), double_star(1, 2, 3))


def test_construct_treepower_missing_tree(capsys):
    code, _, err = run(capsys, "construct", "treepower", "3")
    assert code == 2


def test_construct_bad_parameters(capsys):
    assert run(capsys, "construct", "hyperstar", "6", "3")[0] == 2
    assert run(capsys, "construct", "hyperstar", "7")[0] == 2
    assert run(capsys, "construct", "scycle", "2", "1", "3")[0] == 2
    assert run(capsys, "construct", "treepower", "1", "--tree", "1")[0] == 2
    # surplus parameters are an error, not silently dropped
    for argv in (["hyperstar", "7", "3", "9"], ["singleedge", "3", "5"]):
        code, out, err = run(capsys, "construct", *argv)
        assert code == 2
        assert out == "" and err.startswith("error:")


def test_construct_then_compute_pipeline(capsys, tmp_path):
    code, out, _ = run(capsys, "construct", "hyperstar", "13", "4")
    assert code == 0
    f = tmp_path / "s13.hg"
    f.write_text(out)
    code, out, _ = run(capsys, "compute", "--kind", "adj", str(f))
    assert code == 0
    assert json.loads(out)["rho"] == pytest.approx(4 ** (1 / 4), abs=1e-8)


# -- transform ---------------------------------------------------------------


def test_transform_release_monotone(capsys, tmp_path):
    f = tmp_path / "p7.hg"
    f.write_text(format_hypergraph(loose_path(7, 3)))
    code, out, _ = run(
        capsys, "transform", str(f), "--release", "2", "3", "--check-monotone"
    )
    assert code == 0
    lines = out.splitlines()
    margins = [
        float(line.rsplit("margin=", 1)[1])
        for line in lines
        if line.startswith("#") and "margin=" in line
    ]
    assert len(margins) == 3
    assert all(m > 0 for m in margins)
    body = "\n".join(line for line in lines if not line.startswith("#"))
    assert is_isomorphic(parse_hypergraph(body + "\n"), hyperstar(7, 3))


def test_transform_graft_monotone(capsys, star_file):
    code, out, _ = run(
        capsys,
        "transform",
        star_file,
        "--graft",
        "1",
        "1",
        "1",
        "--check-monotone",
    )
    assert code == 0
    margins = [
        float(line.rsplit("margin=", 1)[1])
        for line in out.splitlines()
        if line.startswith("#")
    ]
    assert len(margins) == 3
    assert all(m < 0 for m in margins)


def _monotone_lines(out):
    return [line for line in out.splitlines() if line.startswith("#")]


def test_transform_check_monotone_prints_brackets_and_verdicts(capsys, tmp_path):
    f = tmp_path / "p7.hg"
    f.write_text(format_hypergraph(loose_path(7, 3)))
    code, out, _ = run(
        capsys, "transform", str(f), "--release", "2", "3", "--check-monotone"
    )
    assert code == 0
    lines = _monotone_lines(out)
    assert len(lines) == 3
    pattern = re.compile(
        r"# (\w+): before=\[(\S+), (\S+)\] after=\[(\S+), (\S+)\] increase margin=(\S+)$"
    )
    for line, kind in zip(lines, TensorKind):
        found = pattern.match(line)
        assert found and found[1] == kind.value
        b_lo, b_hi, a_lo, a_hi, margin = map(float, found.groups()[1:])
        assert b_lo <= spectral_radius(kind, loose_path(7, 3)).rho <= b_hi
        star = spectral_radius(kind, hyperstar(7, 3)).rho
        assert a_lo <= a_hi and star == pytest.approx((a_lo + a_hi) / 2, rel=1e-9)
        assert margin == a_lo - b_hi > 0


def test_transform_check_monotone_isomorphic_result_is_undecided(capsys, tmp_path):
    # moving the second edge of a two-edge path onto vertex 1 gives the
    # hyperstar, which is the same shape: no change can be certified
    f = tmp_path / "p5.hg"
    f.write_text(format_hypergraph(loose_path(5, 3)))
    code, out, _ = run(
        capsys, "transform", str(f), "--move", "2", "3", "1", "--check-monotone"
    )
    assert code == 0
    lines = _monotone_lines(out)
    assert len(lines) == 3
    assert all(" undecided margin=0.0" in line for line in lines)


@pytest.mark.parametrize(
    "text,move",
    [
        ("3 7 3\n1 2 3\n3 4 5\n5 6 7\n", "2 3 6"),  # the result splits
        ("3 6 2\n1 2 3\n4 5 6\n", "1 1 4"),  # the input is split
    ],
    ids=["result", "input"],
)
def test_transform_check_monotone_disconnected(capsys, tmp_path, text, move):
    f = tmp_path / "g.hg"
    f.write_text(text)
    code, out, err = run(
        capsys, "transform", str(f), "--move", *move.split(), "--check-monotone"
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_transform_move(capsys, tmp_path):
    f = tmp_path / "p7.hg"
    f.write_text(format_hypergraph(loose_path(7, 3)))
    code, out, _ = run(capsys, "transform", str(f), "--move", "3", "5", "1")
    assert code == 0
    g = parse_hypergraph(out)
    assert (1, 6, 7) in g.edges


def test_transform_precondition_failure(capsys, star_file):
    # releasing a pendent edge: every hyperstar edge is pendent
    code, _, err = run(capsys, "transform", star_file, "--release", "1", "1")
    assert code == 5
    # graft at a vertex without the requested paths
    code, _, err = run(capsys, "transform", star_file, "--graft", "1", "2", "1")
    assert code == 5
    # release at a vertex that is not in the edge
    code, _, err = run(capsys, "transform", star_file, "--release", "1", "4")
    assert code == 5
    assert err.startswith("error: ") and "not in edge" in err


def test_transform_release_on_non_linear_input(capsys, tmp_path):
    # consecutive edges of the 2-path share two vertices: a violated
    # precondition of the release
    f = tmp_path / "s_path_3_2_4.hg"
    f.write_text(format_hypergraph(s_path(3, 2, 4)))
    code, out, err = run(capsys, "transform", str(f), "--release", "1", "1")
    assert code == 5
    assert out == ""
    assert err == "error: pendent edges are defined on linear hypergraphs\n"


@pytest.mark.parametrize(
    "op,message",
    [
        (["--release", "9", "3"], "edge id 9 outside 1..3"),
        (["--release", "0", "3"], "edge id 0 outside 1..3"),
        (["--move", "0", "1", "5"], "edge id 0 outside 1..3"),
        (["--move", "1", "1", "99"], "vertex 99 outside 1..7"),
        (["--move", "1,4", "1,5", "2"], "edge id 4 outside 1..3"),
        (["--graft", "99", "1", "1"], "vertex 99 outside 1..7"),
        (["--graft", "0", "1", "1"], "vertex 0 outside 1..7"),
    ],
)
def test_transform_ids_out_of_range(capsys, tmp_path, op, message):
    # ids are 1-based; one out of range is a parameter error naming the id
    # as typed, caught before the transform runs
    f = tmp_path / "p7.hg"
    f.write_text(format_hypergraph(loose_path(7, 3)))
    code, out, err = run(capsys, "transform", str(f), *op)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "op,message",
    [
        (["--move", "1,2", "3", "5"], "2 edge ids but 1 source vertices; give one source per edge"),
        (["--graft", "3", "0", "1"], "graft path lengths must be >= 1, got p=0 q=1"),
        (["--graft", "3", "1", "-2"], "graft path lengths must be >= 1, got p=1 q=-2"),
    ],
)
def test_transform_malformed_parameters(capsys, tmp_path, op, message):
    # a malformed parameter is a parameter error, not a violated precondition
    f = tmp_path / "p7.hg"
    f.write_text(format_hypergraph(loose_path(7, 3)))
    code, out, err = run(capsys, "transform", str(f), *op)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_transform_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.hg"
    f.write_text("not a header\n")
    code, _, _ = run(capsys, "transform", str(f), "--release", "2", "3")
    assert code == 2
    # a --move argument that is not an integer
    f.write_text(format_hypergraph(loose_path(9, 3)))
    code, out, err = run(capsys, "transform", str(f), "--move", "x", "1", "2")
    assert code == 2
    assert out == "" and err.startswith("error: ")


# -- verify ------------------------------------------------------------------


def test_verify_9_3(capsys, tmp_path):
    export = tmp_path / "census.jsonl"
    code, out, _ = run(
        capsys, "verify", "--n", "9", "--k", "3", "--export", str(export)
    )
    assert code == 0
    assert "PASS hyperstar-maximal" in out
    assert "PASS second-largest-double-star" in out
    assert "PASS loose-path-minimal-among-powers" in out
    assert "census size 4" in out
    assert out.strip().endswith("PASS")
    lines = export.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all("rho_qstar" in json.loads(line) for line in lines)


def test_verify_small_m_records_skip(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--k", "3")
    assert code == 0
    assert "SKIP" in out


def test_verify_no_convergence_prints_bracket(capsys, monkeypatch):
    # a real census solve needs 10**6 power steps to run out of its budget
    def no_convergence(*args, **kwargs):
        raise NoConvergence("no convergence", lower=1.0, upper=2.0, iterations=7)

    monkeypatch.setattr(census, "_solve", no_convergence)
    code, out, err = run(capsys, "verify", "--n", "9", "--k", "3")
    assert code == 4
    assert out == ""
    assert "bracket=[1.0, 2.0]" in err


def test_verify_max_m_zero_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--k", "3", "--max-m", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --max-m must be at least 1, got 0")


def test_verify_sweep_frees_each_census_without_export(capsys, monkeypatch):
    # without --export no census outlives its own verification, so a sweep
    # holds one census at a time
    built, dead_before = [], []

    def enumerate_and_track(*args, **kwargs):
        gc.collect()
        dead_before.append([ref() is None for ref in built])
        result = census.enumerate_supertrees(*args, **kwargs)
        built.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "enumerate_supertrees", enumerate_and_track)
    code, out, _ = run(capsys, "verify", "--k", "3", "--max-m", "3")
    assert code == 0 and out.strip().endswith("PASS")
    assert dead_before == [[], [True], [True, True]]


def test_verify_bad_dimensions(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--k", "3")
    assert code == 2


def test_verify_failed_assertion_exits_6(capsys):
    # at tol=10 the brackets are too wide to certify the strict claims
    code, out, _ = run(capsys, "verify", "--n", "7", "--k", "3", "--tol", "10")
    assert code == 6
    assert "FAIL hyperstar-maximal" in out and "undecided" in out
    assert not out.strip().endswith("PASS")


@pytest.mark.parametrize(
    "sizes", [(), ("--n", "7", "--max-m", "3")], ids=["neither", "both"]
)
def test_verify_needs_exactly_one_of_n_and_max_m(capsys, sizes):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--k", "3", *sizes])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_verify_export_to_missing_directory(capsys, tmp_path):
    export = tmp_path / "missing" / "x.jsonl"
    code, _, err = run(capsys, "verify", "--n", "9", "--k", "3", "--export", str(export))
    assert code == 2
    assert err.startswith("error: ") and "x.jsonl" in err


# -- exit-code table ---------------------------------------------------------


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


EXIT_CODE_OF = {
    "HypertreeError": 2, "NonUniform": 2, "DuplicateEdge": 2, "VertexOutOfRange": 2,
    "RepeatedVertexInEdge": 2, "BadDimensions": 2, "NotATree": 2, "BadOverlap": 2,
    "BadFormat": 2, "DimensionMismatch": 2, "BadParameter": 2, "TooLarge": 2,
    "IncompleteCensus": 2, "OSError": 2, "BrokenPipeError": 2,
    "Disconnected": 3,
    "NoConvergence": 4,
    "NotLinear": 5, "InvalidSpec": 5, "MultipleEdge": 5, "PendentEdge": 5,
    "NotPendentPaths": 5,
}


@pytest.mark.parametrize(
    "error", [*_subclasses(HypertreeError), OSError, BrokenPipeError], ids=lambda c: c.__name__
)
def test_exit_code_table_covers_every_error(capsys, monkeypatch, star_file, error):
    # a new error class fails here until it is given a code on purpose
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_compute", fail)
    code, out, err = run(capsys, "compute", star_file)
    assert code == EXIT_CODE_OF[error.__name__]
    assert out == ""
    assert err.startswith("error: boom")


def test_unexpected_error_keeps_its_traceback(monkeypatch, star_file):
    # a bare ValueError is a bug, not a parameter error
    def fail(args):
        raise ValueError("shapes do not align")

    monkeypatch.setattr(cli, "cmd_compute", fail)
    with pytest.raises(ValueError, match="shapes do not align"):
        main(["compute", star_file])


SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_verification.py"


def _run_script(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True, text=True)


@pytest.mark.parametrize(
    "flags, reason",
    [
        (("--k", "3", "--max-m", "0"), "--max-m must be at least 1, got 0"),
        (("--k", "1", "--max-m", "3"), "no supertree with n=1, k=1"),
        (("--k", "3", "--max-m", "3", "--tol", "0"), "tol must be positive"),
    ],
    ids=["max-m-zero", "k-one", "tol-zero"],
)
def test_run_verification_rejects_bad_ranges(flags, reason):
    proc = _run_script(*flags)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {reason}") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_run_verification_prints_verdicts():
    proc = _run_script("--k", "3", "--max-m", "3")
    assert proc.returncode == 0
    claims = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
    assert len(claims) == 3 * 3 * 2 + 3  # second-largest only at m = 3
    assert all(" certified rho=" in line for line in claims)


@pytest.mark.parametrize("flags, code", [((), 0), (("--tol", "10"), 6)], ids=["pass", "fail"])
def test_run_verification_is_verify(capsys, flags, code):
    # the script passes its arguments to verify: same exit code, same output
    argv = ("--k", "3", "--max-m", "3", *flags)
    proc = _run_script(*argv)
    assert (proc.returncode, proc.stdout) == run(capsys, "verify", *argv)[:2]
    assert proc.returncode == code
    assert proc.stdout.count("census size") == 3  # a failed claim ends no census early


def _claims(out):
    return [line for line in out.splitlines() if line.startswith(("PASS ", "FAIL ", "SKIP "))]


@pytest.mark.parametrize("k, max_m", [(3, 4), (4, 3)])
def test_verify_sweep_is_the_single_censuses_in_order(capsys, tmp_path, k, max_m):
    export = tmp_path / "sweep.jsonl"
    code, out, _ = run(
        capsys, "verify", "--k", str(k), "--max-m", str(max_m), "--bounds", "--export", str(export)
    )
    assert code == 0 and out.endswith("\nPASS\n")
    claims, shapes = [], []
    for m in range(1, max_m + 1):
        n = m * (k - 1) + 1
        single_code, single_out, _ = run(capsys, "verify", "--n", str(n), "--k", str(k))
        assert single_code == 0
        claims += _claims(single_out)
        shapes += [rec.hypergraph for rec in census.enumerate_supertrees(n, k).records]
    assert _claims(out) == claims
    exported = [json.loads(line)["edges"] for line in export.read_text().splitlines()]
    assert exported == [list(map(list, g.edges)) for g in shapes]
    row = re.compile(r"\s*\d+( +\d+\.\d{6}){5}")
    rho_rrt = [line.split()[4] for line in out.splitlines() if row.fullmatch(line)]
    assert rho_rrt == [f"{bounds_report(g).rho_rrt:.6f}" for g in shapes]


def test_console_script_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "hypertree_spectra.cli", "construct", "hyperstar", "7", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert parse_hypergraph(proc.stdout) == hyperstar(7, 3)
