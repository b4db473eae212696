"""scripts/bench_pairs.py's summary and verdicts, on synthetic runs."""

import argparse
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BOUNDS = {"wall_s": 0.25}


def _runs(base, change, name="wall_s"):
    """Runs with one metric; None stands for a run that gave no result."""
    def side(values):
        return [{"metrics": {} if v is None else {name: v}} for v in values]

    return {"base": side(base), "change": side(change)}


def test_summary_spread_and_pairs():
    summary = bench_pairs.summarize(_runs([4, 1, 3, 2, 5], [1, 2, 2, 3, None]), BOUNDS)
    entry = summary["wall_s"]
    assert entry["base"] == {"q1": 2, "median": 3, "q3": 4}
    assert entry["change"] == {"q1": 1.75, "median": 2, "q3": 2.25}
    # the fifth pair has no change result; the second and fourth are not lower
    assert (entry["pairs"], entry["change_lower_in"]) == (4, 2)


def test_one_run_per_side_is_its_own_spread():
    entry = bench_pairs.summarize(_runs([2.0], [1.0]), BOUNDS)["wall_s"]
    assert entry["base"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert entry["verdict"] == "lower"


BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize(
    "change,verdict",
    [
        ([v - 0.1 for v in BASE], "lower"),
        # lower in 9 of 10 pairs is enough
        ([v - 0.1 for v in BASE[:9]] + [2.0], "lower"),
        # lower in 8 of 10 is not
        ([v - 0.1 for v in BASE[:8]] + [2.0, 2.0], "unchanged"),
        # lower in every pair, but by less than the base's q3 - q1 (0.01)
        ([v - 0.005 for v in BASE], "unchanged"),
        ([v * 1.2 for v in BASE], "unchanged"),
        ([v * 1.3 for v in BASE], "worse"),
        ([None] * 10, "unresolved"),
    ],
)
def test_verdict(change, verdict):
    assert bench_pairs.summarize(_runs(BASE, change), BOUNDS)["wall_s"]["verdict"] == verdict


def test_wide_base_spread_is_unresolved():
    base = [0.5, 1.5, 0.5, 1.5, 1.0, 1.0, 0.5, 1.5, 1.0, 1.0]
    summary = bench_pairs.summarize(_runs(base, [1.1] * 10), BOUNDS)
    assert summary["wall_s"]["verdict"] == "unresolved"
    # and worse wins over it when the change's median is beyond the bound
    summary = bench_pairs.summarize(_runs(base, [1.3] * 10), BOUNDS)
    assert summary["wall_s"]["verdict"] == "worse"


def test_metric_without_a_bound_is_lower_or_unchanged():
    runs = _runs(BASE, [v * 3 for v in BASE], name="checks")
    assert bench_pairs.summarize(runs, BOUNDS)["checks"]["verdict"] == "unchanged"
    runs = _runs(BASE, [v / 3 for v in BASE], name="checks")
    assert bench_pairs.summarize(runs, BOUNDS)["checks"]["verdict"] == "lower"


def test_bounds_are_the_end_to_end_metrics():
    assert bench_pairs.bounds() == {
        "setup_s": 0.25, "wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1
    }


def test_workloads_and_bounds_come_from_the_spec_file(tmp_path, monkeypatch):
    """With no --workload, main runs every workload that the spec file
    declares, in its order, and --workload takes no other name."""
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({
        "workloads": [{"name": "zeta", "why": "first"}, {"name": "alpha", "why": "second"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.5}],
    }))
    assert bench_pairs.workloads(spec) == ["zeta", "alpha"]
    assert bench_pairs.bounds(spec) == {"wall_s": 0.5}
    seen = []

    def run_once(checkout, workload, seed, seconds):
        seen.append(workload)
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": 1.4 if checkout.name == "change" else 1.0}}

    monkeypatch.setattr(bench_pairs, "SPEC", spec)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    sides = [str(tmp_path / side) for side in bench_pairs.SIDES]
    # 1.4 is within the spec's bound of 0.5, so the verdict is not worse
    assert bench_pairs.main([*sides, "--label", "t", "--pairs", "2", "--out", str(tmp_path)]) == 0
    assert seen == ["zeta"] * 4 + ["alpha"] * 4
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(bench["workloads"]) == ["zeta", "alpha"]
    assert bench["workloads"]["alpha"]["summary"]["wall_s"]["verdict"] == "unchanged"
    with pytest.raises(SystemExit):
        bench_pairs.main([*sides, "--label", "t", "--workload", "census_sweep"])


def _git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


@pytest.fixture
def two_commits(tmp_path):
    """A throwaway git repository whose two commits hold version.txt 1 and 2,
    and their full hashes."""
    if shutil.which("git") is None:
        pytest.skip("needs git")
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    commits = []
    for version in ("1", "2"):
        (repo / "version.txt").write_text(version)
        _git(repo, "add", "version.txt")
        _git(repo, "-c", "user.name=bench", "-c", "user.email=bench@localhost",
             "commit", "-q", "-m", f"version {version}")
        commits.append(_git(repo, "rev-parse", "HEAD"))
    return repo, commits


def test_checkout_archives_a_revision_and_names_its_commit(two_commits, tmp_path):
    repo, (first, second) = two_commits
    into = tmp_path / "archives"
    into.mkdir()
    for spec, commit, version in (("HEAD~1", first, "1"), (second[:8], second, "2")):
        path, revision = bench_pairs.checkout(spec, into, repo)
        assert revision == commit
        assert path.parent == into and (path / "version.txt").read_text() == version
        assert not (path / ".git").exists()
    # both archives are kept apart, also of one commit
    path, _ = bench_pairs.checkout("HEAD", into, repo)
    assert len(list(into.iterdir())) == 3 and (path / "version.txt").read_text() == "2"


def test_checkout_of_a_directory_is_the_directory(two_commits, tmp_path):
    repo, (_, second) = two_commits
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.checkout(str(repo), tmp_path, repo) == (repo.resolve(), second)
    assert bench_pairs.checkout(str(plain), tmp_path, repo) == (plain.resolve(), "plain")
    with pytest.raises(ValueError):
        bench_pairs.checkout("no-such-revision", tmp_path, repo)


def test_main_records_the_commits_it_compares(two_commits, tmp_path, monkeypatch):
    """main on two revisions runs each side in its own archive, which is
    gone afterwards, and the BENCH file names both commits."""
    repo, commits = two_commits
    seen = []

    def run_once(checkout, workload, seed, seconds):
        version = float((checkout / "version.txt").read_text())
        seen.append(checkout)
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": version}}

    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out"
    out.mkdir()
    # the change reads twice the base's wall_s, a worse verdict, so exit 1
    assert bench_pairs.main(["HEAD~1", "HEAD", "--label", "t", "--pairs", "2",
                             "--workload", "long_path", "--out", str(out)]) == 1
    bench = json.loads((out / "BENCH_t.json").read_text())
    assert bench["revisions"] == dict(zip(bench_pairs.SIDES, commits))
    wall = bench["workloads"]["long_path"]["summary"]["wall_s"]
    assert (wall["base"]["median"], wall["change"]["median"]) == (1.0, 2.0)
    assert len(set(seen)) == 2 and not any(path.exists() for path in seen)
    with pytest.raises(SystemExit):
        bench_pairs.main(["no-such-revision", "HEAD", "--label", "t", "--out", str(out)])


@pytest.mark.parametrize("graft_wall,code", [(1.0, 0), (0.5, 0), (2.0, 1)])
def test_run_pairs_exits_1_on_a_worse_verdict(graft_wall, code, tmp_path, monkeypatch, capsys):
    """Every run is correct; only a worse verdict, here graft_descent's
    wall_s, makes the exit code 1, and the workload and metric are printed."""
    def run_once(checkout, workload, seed, seconds):
        wall = graft_wall if checkout.name == "change" and workload == "graft_descent" else 1.0
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": wall, "checks": 5}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    args = argparse.Namespace(label="t", seconds=1.0, pairs=3, out=tmp_path,
                              workload=["long_path", "graft_descent"])
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    assert bench_pairs.run_pairs(args, checkouts, dict(zip(bench_pairs.SIDES, "ab"))) == code
    worse = [line for line in capsys.readouterr().out.splitlines() if line.startswith("worse:")]
    assert worse == (["worse: graft_descent wall_s"] if code else [])
    bench = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert bench["correct"] is True


@pytest.mark.parametrize(
    "flags",
    [["--pairs", "0"], ["--pairs", "-3"], ["--seconds", "0"], ["--seconds", "-1"],
     ["--seconds", "nan"], ["--seconds", "inf"]],
)
def test_main_rejects_no_pairs_and_no_time(flags, tmp_path, monkeypatch, capsys):
    """--pairs below 1 would write a BENCH file with no runs that reads
    correct; a run of no time, or an unbounded one, measures nothing.  Both
    exit 2 before any run, and no BENCH file is written."""
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("ran perfbench"))
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
    sides = [str(tmp_path / side) for side in bench_pairs.SIDES]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([*sides, "--label", "t", "--out", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert flags[0] in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()
