"""Smoke test of the benchmark itself, at tiny sizes:

    python3 -m pytest perfbench

It runs k=3 censuses with m <= 4, the loose path with m=5 and one random
tree, and checks that every metric of BENCHMARK.json is printed with its
unit and that the correctness gate catches planted errors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

PACKAGE = run.load_package()

import workloads  # noqa: E402

SEED = 0
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str):
    return {
        "census_sweep": lambda: workloads.CensusSweep(sweep=((3, 4),)),
        "long_path": lambda: workloads.LongPath(m=5),
        "graft_descent": lambda: workloads.GraftDescent(trees=1),
    }[name]()


def measure(workload, tmp_path, trace=False, reference=None, **kwargs):
    if reference is None:
        reference = workloads.load_reference(run.REFERENCE, workload.name)
    return run.measure(workload, SEED, 0.0, trace, reference, PACKAGE,
                       workdir=tmp_path, **kwargs)


def printed(result) -> tuple[list[str], dict]:
    lines = run.report_lines(result, run.run_record(result, {}, PACKAGE))
    return lines, json.loads(run.result_json(result))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    result = measure(tiny(name), tmp_path, trace=trace)
    lines, final = printed(result)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0
    assert {m["name"]: m["unit"] for m in wanted} == {
        metric: value["unit"] for metric, value in final["metrics"].items()
    }
    table = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    for metric in wanted:
        assert table[metric["name"]] == metric["unit"]
    assert table["failed_share"] == "ratio"


def test_wrong_reference_radius_fails_the_gate(tmp_path):
    workload = tiny("census_sweep")
    reference = workloads.load_reference(run.REFERENCE, workload.name)
    radii = dict(reference.radii)
    radii["3,4,adj"] = [radii["3,4,adj"][0] * (1 + 1e-6), *radii["3,4,adj"][1:]]
    result = measure(workload, tmp_path, reference=workloads.Reference(radii))
    _, final = printed(result)
    assert final["correct"] is False
    assert final["failed"] == 1


def test_wrong_census_count_fails_the_gate(tmp_path):
    sizes = {3: (1, 1, 2, 5)}
    result = measure(workloads.CensusSweep(sweep=((3, 4),), sizes=sizes), tmp_path)
    _, final = printed(result)
    assert final["correct"] is False
    assert final["failed"] >= 1


def test_pass_over_budget_counts_as_failed(tmp_path):
    result = measure(tiny("graft_descent"), tmp_path, budget=1e-3)
    _, final = printed(result)
    assert final["correct"] is False
    assert final["failed"] >= 1


def test_missing_package_source_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "long_path", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
