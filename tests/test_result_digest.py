"""scripts/result_digest.py --quick: one digest per group and one over
all of them, the same on every run."""

import importlib.util
import re
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "result_digest.py"
_SPEC = importlib.util.spec_from_file_location("result_digest", _PATH)
result_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(result_digest)


def test_quick_digests_print_once_per_group_and_repeat(capsys):
    assert result_digest.main(["--quick"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in lines] == ["census", "grafts", "families", "all"]
    assert all(re.fullmatch("[0-9a-f]{64}", value) for _, value in lines)
    assert len({value for _, value in lines}) == 4
    assert result_digest.digests(quick=True) == dict(lines)


def test_graft_graphs_are_relabelled_tree_powers_along_chains():
    graphs = result_digest.graft_graphs(6)
    assert len(graphs) == 6 and {(g.n, g.m, g.k) for g in graphs} == {(31, 15, 3)}
    assert len({g.edges for g in graphs}) == 6
