"""Spans around the package's functions, recorded from outside the package.

``Tracer.installed()`` replaces every public function of the package with a
wrapper, in every module namespace that binds it: the defining module, each
module that imports it, and the package itself.  A call through any of those
names records one span ``(name, start, end, parent, pass_id, detail,
outcome)`` in memory.  ``name`` is ``<module>.<function>`` and the module is
the layer.  ``parent`` is the index of the enclosing span, or ``None`` for a
call made by the benchmark itself.  Nothing is wrapped outside that context,
so untraced passes run the package unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from pathlib import Path

KINDS = ("adj", "q", "qstar")


def _find(cls, args, kwargs):
    """The first argument that is an instance of cls, or None."""
    for value in (*args, *kwargs.values()):
        if isinstance(value, cls):
            return value
    return None


def detail_readers(package) -> dict:
    """Per-call details read from the arguments, before the call."""
    graph, kind = package.Hypergraph, package.TensorKind
    return {
        "tensors.apply": lambda args, kwargs: getattr(_find(graph, args, kwargs), "m", 0),
        "spectral.spectral_radius": lambda args, kwargs: getattr(
            _find(kind, args, kwargs), "value", None
        ),
    }


# Per-call outcomes read from the return value, after the call.
OUTCOME = {
    "spectral.spectral_radius": lambda result: result.iterations,
    "census.enumerate_supertrees": lambda result: len(result.records),
    "census.verify_extremal": lambda result: len(result.assertions),
    "transforms.graft_to_path": len,
}


def package_modules(package) -> list:
    """The package and every module in it."""
    names = sorted(info.name for info in pkgutil.iter_modules(package.__path__))
    return [package] + [importlib.import_module(f"{package.__name__}.{n}") for n in names]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._current = None
        self._pass_id = None
        self._details = detail_readers(package)

    def _wrap(self, fn, name):
        spans = self.spans
        detail_of = self._details.get(name)
        outcome_of = OUTCOME.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            detail = detail_of(args, kwargs) if detail_of else None
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if outcome_of is not None:
                    outcome = outcome_of(result)
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                self._current = parent
                spans[index] = (name, start, end, parent, self._pass_id, detail, outcome)

        return traced

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Wrap the package's public functions for the duration of one pass."""
        modules = package_modules(self.package)
        prefix = self.package.__name__
        wrappers: dict = {}
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith(prefix):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                undo.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        self._pass_id = pass_id
        self._current = None
        try:
            yield
        finally:
            for module, attr, value in undo:
                setattr(module, attr, value)
            self._pass_id = None

    def write(self, path: Path) -> None:
        """Write every span, one per line, as gzipped tab-separated text."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tparent\tpass\tname\tstart_s\tend_s\tdetail\toutcome\n")
            for i, (name, start, end, parent, pass_id, detail, outcome) in enumerate(self.spans):
                fields = (i, parent, pass_id, name, repr(start), repr(end), detail, outcome)
                fh.write("\t".join(map(str, fields)) + "\n")


def pass_metrics(spans: list, pass_id) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums that over the layer's spans.
    """
    child_time: dict[int, float] = defaultdict(float)
    indices = [i for i, s in enumerate(spans) if s[4] == pass_id]
    for i in indices:
        name, start, end, parent = spans[i][:4]
        if parent is not None:
            child_time[parent] += end - start
    layer_self: dict[str, float] = defaultdict(float)
    fn_self: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    kind_solves = {k: [] for k in KINDS}
    kind_self = dict.fromkeys(KINDS, 0.0)
    edge_visits = 0
    shapes = candidates = assertions = graft_steps = 0
    for i in indices:
        name, start, end, parent, _, detail, outcome = spans[i]
        self_s = end - start - child_time[i]
        layer_self[name.split(".", 1)[0]] += self_s
        fn_self[name] += self_s
        calls[name] += 1
        if name == "tensors.apply":
            edge_visits += detail or 0
        elif name == "spectral.spectral_radius":
            if detail in kind_solves and isinstance(outcome, int):
                kind_solves[detail].append(outcome)
            if detail in kind_self:
                kind_self[detail] += self_s
        elif name == "census.enumerate_supertrees" and isinstance(outcome, int):
            shapes += outcome
        elif name == "census.verify_extremal" and isinstance(outcome, int):
            assertions += outcome
        elif name == "transforms.graft_to_path" and isinstance(outcome, int):
            graft_steps += outcome
        elif (
            name == "hypergraph.validate"
            and parent is not None
            and spans[parent][0] == "census.enumerate_supertrees"
        ):
            candidates += 1
    apply_self = fn_self["tensors.apply"]
    canon_calls = calls["canon.canonical_form"]
    out = {
        "tensors.apply.calls": calls["tensors.apply"],
        "tensors.apply.self_s": apply_self,
        "tensors.apply.edge_visits": edge_visits,
        "tensors.apply.ns_per_edge_visit": apply_self / edge_visits * 1e9 if edge_visits else 0.0,
    }
    for kind in KINDS:
        iters = kind_solves[kind]
        out[f"spectral.{kind}.solves"] = len(iters)
        out[f"spectral.{kind}.iterations"] = sum(iters)
        out[f"spectral.{kind}.iters_max"] = max(iters, default=0)
        out[f"spectral.{kind}.self_s"] = kind_self[kind]
    out.update(
        {
            "spectral.closed_form.calls": calls["spectral.closed_form_hyperstar"],
            "spectral.closed_form.self_s": fn_self["spectral.closed_form_hyperstar"]
            + fn_self["spectral.alpha_star"],
            "canon.canonical_form.calls": canon_calls,
            "canon.self_s": layer_self["canon"],
            "canon.us_per_call": layer_self["canon"] / canon_calls * 1e6 if canon_calls else 0.0,
            "census.growth.self_s": fn_self["census.enumerate_supertrees"],
            "census.shapes": shapes,
            "census.candidates": candidates,
            "census.dedup_ratio": shapes / candidates if candidates else 0.0,
            "census.verify.self_s": fn_self["census.verify_extremal"],
            "census.verify.assertions": assertions,
            "hypergraph.validate.calls": calls["hypergraph.validate"],
            "hypergraph.self_s": layer_self["hypergraph"],
            "transforms.self_s": layer_self["transforms"],
            "transforms.graft_steps": graft_steps,
            "families.self_s": layer_self["families"],
            "cli.self_s": layer_self["cli"],
        }
    )
    return out

