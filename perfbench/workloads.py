"""The benchmark's three workloads: inputs from the seed, one pass, checks.

Each workload has

* ``setup(seed, workdir)``: builds the inputs; timed as set-up.
* ``prepare(inputs)``: untimed work the checks need, such as the number of
  operations a pass attempts and the shapes it should reach.
* ``run_pass(inputs, out)``: one pass through the package's public API, as a
  generator that yields after each unit of work (a census, a compute, a
  chain), so that the caller can time units.  It appends each result to
  ``out`` as soon as it is made, so a pass that is stopped keeps what it
  finished.
* ``check(inputs, prep, out, reference)``: problems per operation, run right
  after the pass.
* ``oracle(inputs, prep, out)``: problems per operation from the dense-tensor
  or matrix oracles.  It runs after the measured loop and after peak memory
  has been read, because the oracles allocate.

An operation is one radius of one graph and one kind, or one verdict: on one
census, or on one graft chain.  Checks return ``{operation: [problem, ...]}``;
an operation with an empty list passed.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hypertree_spectra as hs
from hypertree_spectra import cli, transforms

TOL = 1e-10  # the package's default tolerance, which every solve here uses
PAD_REL = 1e-12  # rounding pad for bracket comparisons, relative to the radius
REF_REL_TOL = 1e-8  # allowed relative distance from a reference radius
KIND_NAMES = ("adj", "q", "qstar")  # the tensor kinds, by their command-line names

# Supertree classes with m = 1, 2, ... edges.
CENSUS_SIZES = {3: (1, 1, 2, 4, 8, 19, 48, 126), 4: (1, 1, 2, 4, 9, 21, 56)}


def _pad(rho: float) -> float:
    return PAD_REL * max(1.0, abs(rho))


def _bracket_problems(rho: float, lower: float, upper: float) -> list[str]:
    pad = _pad(rho)
    found = []
    if upper - lower > TOL + pad:
        found.append(f"bracket width {upper - lower:.3g} exceeds tol {TOL:g}")
    if not lower - pad <= rho <= upper + pad:
        found.append(f"radius {rho!r} outside its bracket [{lower!r}, {upper!r}]")
    return found


def _in_bracket(value: float, lower: float, upper: float, what: str) -> list[str]:
    pad = _pad(value)
    if lower - pad <= value <= upper + pad:
        return []
    return [f"{what} {value!r} outside the bracket [{lower!r}, {upper!r}]"]


@dataclass(frozen=True)
class Reference:
    """Radii of an earlier run of one workload.

    A key names inputs that the benchmark itself fixes, and ends with the
    kind: ``"3,5,adj"`` holds the sorted adj radii of the k=3, m=5 census,
    ``"m60,q"`` the q radius of long_path, ``"2,4,qstar"`` the qstar radius
    of tree 2 at chain position 4 in graft_descent.  Every key a workload
    meets is recorded, whatever the seed, so a missing one is a failure.
    """

    radii: dict[str, list[float]]

    def problems(self, key: str, i: int, rho: float) -> list[str]:
        ref = self.radii.get(key, [])
        if i >= len(ref):
            return [f"no reference radius {key}[{i}]"]
        if abs(rho - ref[i]) > REF_REL_TOL * abs(ref[i]):
            return [f"radius {key}[{i}] = {rho!r} differs from reference {ref[i]!r}"]
        return []


def load_reference(path: Path, workload: str) -> Reference:
    data = json.loads(path.read_text(encoding="utf-8"))
    return Reference(radii=data["radii"][workload])


def relabel(g, perm: list[int]):
    """g with vertex v renamed perm[v - 1]."""
    return hs.validate([[perm[v - 1] for v in e] for e in g.edges], g.n, k=g.k)


def permutation(seed: int, n: int) -> list[int]:
    """A seeded random permutation of 1..n."""
    perm = list(range(1, n + 1))
    random.Random(seed).shuffle(perm)
    return perm


class CensusSweep:
    """enumerate_supertrees followed by verify_extremal, for each (k, m)."""

    name = "census_sweep"

    def __init__(self, sweep=((3, 8), (4, 7)), sizes=CENSUS_SIZES):
        self.sweep = sweep  # (k, largest m) pairs
        self.sizes = sizes

    def setup(self, seed: int, workdir: Path) -> list[tuple[int, int]]:
        """The (k, m) of each census; the seed has no effect."""
        return [(k, m) for k, top in self.sweep for m in range(1, top + 1)]

    def prepare(self, inputs) -> dict:
        attempted = sum(3 * self.sizes[k][m - 1] + 1 for k, m in inputs)
        return {"attempted": attempted}

    def run_pass(self, inputs, out: list):
        for k, m in inputs:
            census = hs.enumerate_supertrees(m * (k - 1) + 1, k, max_edges=m)
            out.append(("census", k, m, census))
            out.append(("verdict", k, m, hs.verify_extremal(census)))
            yield

    @staticmethod
    def _sorted_radii(census, kind: str) -> list[float]:
        return sorted(rec.radii[hs.TensorKind(kind)] for rec in census.records)

    def radii(self, inputs, out) -> dict[str, list[float]]:
        return {
            f"{k},{m},{kind}": self._sorted_radii(census, kind)
            for tag, k, m, census in out
            if tag == "census"
            for kind in KIND_NAMES
        }

    def check(self, inputs, prep, out, reference: Reference) -> dict:
        problems: dict = {}
        sizes: dict = {}
        for tag, k, m, value in out:
            if tag == "census":
                sizes[k, m] = len(value.records)
                for kind in KIND_NAMES:
                    for i, rho in enumerate(self._sorted_radii(value, kind)):
                        found = reference.problems(f"{k},{m},{kind}", i, rho)
                        problems["radius", k, m, kind, i] = found
                continue
            found = []
            expected = self.sizes[k][m - 1]
            if sizes.get((k, m)) != expected:
                found.append(f"k={k} m={m}: census size {sizes.get((k, m))}, expected {expected}")
            failed = [f"{a.name}[{a.kind}]" for a in value.assertions if not a.passed]
            if failed:
                found.append(f"k={k} m={m}: failed assertions {', '.join(failed)}")
            problems["verdict", k, m] = found
        return problems

    oracle = None


class LongPath:
    """In-process ``compute --kind K --eigvec FILE`` on a relabelled loose path."""

    name = "long_path"
    K = 3

    def __init__(self, m: int = 60):
        self.m = m

    def setup(self, seed: int, workdir: Path):
        n = self.m * (self.K - 1) + 1
        g = relabel(hs.loose_path(n, self.K), permutation(seed, n))
        file = workdir / f"loose_path_m{self.m}_k{self.K}_seed{seed}.hg"
        hs.write_hypergraph(g, file)
        return g, file

    def prepare(self, inputs) -> dict:
        # the loose path is the k-th power of the path on m+1 nodes
        rho_path = 2.0 * math.cos(math.pi / (self.m + 2))
        return {"attempted": len(KIND_NAMES), "adj_closed_form": rho_path ** (2.0 / self.K)}

    def run_pass(self, inputs, out: list):
        _, file = inputs
        for kind in KIND_NAMES:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["compute", "--kind", kind, "--eigvec", str(file)])
            out.append((kind, code, buf.getvalue()))
            yield

    @staticmethod
    def _payload(code: int, text: str) -> dict | None:
        """The JSON that compute printed, or None if it failed or lacks a field."""
        if code != 0:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        fields = {"rho", "lower", "upper", "eigvec"}
        return payload if isinstance(payload, dict) and fields <= payload.keys() else None

    def radii(self, inputs, out) -> dict[str, list[float]]:
        return {f"m{self.m},{kind}": [self._payload(code, text)["rho"]] for kind, code, text in out}

    def check(self, inputs, prep, out, reference: Reference) -> dict:
        problems = {}
        for kind, code, text in out:
            payload = self._payload(code, text)
            if payload is None:
                problems["radius", kind] = [f"{kind}: exit code {code}, output {text[:200]!r}"]
                continue
            rho, lower, upper = payload["rho"], payload["lower"], payload["upper"]
            found = _bracket_problems(rho, lower, upper)
            if kind == "adj":
                found += _in_bracket(prep["adj_closed_form"], lower, upper, "closed form")
            found += reference.problems(f"m{self.m},{kind}", 0, rho)
            problems["radius", kind] = found
        return problems

    def oracle(self, inputs, prep, out) -> dict:
        """Recompute each bracket from the returned eigenvector, densely."""
        g, _ = inputs
        problems = {}
        for kind in KIND_NAMES:
            dense = hs.dense_build(hs.TensorKind(kind), g)
            for name, code, text in out:
                payload = self._payload(code, text)
                if name != kind or payload is None:
                    continue
                x = np.asarray(payload["eigvec"], dtype=float)
                ratios = dense.contract(x) / x ** (g.k - 1)
                lower, upper = float(ratios.min()), float(ratios.max())
                found = _bracket_problems(payload["rho"], lower, upper)
                problems["radius", kind] = [f"dense oracle: {p}" for p in found]
        return problems


def random_tree(rng: random.Random, nodes: int) -> list[int]:
    """Parent array (nodes 2..n, rooted at 1) of a uniformly random labelled
    tree, decoded from a random Pruefer sequence."""
    seq = [rng.randint(1, nodes) for _ in range(nodes - 2)]
    degree = [1] * (nodes + 1)
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, nodes + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    adj: dict[int, list[int]] = {v: [] for v in range(1, nodes + 1)}
    for v in seq:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = leaves
    adj[u].append(w)
    adj[w].append(u)
    parent = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                stack.append(w)
    return [parent[v] for v in range(2, nodes + 1)]


class GraftDescent:
    """graft_to_path and apply_graft_sequence on random trees, then all three
    radii of the k-th power of every tree in each chain.

    The trees are drawn once, from TREE_SEED, so that every seed runs the
    same chains: the cost of a chain varies by more than the benchmark's
    bound from one random tree to the next.  The seed relabels the vertices
    of each tree power before it is solved, as long_path does.
    """

    name = "graft_descent"
    TREE_SEED = 0
    NODES = 16
    K = 3
    N = NODES + (NODES - 1) * (K - 2)  # vertices of a tree power

    def __init__(self, trees: int = 10):
        self.trees = trees

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(self.TREE_SEED)
        trees = [random_tree(rng, self.NODES) for _ in range(self.trees)]
        return trees, permutation(seed, self.N)

    def prepare(self, inputs) -> dict:
        trees, _ = inputs
        chain_lengths = [len(transforms.graft_to_path(parents)) + 1 for parents in trees]
        return {"attempted": len(KIND_NAMES) * sum(chain_lengths) + len(trees)}

    def run_pass(self, inputs, out: list):
        trees, perm = inputs
        for t, parents in enumerate(trees):
            steps = transforms.graft_to_path(parents)
            chain = [list(parents), *transforms.apply_graft_sequence(parents, steps)]
            out.append(("chain", t, chain))
            for pos, tree in enumerate(chain):
                g = relabel(hs.tree_power(tree, self.K), perm)
                for kind in KIND_NAMES:
                    result = hs.spectral_radius(hs.TensorKind(kind), g)
                    out.append(("radius", t, pos, kind, result))
            yield

    def radii(self, inputs, out) -> dict[str, list[float]]:
        return {
            f"{t},{pos},{kind}": [result.rho]
            for tag, t, pos, kind, result in (item for item in out if item[0] == "radius")
        }

    def check(self, inputs, prep, out, reference: Reference) -> dict:
        problems: dict = {}
        chains: dict = {}
        results: dict = {}
        for item in out:
            if item[0] == "chain":
                chains[item[1]] = item[2]
                continue
            _, t, pos, kind, res = item
            results[t, pos, kind] = res
            found = _bracket_problems(res.rho, res.lower, res.upper)
            found += reference.problems(f"{t},{pos},{kind}", 0, res.rho)
            problems["radius", t, pos, kind] = found
        for t, chain in chains.items():
            found = []
            # a tree is a path exactly when no node has degree above 2, and
            # then its k-th power is the loose path
            degree = [0] * (len(chain[-1]) + 2)
            for child, parent in enumerate(chain[-1], start=2):
                degree[child] += 1
                degree[parent] += 1
            if max(degree) > 2:
                found.append(f"tree {t}: the chain does not end at the path")
            for pos in range(1, len(chain)):
                for kind in KIND_NAMES:
                    before, after = results.get((t, pos - 1, kind)), results.get((t, pos, kind))
                    if before is None or after is None:
                        found.append(f"tree {t} step {pos} [{kind}]: radius missing")
                    elif not after.upper + _pad(before.lower) < before.lower:
                        found.append(
                            f"tree {t} step {pos} [{kind}]: bracket [{after.lower!r}, "
                            f"{after.upper!r}] does not lie below [{before.lower!r}, "
                            f"{before.upper!r}]"
                        )
            problems["chain", t] = found
        return problems

    def oracle(self, inputs, prep, out) -> dict:
        """The adjacency radius of a tree power is rho(A(T))^(2/k)."""
        problems = {}
        chains = {item[1]: item[2] for item in out if item[0] == "chain"}
        for item in out:
            if item[0] != "radius" or item[3] != "adj":
                continue
            _, t, pos, kind, res = item
            parents = chains[t][pos]
            a = np.zeros((len(parents) + 1,) * 2)
            for child, parent in enumerate(parents, start=2):
                a[child - 1, parent - 1] = a[parent - 1, child - 1] = 1.0
            expected = float(np.linalg.eigvalsh(a)[-1]) ** (2.0 / self.K)
            found = _in_bracket(expected, res.lower, res.upper, "rho(A(T))^(2/k)")
            problems["radius", t, pos, kind] = [f"matrix oracle: {p}" for p in found]
        return problems


WORKLOADS = {w.name: w for w in (CensusSweep, LongPath, GraftDescent)}
