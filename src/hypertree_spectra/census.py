"""Exhaustive enumeration of small supertrees up to isomorphism, and
verification of the extremal theorems over the census.

A supertree's incidence tree has exactly one center, and rooted there it
is built once from smaller rooted pieces, so the census is isomorph-free
by construction: no candidate is canonicalized, no set of forms is kept,
and each shape is its center's AHU bit string, which canon's labeler
numbers.  Free trees on n' nodes are the k=2 census with n'-1 edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, combinations_with_replacement, groupby, product
from typing import Iterator

from .canon import _label, canonical_form
from .errors import IncompleteCensus, TooLarge
from .families import _supertree_edges, double_star, hyperstar, loose_path
from .hypergraph import Hypergraph
from .spectral import DEFAULT_TOL, ROUNDING_PAD, closed_form_hyperstar, spectral_radii
from .tensors import TensorKind

MAX_CENSUS_EDGES = 6
# Shapes per solver batch, each solved under all three kinds.  The solver's
# arrays grow with the batch: at k=2, m=14 (7741 shapes) batches of 1024
# peak at 13 MB, against 33 MB for all shapes under one kind and 97 MB
# under all three, and solve no slower.
CENSUS_BATCH = 1024


@dataclass(frozen=True)
class CensusRecord:
    hypergraph: Hypergraph  # labeled by its own canonical form
    solves: dict[TensorKind, dict[str, float]]  # iterations, lower, upper, residual
    is_hyperstar: bool
    is_loose_path: bool
    is_double_star_1: bool  # the second-largest shape S^k(1, m-2)
    is_tree_power: bool

    @property
    def radii(self) -> dict[TensorKind, float]:
        """Each kind's radius, the midpoint of its bracket."""
        return {kind: 0.5 * (s["lower"] + s["upper"]) for kind, s in self.solves.items()}

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "edges": [list(e) for e in self.hypergraph.edges],
                "rho_adj": self.radii[TensorKind.Adjacency],
                "rho_q": self.radii[TensorKind.SignlessLaplacian],
                "rho_qstar": self.radii[TensorKind.IncidenceQ],
                "solves": {kind.value: stats for kind, stats in self.solves.items()},
                "is_hyperstar": self.is_hyperstar,
                "is_loose_path": self.is_loose_path,
                "is_double_star_1": self.is_double_star_1,
                "is_tree_power": self.is_tree_power,
            }
        )


@dataclass(frozen=True)
class Census:
    n: int
    k: int
    records: tuple[CensusRecord, ...]

    @property
    def m(self) -> int:
        return (self.n - 1) // (self.k - 1)

    def export_jsonl(self) -> str:
        return "\n".join(r.to_json_line() for r in self.records) + "\n"


@dataclass(frozen=True)
class Assertion:
    name: str
    kind: str
    passed: bool
    margin: float | None  # certified bracket gap; None when nothing is to be beaten
    detail: str = ""  # the verdict (certified, refuted or undecided) first

    def line(self) -> str:
        """The report line: status, name, kind, margin and detail."""
        status = "PASS" if self.passed else "FAIL"
        margin = "n/a" if self.margin is None else f"{self.margin:.6g}"
        return f"{status} {self.name} [{self.kind}] margin={margin} {self.detail}"


@dataclass(frozen=True)
class VerificationReport:
    n: int
    k: int
    census_size: int
    assertions: tuple[Assertion, ...]
    skipped: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


# -- enumeration -------------------------------------------------------------

def _supertree_shapes(m: int, k: int) -> list[Hypergraph]:
    """All k-uniform supertrees with m >= 1 edges, one per isomorphism
    class, each labeled by its own canonical form, in order of the form.
    Each is built once, rooted at its incidence tree's one center (Otter
    1948; Wright, Richmond, Odlyzko & McKay 1986): a vertex with two or
    more edge branches, or an edge with k vertex subtrees, whose two
    deepest children are equally deep.  Pieces carry canon's AHU bit
    strings (a leaf is "10"), sorted among siblings, and ``canon._label``
    numbers the vertices in pre-order, each edge an increasing tuple, so
    nothing is validated."""
    # pieces by edge count: (code, depth), the code as in canon and the
    # depth in edges.  A vertex subtree is a multiset of edge branches, an
    # edge branch one of k-1 vertex subtrees.  A piece of s edges and depth
    # d has a rival as deep beside it at the center, so needs s + d <= m
    below: list[list[tuple]] = [[("10", 0)]]  # vertex subtrees
    branches: list[list[tuple]] = [[]]  # edge branches
    for s in range(1, m):
        kids = _multisets(below, s - 1, k - 1)
        branches.append([(c, d[-1] + 1) for c, d in kids if s + d[-1] < m])
        below.append([(c, d[-1]) for c, d in _multisets(branches, s) if s + d[-1] <= m])
    vertex_centers = ((True, c, d) for c, d in _multisets(branches, m) if len(d) > 1)
    edge_centers = ((False, c, d) for c, d in _multisets(below, m - 1, k))
    n, shapes = m * (k - 1) + 1, []
    for vertex_root, code, depths in chain(vertex_centers, edge_centers):
        if depths[-1] == depths[-2]:
            shapes.append(Hypergraph(k=k, n=n, edges=tuple(sorted(_label(code, vertex_root)))))
    return sorted(shapes, key=lambda g: g.edges)


def _multisets(table: list[list[tuple]], total: int, count: int | None = None) -> Iterator[tuple]:
    """Each multiset of table pieces whose sizes (table indices) sum to
    total, once, as the code of a node with these children and their sorted
    depths: of count pieces, the rest of size 0, or of any number if None."""
    for parts in _partitions(total, total if count is None else count, len(table) - 1):
        parts += (0,) * ((count or 0) - len(parts))
        runs = [(p, len(list(run))) for p, run in groupby(parts)]
        for pick in product(*(combinations_with_replacement(table[p], c) for p, c in runs)):
            pieces = sorted(sum(pick, ()))
            yield "1" + "".join(c for c, _ in pieces) + "0", sorted(d for _, d in pieces)


def _partitions(total: int, most: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of at most `most` parts in 1..largest summing to total."""
    if total == 0:
        yield ()
    for p in range(min(total, largest), 0, -1) if most else ():
        for rest in _partitions(total - p, most - 1, p):
            yield (p, *rest)


def _is_tree_power(g: Hypergraph) -> bool:
    """A supertree is a k-th power of an ordinary tree iff every edge
    carries at least k-2 degree-one (filler) vertices."""
    degs = g.degrees
    for e in g.edges:
        if sum(1 for v in e if degs[v - 1] == 1) < g.k - 2:
            return False
    return True


def enumerate_supertrees(
    n: int,
    k: int,
    tol: float = DEFAULT_TOL,
    max_edges: int = MAX_CENSUS_EDGES,
) -> Census:
    """Complete census of k-uniform supertrees on n vertices with radii
    and shape flags per member."""
    m = _supertree_edges(n, k, "supertree")
    if m > max_edges:
        raise TooLarge(f"census capped at m <= {max_edges}, got m={m}")
    star_form = canonical_form(hyperstar(n, k))
    path_form = canonical_form(loose_path(n, k))
    ds1_form = canonical_form(double_star(1, m - 2, k)) if m >= 3 else None
    shapes = _supertree_shapes(m, k)
    kinds, records = tuple(TensorKind), []
    for start in range(0, len(shapes), CENSUS_BATCH):
        batch = shapes[start : start + CENSUS_BATCH]
        solved = spectral_radii(kinds, batch, tol)
        for g, *results in zip(batch, *solved):
            records.append(
                CensusRecord(
                    hypergraph=g,
                    solves={
                        kind: {
                            "iterations": res.iterations,
                            "lower": res.lower,
                            "upper": res.upper,
                            "residual": res.residual,
                        }
                        for kind, res in zip(kinds, results)
                    },
                    is_hyperstar=g.edges == star_form,
                    is_loose_path=g.edges == path_form,
                    is_double_star_1=g.edges == ds1_form,
                    is_tree_power=_is_tree_power(g),
                )
            )
    return Census(n=n, k=k, records=tuple(records))


# -- verification ------------------------------------------------------------

def bracket_verdict(own: tuple[float, float], rival: tuple[float, float]) -> tuple[str, float]:
    """Is own's (lower, upper) bracket above rival's?  "certified" when the
    gap lower(own) - upper(rival) exceeds the rounding pad, "refuted" when
    the brackets are that far apart the other way, else "undecided"."""
    pad = ROUNDING_PAD * max(1.0, *map(abs, own), *map(abs, rival))
    gap = own[0] - rival[1]
    if gap > pad:
        return "certified", gap
    return ("refuted" if rival[0] - own[1] > pad else "undecided"), gap


def _claim(
    name: str,
    kind: TensorKind,
    winner: CensusRecord,
    others: list[CensusRecord],
    largest: bool,
    closed: float | None = None,
) -> Assertion:
    """Certify from the stored brackets that winner's radius is strictly
    above (largest) or below every radius of others.  The margin is the
    certified gap, lower(winner) - max upper(others) for a maximum and
    min lower(others) - upper(winner) for a minimum; a closed form, if
    given, must lie inside winner's padded bracket."""
    def bracket(r: CensusRecord) -> tuple[float, float]:
        # oriented so that every claim reads "winner is the largest"
        lo, hi = r.solves[kind]["lower"], r.solves[kind]["upper"]
        return (lo, hi) if largest else (-hi, -lo)

    gap = None
    verdict = "certified"
    if others:
        rivals = [bracket(r) for r in others]
        envelope = (max(b[0] for b in rivals), max(b[1] for b in rivals))
        verdict, gap = bracket_verdict(bracket(winner), envelope)
    detail = f"{verdict} rho={winner.radii[kind]:.12g}"
    # a point is inside the padded bracket iff neither is above the other
    own = winner.solves[kind]["lower"], winner.solves[kind]["upper"]
    inside = closed is None or bracket_verdict(own, (closed, closed))[0] == "undecided"
    if closed is not None:
        detail += f" closed={closed:.12g}" + ("" if inside else " outside the bracket")
    return Assertion(name, kind.value, verdict == "certified" and inside, gap, detail)


def _flagged(census: Census, flag: str, label: str) -> CensusRecord:
    rec = next((r for r in census.records if getattr(r, flag)), None)
    if rec is None:
        raise IncompleteCensus(f"census lacks the {label}")
    return rec


def verify_extremal(census: Census) -> VerificationReport:
    """Check hyperstar maximality, the second-largest double star, and
    loose-path minimality among tree powers, for all three tensors, each
    claim certified by Collatz-Wielandt brackets that do not overlap."""
    n, k, m = census.n, census.k, census.m
    star = _flagged(census, "is_hyperstar", "hyperstar")
    path = _flagged(census, "is_loose_path", "loose path")
    ds1 = _flagged(census, "is_double_star_1", "double star S(1, m-2)") if m >= 3 else None
    rest = [r for r in census.records if r is not star]
    below_ds1 = [r for r in rest if r is not ds1]
    powers = [r for r in census.records if r.is_tree_power and r is not path]
    assertions: list[Assertion] = []
    skipped: list[str] = []
    for kind in TensorKind:
        closed = closed_form_hyperstar(kind, n, k)
        assertions.append(_claim("hyperstar-maximal", kind, star, rest, True, closed))
        if ds1 is None:
            skipped.append(f"second-largest check skipped for m={m} < 3 ({kind.value})")
        else:
            assertions.append(_claim("second-largest-double-star", kind, ds1, below_ds1, True))
        assertions.append(_claim("loose-path-minimal-among-powers", kind, path, powers, False))
    return VerificationReport(n, k, len(census.records), tuple(assertions), tuple(skipped))
