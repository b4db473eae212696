"""Exhaustive enumeration of small supertrees up to isomorphism, and
verification of the extremal theorems over the census.

A supertree's incidence tree has exactly one center, and rooted there it
is built once from smaller rooted pieces, so the census is isomorph-free
by construction: no candidate is canonicalized, no set of forms is kept,
and each shape is its center's AHU bit string, which canon's labeler
numbers.  Each piece draws its children within the depth a center allows
it, so growth builds only what it keeps.  Free trees on n' nodes are the
k=2 census with n'-1 edges.  Each batch of shapes is indexed once: the
solver's core (spectral._solve) freezes each row of the index as plain
values, the records' solves, and one bincount over it gives the shapes'
degrees, and so their four flags (_flags).  verify_extremal reads each
kind's brackets into two lists of floats and takes each claim's envelope
over lists of record places.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, groupby, product
from typing import Iterator

import numpy as np

from .canon import _label
from .errors import IncompleteCensus, TooLarge
from .families import _supertree_edges
from .hypergraph import Hypergraph
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, ROUNDING_PAD, _solve, closed_form_hyperstar
from .tensors import TensorKind, _edge_index, _row_offset

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
    deepest children are equally deep.  So a piece of s edges has a rival
    as deep beside it and is at most m-s deep: a branch draws vertex
    subtrees of depth at most m-s-1, a vertex subtree branches of depth at
    most m-s.  Pieces carry canon's AHU bit strings (a leaf is "10"), which
    ``canon._label`` numbers into increasing edges, so nothing is validated."""
    below: list[list[tuple]] = [[("10", 0)]]  # vertex subtrees by edge count: (code, depth)
    branches: list[list[tuple]] = [[]]  # edge branches, each of k-1 vertex subtrees
    for s in range(1, m):
        branches.append([(c, d + 1) for c, d in _multisets(below, s - 1, k - 1, m - s - 1)])
        below.append(list(_multisets(branches, s, None, m - s)))
    n, shapes = m * (k - 1) + 1, []
    for root, centers in (True, _multisets(branches, m)), (False, _multisets(below, m - 1, k)):
        shapes += (Hypergraph(k, n, _label(c, root)) for c, _ in centers)
    return sorted(shapes, key=lambda g: g.edges)


def _multisets(
    table: list[list[tuple]], total: int, count: int | None = None, cap: int | None = None
) -> Iterator[tuple[str, int]]:
    """Each multiset of table pieces whose sizes (table indices) sum to total,
    once, as the code of a node with these children and its deepest child's
    depth: of count pieces, the rest of size 0, or of any number if None.
    The children are drawn from the pieces at most cap deep; with no cap the
    node is a center, joined into a code only if its two deepest tie."""
    if cap is not None:
        table = [[piece for piece in row if piece[1] <= cap] for row in table]
    for parts in _partitions(total, total if count is None else count, len(table) - 1):
        parts += (0,) * ((count or 0) - len(parts))
        runs = [(p, len(list(run))) for p, run in groupby(parts)]
        for pick in product(*(combinations_with_replacement(table[p], c) for p, c in runs)):
            codes, depths = zip(*sum(pick, ()))
            deepest = max(depths)
            if cap is not None or depths.count(deepest) > 1:
                yield "1" + "".join(sorted(codes)) + "0", deepest


def _partitions(total: int, most: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing tuples of at most `most` parts in 1..largest summing to total."""
    if total == 0:
        yield ()
    for p in range(min(total, largest), 0, -1) if most else ():
        for rest in _partitions(total - p, most - 1, p):
            yield (p, *rest)


def _flags(idx: np.ndarray, n: int) -> Iterator[tuple[bool, bool, bool, bool]]:
    """Each shape's flags (hyperstar, loose path, S^k(1, m-2), tree power)
    in CensusRecord's order, for the batch of supertrees on n vertices with
    the (B, m, k) 0-based edge index idx, from their degrees.  A largest
    degree of m means every edge meets one vertex: the hyperstar.  One of
    m-1 means one more edge meets a star of m-1 edges away from their
    center: S^k(1, m-2), so m >= 3 (with m <= 2 the largest degree is m).
    A supertree is a k-th power of an ordinary tree iff every edge carries
    at least k-2 degree-one (filler) vertices, and that tree is a path, so
    the power a loose path, iff no degree exceeds 2."""
    rows, m, k = idx.shape
    flat = _row_offset(idx, n)
    deg = np.bincount(flat.ravel(), minlength=rows * n)
    top = deg.reshape(rows, n).max(1)
    power = ((deg[flat] == 1) @ np.full(k, 1) >= k - 2).all(1)
    return zip(*(a.tolist() for a in (top == m, power & (top <= 2), top == m - 1, power)))


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
    shapes = _supertree_shapes(m, k)
    kinds, records = tuple(TensorKind), []
    for start in range(0, len(shapes), CENSUS_BATCH):
        batch = shapes[start : start + CENSUS_BATCH]
        idx = _edge_index(batch)
        solved = _solve(kinds, idx, n, tol, DEFAULT_MAX_ITER)
        for g, flags, *rows in zip(batch, _flags(idx, n), *solved):
            solves = {
                kind: {"iterations": it, "lower": lo, "upper": hi, "residual": res}
                for kind, (_, res, it, lo, hi) in zip(kinds, rows)
            }
            records.append(CensusRecord(g, solves, *flags))
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
    column: tuple[TensorKind, list[float], list[float]],
    winner: int,
    others: list[int],
    largest: bool,
    closed: float | None = None,
) -> Assertion:
    """Certify from column, a kind and the brackets [lows[i], ups[i]] of the
    census's records i under it, that record winner's radius is strictly
    above (largest) or below every radius of the records others.  The
    margin is the certified gap, lower(winner) - max upper(others) for a
    maximum and min lower(others) - upper(winner) for a minimum; a closed
    form, if given, must lie inside winner's padded bracket."""
    kind, lows, ups = column
    own = lows[winner], ups[winner]
    gap, verdict = None, "certified"
    if others:
        low, up = map(lows.__getitem__, others), map(ups.__getitem__, others)
        # oriented so that every claim reads "winner is the largest"
        if largest:
            verdict, gap = bracket_verdict(own, (max(low), max(up)))
        else:
            verdict, gap = bracket_verdict((-own[1], -own[0]), (-min(up), -min(low)))
    detail = f"{verdict} rho={0.5 * (own[0] + own[1]):.12g}"
    # a point is inside the padded bracket iff neither is above the other
    inside = closed is None or bracket_verdict(own, (closed, closed))[0] == "undecided"
    if closed is not None:
        detail += f" closed={closed:.12g}" + ("" if inside else " outside the bracket")
    return Assertion(name, kind.value, verdict == "certified" and inside, gap, detail)


def _flagged(census: Census, flag: str, label: str) -> int:
    at = next((i for i, r in enumerate(census.records) if getattr(r, flag)), None)
    if at is None:
        raise IncompleteCensus(f"census lacks the {label}")
    return at


def verify_extremal(census: Census) -> VerificationReport:
    """Check hyperstar maximality, the second-largest double star, and
    loose-path minimality among tree powers, for all three tensors, each
    claim certified by Collatz-Wielandt brackets that do not overlap."""
    n, k, m = census.n, census.k, census.m
    star = _flagged(census, "is_hyperstar", "hyperstar")
    path = _flagged(census, "is_loose_path", "loose path")
    ds1 = _flagged(census, "is_double_star_1", "double star S(1, m-2)") if m >= 3 else None
    # the records by their places in census.records, and each kind's
    # brackets as two lists of floats, which the garbage collector skips
    rest = [i for i in range(len(census.records)) if i != star]
    below_ds1 = [i for i in rest if i != ds1]
    powers = [i for i, r in enumerate(census.records) if r.is_tree_power and i != path]
    assertions: list[Assertion] = []
    skipped: list[str] = []
    for kind in TensorKind:
        solves = [r.solves[kind] for r in census.records]
        column = kind, [s["lower"] for s in solves], [s["upper"] for s in solves]
        closed = closed_form_hyperstar(kind, n, k)
        assertions.append(_claim("hyperstar-maximal", column, star, rest, True, closed))
        if ds1 is None:
            skipped.append(f"second-largest check skipped for m={m} < 3 ({kind.value})")
        else:
            assertions.append(_claim("second-largest-double-star", column, ds1, below_ds1, True))
        assertions.append(_claim("loose-path-minimal-among-powers", column, path, powers, False))
    return VerificationReport(n, k, len(census.records), tuple(assertions), tuple(skipped))
