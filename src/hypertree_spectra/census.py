"""Exhaustive enumeration of small supertrees up to isomorphism, and
verification of the extremal theorems over the census.

Supertrees are generated by growing a pendent edge at a time: every
supertree with m >= 2 edges has a pendent edge whose removal leaves a
smaller supertree, so attaching a fresh edge sharing exactly one vertex
reaches every isomorphism class, and automorphic vertices give isomorphic
children, so one vertex per orbit suffices.  Deduplication is by canonical form.
Free trees on n' nodes are the k=2 census with n'-1 edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .canon import CanonicalForm, _supertree_canonical, canonical_form
from .errors import BadDimensions, IncompleteCensus, TooLarge
from .families import double_star, hyperstar, loose_path
from .hypergraph import Hypergraph, validate
from .spectral import DEFAULT_TOL, ROUNDING_PAD, closed_form_hyperstar, spectral_radii
from .tensors import TensorKind
from .transforms import edges_to_parents

MAX_CENSUS_EDGES = 6
MAX_TREE_NODES = 10


@dataclass(frozen=True)
class CensusRecord:
    hypergraph: Hypergraph  # labeled by its own canonical form
    radii: dict[TensorKind, float]
    solves: dict[TensorKind, dict[str, float]]  # iterations, lower, upper, residual
    is_hyperstar: bool
    is_loose_path: bool
    is_double_star_1: bool  # the second-largest shape S^k(1, m-2)
    is_tree_power: bool

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

def enumerate_trees(n_prime: int) -> list[list[int]]:
    """All free trees on n' nodes, one parent array per isomorphism class:
    the 2-uniform supertree census with n'-1 edges."""
    if not (2 <= n_prime <= MAX_TREE_NODES):
        raise TooLarge(f"enumerate_trees supports 2 <= n' <= {MAX_TREE_NODES}")
    return [edges_to_parents(g.edges, n_prime) for g in _supertree_shapes(n_prime - 1, 2)]


def _supertree_shapes(m: int, k: int) -> list[Hypergraph]:
    """All k-uniform supertrees with m edges, one per isomorphism class,
    each labeled by its own canonical form, in order of the form.  Growth
    hangs a fresh edge at the smallest vertex of each orbit of each kept
    canonical edge list; only the kept shapes are validated."""
    level: set[CanonicalForm] = {(tuple(range(1, k + 1)),)}
    for size in range(1, m):
        n = size * (k - 1) + 1
        fresh = tuple(range(n + 1, n + k))
        level = {
            _supertree_canonical(form + ((v, *fresh),), n + k - 1)[0]
            for form in level
            for v in set(_supertree_canonical(form, n)[1])
        }
    return [validate(form, m * (k - 1) + 1, k=k) for form in sorted(level)]


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
    if k < 2 or n < k or (n - 1) % (k - 1) != 0:
        raise BadDimensions(f"no supertree with n={n}, k={k}")
    m = (n - 1) // (k - 1)
    if m > max_edges:
        raise TooLarge(f"census capped at m <= {max_edges}, got m={m}")
    star_form = canonical_form(hyperstar(n, k))
    path_form = canonical_form(loose_path(n, k))
    ds1_form = canonical_form(double_star(1, m - 2, k)) if m >= 3 else None
    shapes = _supertree_shapes(m, k)
    solved = {kind: spectral_radii(kind, shapes, tol=tol) for kind in TensorKind}
    records = []
    for i, g in enumerate(shapes):
        results = {kind: solves[i] for kind, solves in solved.items()}
        records.append(
            CensusRecord(
                hypergraph=g,
                radii={kind: res.rho for kind, res in results.items()},
                solves={
                    kind: {
                        "iterations": res.iterations,
                        "lower": res.lower,
                        "upper": res.upper,
                        "residual": res.residual,
                    }
                    for kind, res in results.items()
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
