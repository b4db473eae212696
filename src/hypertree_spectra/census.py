"""Exhaustive enumeration of small supertrees up to isomorphism, and
verification of the extremal theorems over the census.

Supertrees are generated by growing a pendent edge at a time: every
supertree with m >= 2 edges has a pendent edge whose removal leaves a
smaller supertree, so attaching a fresh edge sharing exactly one vertex
reaches every isomorphism class.  Deduplication is by canonical form.
Free trees on n' nodes are the k=2 census with n'-1 edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .canon import CanonicalForm, canonical_form
from .errors import BadDimensions, IncompleteCensus, TooLarge
from .families import double_star, hyperstar, loose_path
from .hypergraph import Hypergraph, validate
from .spectral import (
    DEFAULT_TOL,
    closed_form_hyperstar,
    spectral_radius,
    strict_margin,
)
from .tensors import TensorKind
from .transforms import edges_to_parents

MAX_CENSUS_EDGES = 6
MAX_TREE_NODES = 10


@dataclass(frozen=True)
class CensusRecord:
    hypergraph: Hypergraph
    canonical: CanonicalForm
    radii: dict[TensorKind, float]
    is_hyperstar: bool
    is_loose_path: bool
    is_double_star_1: bool  # the second-largest shape S^k(1, m-2)
    is_tree_power: bool

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "edges": [list(e) for e in self.canonical],
                "rho_adj": self.radii[TensorKind.Adjacency],
                "rho_q": self.radii[TensorKind.SignlessLaplacian],
                "rho_qstar": self.radii[TensorKind.IncidenceQ],
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
    margin: float | None
    detail: str = ""


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
    """All k-uniform supertrees with m edges, one per isomorphism class."""
    start = validate([list(range(1, k + 1))], k, k=k)
    level: dict[CanonicalForm, Hypergraph] = {canonical_form(start): start}
    for _ in range(m - 1):
        nxt: dict[CanonicalForm, Hypergraph] = {}
        for g in level.values():
            for v in range(1, g.n + 1):
                fresh = list(range(g.n + 1, g.n + k))
                edges = [list(e) for e in g.edges] + [[v] + fresh]
                grown = validate(edges, g.n + k - 1, k=k)
                form = canonical_form(grown)
                if form not in nxt:
                    nxt[form] = grown
        level = nxt
    return [level[form] for form in sorted(level)]


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
    records = []
    for g in _supertree_shapes(m, k):
        form = canonical_form(g)
        radii = {kind: spectral_radius(kind, g, tol=tol).rho for kind in TensorKind}
        records.append(
            CensusRecord(
                hypergraph=g,
                canonical=form,
                radii=radii,
                is_hyperstar=form == star_form,
                is_loose_path=form == path_form,
                is_double_star_1=form == ds1_form,
                is_tree_power=_is_tree_power(g),
            )
        )
    return Census(n=n, k=k, records=tuple(records))


# -- verification ------------------------------------------------------------

def verify_extremal(
    census: Census,
    tol: float = DEFAULT_TOL,
    closed_form_tol: float = 1e-7,
) -> VerificationReport:
    """Check hyperstar maximality, the second-largest double star, and
    loose-path minimality among tree powers, for all three tensors."""
    n, k, m = census.n, census.k, census.m
    if not any(r.is_hyperstar for r in census.records):
        raise IncompleteCensus("census lacks the hyperstar")
    if not any(r.is_loose_path for r in census.records):
        raise IncompleteCensus("census lacks the loose path")
    assertions: list[Assertion] = []
    skipped: list[str] = []
    for kind in TensorKind:
        ordered = sorted(census.records, key=lambda r: r.radii[kind], reverse=True)
        top = ordered[0]
        closed = closed_form_hyperstar(kind, n, k)
        ok_max = top.is_hyperstar and abs(top.radii[kind] - closed) <= closed_form_tol
        margin = (
            top.radii[kind] - ordered[1].radii[kind] if len(ordered) > 1 else None
        )
        if margin is not None:
            ok_max = ok_max and margin > strict_margin(tol, top.radii[kind])
        assertions.append(
            Assertion(
                name="hyperstar-maximal",
                kind=kind.value,
                passed=ok_max,
                margin=margin,
                detail=f"rho={top.radii[kind]:.12g} closed={closed:.12g}",
            )
        )
        if m >= 3:
            second = ordered[1]
            ok_second = second.is_double_star_1
            margin2 = (
                second.radii[kind] - ordered[2].radii[kind]
                if len(ordered) > 2
                else None
            )
            if margin2 is not None:
                ok_second = ok_second and margin2 > strict_margin(
                    tol, second.radii[kind]
                )
            assertions.append(
                Assertion(
                    name="second-largest-double-star",
                    kind=kind.value,
                    passed=ok_second,
                    margin=margin2,
                    detail=f"rho={second.radii[kind]:.12g}",
                )
            )
        else:
            skipped.append(
                f"second-largest check skipped for m={m} < 3 ({kind.value})"
            )
        powers = [r for r in census.records if r.is_tree_power]
        powers.sort(key=lambda r: r.radii[kind])
        bottom = powers[0]
        ok_min = bottom.is_loose_path
        margin3 = (
            powers[1].radii[kind] - bottom.radii[kind] if len(powers) > 1 else None
        )
        if margin3 is not None:
            ok_min = ok_min and margin3 > strict_margin(tol, bottom.radii[kind])
        assertions.append(
            Assertion(
                name="loose-path-minimal-among-powers",
                kind=kind.value,
                passed=ok_min,
                margin=margin3,
                detail=f"rho={bottom.radii[kind]:.12g}",
            )
        )
    return VerificationReport(
        n=n,
        k=k,
        census_size=len(census.records),
        assertions=tuple(assertions),
        skipped=tuple(skipped),
    )
