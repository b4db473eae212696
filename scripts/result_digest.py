#!/usr/bin/env python3
"""SHA-256 digests of solver results and census output, to show that two
checkouts give the same bits.

    python scripts/result_digest.py [--quick]

Runs six groups, five through the public API, and prints one digest per
group and one over all of them.  Each solver result adds its lower and upper
bracket, iterations and residual (floats as float.hex) and its
eigenvector's bytes.

* census: every shape of the censuses k=2 m<=10, k=3 m<=8, k=4 m<=6 and
  k=5 m<=5, from enumerate_supertrees(...).records, solved under all three
  kinds in batches of CENSUS_BATCH, as the census solves them;
* records: the census's own output for the same censuses, each census's
  export_jsonl() followed by each verify_extremal report line and skip
  note, one per line;
* grafts: 48 tree powers (k=3) along graft_to_path chains of seeded random
  trees on 16 nodes, each relabelled by a seeded permutation, one
  spectral_radius per kind;
* families: loose_path(121, 3), loose_path(2001, 3) and hyperstar(20001, 3),
  one spectral_radius per kind;
* large_k: loose_path, hyperstar and the tree power of LARGE_K_TREE, all
  with m=6 edges, at k=8, 9 and 10, one spectral_radius per kind with
  tol = 1e-12 k^{k-1} m, since IncidenceQ's radius grows with its degree
  bound k^{k-1} Delta, which is at most k^{k-1} m;
* shapes: growth alone, the edge lists of every shape of the censuses
  k=2 m<=14, k=3 m<=11, k=4 m<=10 and k=5 m<=8 from the census's private
  _supertree_shapes, in its order, with no solve.

--quick runs a small subset of the first four groups (k=2 m<=6, k=3 m<=5
for both census groups; 6 tree powers; loose_path(121, 3)) and leaves out
large_k and shapes.  Uses the standard library only, besides the package, which it
imports from the src/ directory beside this script.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypertree_spectra as hs  # noqa: E402
from hypertree_spectra.census import CENSUS_BATCH, _supertree_shapes  # noqa: E402
from hypertree_spectra.transforms import apply_graft_sequence  # noqa: E402

CENSUSES = {2: 10, 3: 8, 4: 6, 5: 5}  # k -> largest m
QUICK_CENSUSES = {2: 6, 3: 5}
SEED = 1
NODES = 16  # of each random tree
GRAFT_GRAPHS = 48
FAMILIES = ((hs.loose_path, 121, 3), (hs.loose_path, 2001, 3), (hs.hyperstar, 20001, 3))
LARGE_K = (8, 9, 10)
LARGE_K_TREE = (1, 1, 2, 3, 3, 4)  # parent of each node 2..7: 6 edges, neither path nor star
LARGE_K_MAX_ITER = 3000
SHAPES = {2: 14, 3: 11, 4: 10, 5: 8}  # k -> largest m, grown but not solved


def _bytes(result: hs.SpectralResult) -> bytes:
    fields = (result.lower.hex(), result.upper.hex(), str(result.iterations), result.residual.hex())
    return " ".join(fields).encode() + result.eigvec.tobytes()


def censuses(tops: dict[int, int]):
    """The census of every k and m <= tops[k]."""
    for k, top in tops.items():
        for m in range(1, top + 1):
            yield hs.enumerate_supertrees(m * (k - 1) + 1, k, max_edges=m)


def census_results(tops: dict[int, int]):
    """Every shape of each census, solved under all kinds in batches."""
    kinds = tuple(hs.TensorKind)
    for census in censuses(tops):
        shapes = [rec.hypergraph for rec in census.records]
        for start in range(0, len(shapes), CENSUS_BATCH):
            for results in hs.spectral_radii(kinds, shapes[start : start + CENSUS_BATCH]):
                yield from map(_bytes, results)


def census_records(tops: dict[int, int]):
    """Each census's export, then its verification's report lines and skip notes."""
    for census in censuses(tops):
        yield census.export_jsonl().encode()
        report = hs.verify_extremal(census)
        for line in [a.line() for a in report.assertions] + list(report.skipped):
            yield (line + "\n").encode()


def graft_graphs(count: int) -> list[hs.Hypergraph]:
    """count tree powers along graft_to_path chains of seeded random
    trees, relabelled by one seeded permutation."""
    rng = random.Random(SEED)
    n = NODES + (NODES - 1)
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    graphs = []
    while len(graphs) < count:
        parents = [rng.randint(1, i + 1) for i in range(NODES - 1)]
        for tree in [parents, *apply_graft_sequence(parents, hs.graft_to_path(parents))]:
            g = hs.tree_power(tree, 3)
            graphs.append(hs.validate([[labels[v - 1] for v in e] for e in g.edges], n, k=3))
    return graphs[:count]


def single_results(graphs, *budget):
    """One spectral_radius per graph and kind, with the (tol, max_iter) budget
    if given."""
    for g in graphs:
        for kind in hs.TensorKind:
            yield _bytes(hs.spectral_radius(kind, g, *budget))


def large_k_graphs(k: int) -> list[hs.Hypergraph]:
    """The loose path, hyperstar and tree power of LARGE_K_TREE at k, each with its edges."""
    n = len(LARGE_K_TREE) * (k - 1) + 1
    return [hs.loose_path(n, k), hs.hyperstar(n, k), hs.tree_power(LARGE_K_TREE, k)]


def large_k_results():
    m = len(LARGE_K_TREE)
    for k in LARGE_K:
        yield from single_results(large_k_graphs(k), 1e-12 * k ** (k - 1) * m, LARGE_K_MAX_ITER)


def shape_forms():
    """Each census's shapes of SHAPES, as the repr of their edge lists."""
    for k, top in SHAPES.items():
        for m in range(1, top + 1):
            yield repr([g.edges for g in _supertree_shapes(m, k)]).encode()


def digests(quick: bool = False) -> dict[str, str]:
    """Each group's hex digest, and "all" over every group's bytes in order."""
    families = [make(n, k) for make, n, k in (FAMILIES[:1] if quick else FAMILIES)]
    tops = QUICK_CENSUSES if quick else CENSUSES
    groups = {
        "census": census_results(tops),
        "records": census_records(tops),
        "grafts": single_results(graft_graphs(6 if quick else GRAFT_GRAPHS)),
        "families": single_results(families),
    }
    if not quick:
        groups["large_k"] = large_k_results()
        groups["shapes"] = shape_forms()
    total, out = hashlib.sha256(), {}
    for name, chunks in groups.items():
        digest = hashlib.sha256()
        for chunk in chunks:
            digest.update(chunk)
            total.update(chunk)
        out[name] = digest.hexdigest()
    out["all"] = total.hexdigest()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="a small subset of each group")
    args = parser.parse_args(argv)
    for name, value in digests(args.quick).items():
        print(f"{name:9s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
