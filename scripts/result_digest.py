#!/usr/bin/env python3
"""SHA-256 digests of solver results, to show that two checkouts give the
same bits.

    python scripts/result_digest.py [--quick]

Solves three groups through the public API and prints one digest per group
and one over all of them.  Each result adds its lower and upper bracket,
iterations and residual (floats as float.hex) and its eigenvector's bytes.

* census: every shape of the censuses k=2 m<=10, k=3 m<=8, k=4 m<=6 and
  k=5 m<=5, from enumerate_supertrees(...).records, solved under all three
  kinds in batches of CENSUS_BATCH, as the census solves them;
* grafts: 48 tree powers (k=3) along graft_to_path chains of seeded random
  trees on 16 nodes, each relabelled by a seeded permutation, one
  spectral_radius per kind;
* families: loose_path(121, 3), loose_path(2001, 3) and hyperstar(20001, 3),
  one spectral_radius per kind.

--quick solves a small subset of each group (k=2 m<=6, k=3 m<=5; 6 tree
powers; loose_path(121, 3)).  Uses the standard library only, besides the
package, which it imports from the src/ directory beside this script.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hypertree_spectra as hs  # noqa: E402
from hypertree_spectra.census import CENSUS_BATCH  # noqa: E402
from hypertree_spectra.transforms import apply_graft_sequence  # noqa: E402

CENSUSES = {2: 10, 3: 8, 4: 6, 5: 5}  # k -> largest m
QUICK_CENSUSES = {2: 6, 3: 5}
SEED = 1
NODES = 16  # of each random tree
GRAFT_GRAPHS = 48
FAMILIES = ((hs.loose_path, 121, 3), (hs.loose_path, 2001, 3), (hs.hyperstar, 20001, 3))


def _add(digest, result: hs.SpectralResult) -> None:
    fields = (result.lower.hex(), result.upper.hex(), str(result.iterations), result.residual.hex())
    digest.update(" ".join(fields).encode())
    digest.update(result.eigvec.tobytes())


def census_results(censuses: dict[int, int]):
    """Every shape of each census, solved under all kinds in batches."""
    kinds = tuple(hs.TensorKind)
    for k, top in censuses.items():
        for m in range(1, top + 1):
            shapes = [rec.hypergraph for rec in hs.enumerate_supertrees(m * (k - 1) + 1, k, max_edges=m).records]
            for start in range(0, len(shapes), CENSUS_BATCH):
                for results in hs.spectral_radii(kinds, shapes[start : start + CENSUS_BATCH]):
                    yield from results


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


def single_results(graphs):
    for g in graphs:
        for kind in hs.TensorKind:
            yield hs.spectral_radius(kind, g)


def digests(quick: bool = False) -> dict[str, str]:
    """Each group's hex digest, and "all" over every result in order."""
    families = [make(n, k) for make, n, k in (FAMILIES[:1] if quick else FAMILIES)]
    groups = {
        "census": census_results(QUICK_CENSUSES if quick else CENSUSES),
        "grafts": single_results(graft_graphs(6 if quick else GRAFT_GRAPHS)),
        "families": single_results(families),
    }
    total, out = hashlib.sha256(), {}
    for name, results in groups.items():
        digest = hashlib.sha256()
        for result in results:
            _add(digest, result)
            _add(total, result)
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
