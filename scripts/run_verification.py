#!/usr/bin/env python3
"""End-to-end verification run: enumerate supertree censuses, check the
extremal statements for all three tensors, and print bounds tables.

Usage:
    python scripts/run_verification.py                 # default sweep
    python scripts/run_verification.py --k 3 --max-m 6
    python scripts/run_verification.py --export-dir out/
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hypertree_spectra import (  # noqa: E402
    TensorKind,
    bounds_report,
    enumerate_supertrees,
    spectral_radius,
    verify_extremal,
)


def run_census(n, k, tol, export_dir):
    start = time.perf_counter()
    census = enumerate_supertrees(n, k, tol=tol)
    report = verify_extremal(census, tol=tol)
    elapsed = time.perf_counter() - start

    print(f"\n== census n={n} k={k} (m={census.m}): "
          f"{report.census_size} supertrees, {elapsed:.2f}s ==")
    header = f"{'shape':>8} {'rho_adj':>14} {'rho_q':>14} {'rho_qstar':>14} flags"
    print(header)
    for i, rec in enumerate(census.records):
        flags = "".join(
            c
            for c, on in zip(
                "SPDT",
                (rec.is_hyperstar, rec.is_loose_path, rec.is_double_star_1,
                 rec.is_tree_power),
            )
            if on
        )
        print(
            f"{i:>8} {rec.radii[TensorKind.Adjacency]:>14.10f} "
            f"{rec.radii[TensorKind.SignlessLaplacian]:>14.10f} "
            f"{rec.radii[TensorKind.IncidenceQ]:>14.10f} {flags}"
        )
    for a in report.assertions:
        status = "PASS" if a.passed else "FAIL"
        margin = "n/a" if a.margin is None else f"{a.margin:.6g}"
        print(f"  {status} {a.name} [{a.kind}] margin={margin}")
    for note in report.skipped:
        print(f"  SKIP {note}")

    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
        out = export_dir / f"census_n{n}_k{k}.jsonl"
        out.write_text(census.export_jsonl())
        print(f"  wrote {out}")
    return report.passed


def print_bounds_table(n, k):
    census = enumerate_supertrees(n, k)
    print(f"\n== incidence-Q bounds over census n={n} k={k} ==")
    print(f"{'shape':>8} {'k^(k-1)d':>12} {'rho_qstar':>12} {'k^(k-1)D':>12} "
          f"{'rho_rrt':>10} {'sandwich':>12}")
    for i, rec in enumerate(census.records):
        rep = bounds_report(rec.hypergraph)
        rho = rec.radii[TensorKind.IncidenceQ]
        print(
            f"{i:>8} {rep.lower_deg:>12.6f} {rho:>12.6f} {rep.upper_deg:>12.6f} "
            f"{rep.rho_rrt:>10.6f} {rep.sandwich_upper:>12.6f}"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=None,
                        help="restrict to one uniformity (default: 3 and 4)")
    parser.add_argument("--max-m", type=int, default=5,
                        help="largest edge count per census (default 5)")
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--export-dir", type=Path, default=None,
                        help="write one JSON-lines census file per (n, k)")
    parser.add_argument("--bounds", action="store_true",
                        help="also print the degree/Gram bounds tables")
    args = parser.parse_args(argv)

    ks = [args.k] if args.k is not None else [3, 4]
    all_passed = True
    for k in ks:
        for m in range(1, args.max_m + 1):
            n = m * (k - 1) + 1
            all_passed &= run_census(n, k, args.tol, args.export_dir)
            if args.bounds:
                print_bounds_table(n, k)
    print("\nall verifications passed" if all_passed else "\nFAILURES present")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
