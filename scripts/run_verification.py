#!/usr/bin/env python3
"""End-to-end verification run: enumerate supertree censuses, check the
extremal statements for all three tensors, and print bounds tables.

Usage:
    python scripts/run_verification.py                 # default sweep
    python scripts/run_verification.py --k 3 --max-m 6
    python scripts/run_verification.py --export-dir out/

Exit codes: 0 every verification passed; 1 some verification failed;
otherwise those of the hypertree-spectra command (hypertree_spectra.cli):
2 bad parameter or unwritable export, 3 disconnected input, 4 no
convergence.
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
    verify_extremal,
)
from hypertree_spectra.cli import REPORTED, report_error  # noqa: E402
from hypertree_spectra.spectral import DEFAULT_TOL  # noqa: E402


def run_census(n, k, tol, export_dir, max_edges):
    start = time.perf_counter()
    census = enumerate_supertrees(n, k, tol=tol, max_edges=max_edges)
    report = verify_extremal(census)
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
        print(f"  {a.line()}")
    for note in report.skipped:
        print(f"  SKIP {note}")

    if export_dir is not None:
        export_dir.mkdir(parents=True, exist_ok=True)
        out = export_dir / f"census_n{n}_k{k}.jsonl"
        out.write_text(census.export_jsonl())
        print(f"  wrote {out}")
    return census, report.passed


def print_bounds_table(census):
    print(f"\n== incidence-Q bounds over census n={census.n} k={census.k} ==")
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
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL)
    parser.add_argument("--export-dir", type=Path, default=None,
                        help="write one JSON-lines census file per (n, k)")
    parser.add_argument("--bounds", action="store_true",
                        help="also print the degree/Gram bounds tables")
    args = parser.parse_args(argv)
    if args.max_m < 1:
        parser.error(f"--max-m must be at least 1, got {args.max_m}")
    if args.k is not None and args.k < 2:
        parser.error(f"--k must be at least 2, got {args.k}")

    ks = [args.k] if args.k is not None else [3, 4]
    all_passed = True
    try:
        for k in ks:
            for m in range(1, args.max_m + 1):
                n = m * (k - 1) + 1
                census, passed = run_census(n, k, args.tol, args.export_dir, args.max_m)
                all_passed &= passed
                if args.bounds:
                    print_bounds_table(census)
    except REPORTED as exc:
        return report_error(exc)
    print("\nall verifications passed" if all_passed else "\nFAILURES present")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
