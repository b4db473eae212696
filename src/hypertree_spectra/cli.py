"""Command-line interface.  verify is the one census sweep, over one census
(--n) or every census with 1..M edges (--max-m M), and
scripts/run_verification.py passes its arguments to it.

Exit codes, from the table EXIT_CODES (6 is returned by verify itself):
  0  success
  2  parse or parameter error, or a file that cannot be read or written
  3  disconnected input
  4  no convergence (the bracket is still printed)
  5  transform precondition violated
  6  a theorem assertion failed during verify (the sweep still finishes)

Vertex ids and edge ids are 1-based on the command line; an id outside
1..n (vertices) or 1..m (edges) is a parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families
from .census import MAX_CENSUS_EDGES, bracket_verdict, enumerate_supertrees, verify_extremal
from .errors import (BadParameter, Disconnected, HypertreeError, InvalidSpec, MultipleEdge,
                     NoConvergence, NotLinear, NotPendentPaths, PendentEdge)
from .hypergraph import format_hypergraph, read_hypergraph
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, bounds_report, spectral_radii, spectral_radius
from .tensors import TensorKind
from .transforms import EdgeMoveSpec, edge_release, move_edges, total_graft

KIND_BY_FLAG = {kind.value: kind for kind in TensorKind}


def _compute_payload(g, kind, result, include_eigvec=False):
    payload = {
        "n": g.n,
        "k": g.k,
        "m": g.m,
        "kind": kind.value,
        "rho": result.rho,
        "lower": result.lower,
        "upper": result.upper,
        "residual": result.residual,
        "iterations": result.iterations,
    }
    if include_eigvec:
        payload["eigvec"] = [float(v) for v in result.eigvec]
    return payload


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        keys = [k for k in payload if k != "eigvec"]
        print(",".join(keys))
        print(",".join(str(payload[k]) for k in keys))
        if "eigvec" in payload:
            print(",".join(str(v) for v in payload["eigvec"]))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


# the errors main reports; anything else is a bug and keeps its traceback
REPORTED = (HypertreeError, OSError)
# (error types, exit code): the first match wins
EXIT_CODES = (
    (NoConvergence, 4),
    (Disconnected, 3),
    ((InvalidSpec, MultipleEdge, NotLinear, NotPendentPaths, PendentEdge), 5),
    (REPORTED, 2),
)


def report_error(exc: BaseException) -> int:
    """Print exc as an `error:` line on stderr (with the bracket of a
    NoConvergence) and return its exit code from EXIT_CODES."""
    code = next(code for types, code in EXIT_CODES if isinstance(exc, types))
    bracket = f" bracket=[{exc.lower}, {exc.upper}]" if isinstance(exc, NoConvergence) else ""
    print(f"error: {exc}{bracket}", file=sys.stderr)
    return code


def _ints(tokens: list[str]) -> list[int]:
    """Integers from command-line tokens; any other token is a parameter error."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise BadParameter(f"expected integers, got {' '.join(tokens)!r}") from None


def _monotone_line(kind: TensorKind, before, after) -> str:
    """Both brackets and the verdict of the census rule
    (census.bracket_verdict).  The margin is the signed certified gap, 0
    when undecided."""
    verdict, rise = bracket_verdict((after.lower, after.upper), (before.lower, before.upper))
    if verdict == "certified":
        verdict, margin = "increase", rise
    elif verdict == "refuted":
        verdict, margin = "decrease", after.upper - before.lower
    else:
        margin = 0.0
    return (f"# {kind.value}: before=[{before.lower!r}, {before.upper!r}] "
            f"after=[{after.lower!r}, {after.upper!r}] {verdict} margin={margin!r}")


def cmd_compute(args) -> int:
    g = read_hypergraph(args.file)
    kind = KIND_BY_FLAG[args.kind]
    result = spectral_radius(kind, g, tol=args.tol, max_iter=args.max_iter)
    _emit(_compute_payload(g, kind, result, args.eigvec), args.format)
    return 0


# construct family -> (constructor, names of its integer parameters);
# treepower also takes the parent array given by --tree
FAMILIES = {
    "hyperstar": (families.hyperstar, ("n", "k")),
    "loosepath": (families.loose_path, ("n", "k")),
    "doublestar": (families.double_star, ("a", "b", "k")),
    "treepower": (families.tree_power, ("k",)),
    "spath": (families.s_path, ("m", "s", "k")),
    "scycle": (families.s_cycle, ("m", "s", "k")),
    "singleedge": (families.single_edge, ("k",)),
}


def cmd_construct(args) -> int:
    build, names = FAMILIES[args.family]
    params = list(args.params)
    if len(params) != len(names):
        got = " ".join(map(str, params)) or "none"
        raise BadParameter(f"{args.family} expects {' '.join(names)}, got {got}")
    if args.family == "treepower":
        if args.tree is None:
            raise BadParameter("treepower requires --tree \"p2 p3 ...\"")
        params.insert(0, _ints(args.tree.split()))
    sys.stdout.write(format_hypergraph(build(*params)))
    return 0


def _check_ids(g, edge_ids, vertices) -> None:
    """Reject 1-based edge ids outside 1..m and vertex ids outside 1..n."""
    for eid in edge_ids:
        if not 1 <= eid <= g.m:
            raise BadParameter(f"edge id {eid} outside 1..{g.m}")
    for v in vertices:
        if not 1 <= v <= g.n:
            raise BadParameter(f"vertex {v} outside 1..{g.n}")


def cmd_transform(args) -> int:
    """Ids out of range and malformed counts or lengths exit 2, before the
    transform runs; a violated structural precondition of the transform
    exits 5."""
    g = read_hypergraph(args.file)
    if args.release is not None:
        eid, u = args.release
        _check_ids(g, [eid], [u])
        out = edge_release(g, eid - 1, u)
    elif args.graft is not None:
        v, p, q = args.graft
        if p < 1 or q < 1:
            raise BadParameter(f"graft path lengths must be >= 1, got p={p} q={q}")
        _check_ids(g, [], [v])
        out = total_graft(g, v, p, q)
    else:
        eids, sources = (_ints(arg.split(",")) for arg in args.move[:2])
        (target,) = _ints(args.move[2:])
        if len(eids) != len(sources):
            raise BadParameter(
                f"{len(eids)} edge ids but {len(sources)} source vertices; "
                "give one source per edge"
            )
        _check_ids(g, eids, [*sources, target])
        out = move_edges(g, EdgeMoveSpec(tuple(e - 1 for e in eids), tuple(sources), target))
    if args.check_monotone:
        # a transform keeps (n, m, k), so both graphs solve in one batch
        solved = spectral_radii(tuple(TensorKind), [g, out], args.tol)
        for kind, (before, after) in zip(TensorKind, solved):
            print(_monotone_line(kind, before, after))
    sys.stdout.write(format_hypergraph(out))
    return 0


def _print_bounds(census) -> None:
    """Degree and incidence-Gram bounds beside rho(Q*), one row per shape."""
    print(f"\n== incidence-Q bounds over census n={census.n} k={census.k} ==")
    print(f"{'shape':>8} {'k^(k-1)d':>12} {'rho_qstar':>12} {'k^(k-1)D':>12} "
          f"{'rho_rrt':>10} {'sandwich':>12}")
    for i, rec in enumerate(census.records):
        rep = bounds_report(rec.hypergraph)
        rho = rec.radii[TensorKind.IncidenceQ]
        print(f"{i:>8} {rep.lower_deg:>12.6f} {rho:>12.6f} {rep.upper_deg:>12.6f} "
              f"{rep.rho_rrt:>10.6f} {rep.sandwich_upper:>12.6f}")


def cmd_verify(args) -> int:
    """One census (--n), or the censuses m = 1..M in order, M also their
    cap (--max-m M).  An error ends the run at once; a failed claim lets
    the sweep finish and the run exit 6."""
    max_m = args.max_m
    if max_m is not None and max_m < 1:
        raise BadParameter(f"--max-m must be at least 1, got {max_m}")
    sizes = [args.n] if max_m is None else [m * (args.k - 1) + 1 for m in range(1, max_m + 1)]
    passed, censuses = True, []
    for n in sizes:
        census = enumerate_supertrees(n, args.k, tol=args.tol, max_edges=max_m or MAX_CENSUS_EDGES)
        report = verify_extremal(census)
        for a in report.assertions:
            print(a.line())
        for note in report.skipped:
            print(f"SKIP {note}")
        print(f"census size {report.census_size} (n={n}, k={args.k}, m={census.m})")
        if args.bounds:
            _print_bounds(census)
        passed &= report.passed
        censuses.append(census)
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write("".join(c.export_jsonl() for c in censuses))
    if not passed:
        return 6
    print("PASS")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use:
    building it costs about 0.6 ms."""
    parser = argparse.ArgumentParser(
        prog="hypertree-spectra",
        description="Spectral radii of k-uniform hypergraphs and extremal "
        "supertree verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="spectral radius of a hypergraph file")
    p_compute.add_argument("file")
    p_compute.add_argument("--kind", choices=sorted(KIND_BY_FLAG), default="adj")
    p_compute.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="the largest allowed width of the certified bracket [lower, upper] "
        "around rho, absolute (default %(default)s); a tol below the rounding "
        "floor, some units in the last place of rho, usually runs the whole "
        "--max-iter budget",
    )
    p_compute.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER,
        help="the budget of bracketed steps, after the warm-up power steps "
        "(default %(default)s); once it is spent the command exits 4 and "
        "prints the last bracket",
    )
    p_compute.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_compute.add_argument("--eigvec", action="store_true")

    p_construct = sub.add_parser("construct", help="emit a named family")
    p_construct.add_argument("family", choices=list(FAMILIES))
    p_construct.add_argument("params", type=int, nargs="*")
    p_construct.add_argument("--tree", help="parent array for nodes 2..n'")

    p_transform = sub.add_parser("transform", help="apply a structural operation")
    p_transform.add_argument("file")
    group = p_transform.add_mutually_exclusive_group(required=True)
    group.add_argument("--release", nargs=2, type=int, metavar=("EDGE", "U"))
    group.add_argument("--graft", nargs=3, type=int, metavar=("V", "P", "Q"))
    group.add_argument("--move", nargs=3, metavar=("EDGES", "SOURCES", "TARGET"))
    p_transform.add_argument("--check-monotone", action="store_true")
    p_transform.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_verify = sub.add_parser("verify", help="census + extremal theorem checks")
    size = p_verify.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="one census on N vertices")
    size.add_argument("--max-m", type=int, help="the censuses with 1..M edges")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--bounds", action="store_true",
                          help="also print the degree and incidence-Gram bounds")
    p_verify.add_argument("--export", help="write every census record as JSON lines here")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse cannot intermix a greedy positional list with options
    # (e.g. "construct treepower --tree '1 1 2' 3"), so collect trailing
    # numeric parameters ourselves for the construct command
    args, extra = parser.parse_known_args(argv)
    if extra and (args.command != "construct" or any(tok.startswith("-") for tok in extra)):
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if extra:
            args.params = list(args.params) + _ints(extra)
        # looked up at call time, so that a replaced cmd_* takes effect
        command = {"compute": cmd_compute, "construct": cmd_construct,
                   "transform": cmd_transform, "verify": cmd_verify}[args.command]
        return command(args)
    except REPORTED as exc:
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
