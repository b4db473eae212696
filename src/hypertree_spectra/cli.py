"""Command-line interface.

Exit codes: 0 success; 2 parse/parameter error; 3 disconnected input;
4 no convergence (bracket still printed); 5 transform precondition
violated; 6 a theorem assertion failed during verify.

Vertex ids and edge ids are 1-based on the command line; an id outside
1..n (vertices) or 1..m (edges) is a parameter error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import families
from .census import bracket_verdict, enumerate_supertrees, verify_extremal
from .errors import BadParameter, Disconnected, HypertreeError, NoConvergence
from .hypergraph import format_hypergraph, read_hypergraph
from .spectral import DEFAULT_MAX_ITER, DEFAULT_TOL, spectral_radius
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


SOLVE_ERRORS = (BadParameter, Disconnected, NoConvergence)


def _solve_failed(exc: HypertreeError) -> int:
    """Report a failed solve; exit 2 (bad parameter), 3 (disconnected)
    or 4 (no convergence, with the bracket)."""
    if isinstance(exc, NoConvergence):
        print(f"error: {exc} bracket=[{exc.lower}, {exc.upper}]", file=sys.stderr)
        return 4
    print(f"error: {exc}", file=sys.stderr)
    return 3 if isinstance(exc, Disconnected) else 2


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
    try:
        g = read_hypergraph(args.file)
    except (OSError, ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = KIND_BY_FLAG[args.kind]
    try:
        result = spectral_radius(kind, g, tol=args.tol, max_iter=args.max_iter)
    except SOLVE_ERRORS as exc:
        return _solve_failed(exc)
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
    try:
        if len(params) != len(names):
            got = " ".join(map(str, params)) or "none"
            raise ValueError(f"{args.family} expects {' '.join(names)}, got {got}")
        if args.family == "treepower":
            if args.tree is None:
                raise ValueError("treepower requires --tree \"p2 p3 ...\"")
            params.insert(0, [int(tok) for tok in args.tree.split()])
        g = build(*params)
    except (ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_hypergraph(g))
    return 0


def _check_ids(g, edge_ids, vertices) -> None:
    """Reject 1-based edge ids outside 1..m and vertex ids outside 1..n."""
    for eid in edge_ids:
        if not 1 <= eid <= g.m:
            raise ValueError(f"edge id {eid} outside 1..{g.m}")
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} outside 1..{g.n}")


def cmd_transform(args) -> int:
    """Ids out of range and malformed counts or lengths exit 2, before the
    transform runs; a violated structural precondition of the transform
    exits 5."""
    try:
        g = read_hypergraph(args.file)
        if args.release is not None:
            eid, u = args.release
            _check_ids(g, [eid], [u])
            transform = functools.partial(edge_release, g, eid - 1, u)
        elif args.graft is not None:
            v, p, q = args.graft
            if p < 1 or q < 1:
                raise ValueError(f"graft path lengths must be >= 1, got p={p} q={q}")
            _check_ids(g, [], [v])
            transform = functools.partial(total_graft, g, v, p, q)
        else:
            eids, sources = ([int(t) for t in arg.split(",")] for arg in args.move[:2])
            target = int(args.move[2])
            if len(eids) != len(sources):
                raise ValueError(
                    f"{len(eids)} edge ids but {len(sources)} source vertices; "
                    "give one source per edge"
                )
            _check_ids(g, eids, [*sources, target])
            spec = EdgeMoveSpec(tuple(e - 1 for e in eids), tuple(sources), target)
            transform = functools.partial(move_edges, g, spec)
    except (OSError, ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out = transform()
    except HypertreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.check_monotone:
        for kind in TensorKind:
            try:
                before = spectral_radius(kind, g, tol=args.tol)
                after = spectral_radius(kind, out, tol=args.tol)
            except SOLVE_ERRORS as exc:
                return _solve_failed(exc)
            print(_monotone_line(kind, before, after))
    sys.stdout.write(format_hypergraph(out))
    return 0


def cmd_verify(args) -> int:
    try:
        census = enumerate_supertrees(args.n, args.k, tol=args.tol)
        report = verify_extremal(census)
    except SOLVE_ERRORS as exc:
        return _solve_failed(exc)
    except HypertreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for a in report.assertions:
        print(a.line())
    for note in report.skipped:
        print(f"SKIP {note}")
    print(f"census size {report.census_size}")
    if args.export:
        with open(args.export, "w", encoding="utf-8") as fh:
            fh.write(census.export_jsonl())
    if not report.passed:
        return 6
    print("PASS")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypertree-spectra",
        description="Spectral radii of k-uniform hypergraphs and extremal "
        "supertree verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="spectral radius of a hypergraph file")
    p_compute.add_argument("file")
    p_compute.add_argument("--kind", choices=sorted(KIND_BY_FLAG), default="adj")
    p_compute.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_compute.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p_compute.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p_compute.add_argument("--eigvec", action="store_true")
    p_compute.set_defaults(func=cmd_compute)

    p_construct = sub.add_parser("construct", help="emit a named family")
    p_construct.add_argument("family", choices=list(FAMILIES))
    p_construct.add_argument("params", type=int, nargs="*")
    p_construct.add_argument("--tree", help="parent array for nodes 2..n'")
    p_construct.set_defaults(func=cmd_construct)

    p_transform = sub.add_parser("transform", help="apply a structural operation")
    p_transform.add_argument("file")
    group = p_transform.add_mutually_exclusive_group(required=True)
    group.add_argument("--release", nargs=2, type=int, metavar=("EDGE", "U"))
    group.add_argument("--graft", nargs=3, type=int, metavar=("V", "P", "Q"))
    group.add_argument("--move", nargs=3, metavar=("EDGES", "SOURCES", "TARGET"))
    p_transform.add_argument("--check-monotone", action="store_true")
    p_transform.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_transform.set_defaults(func=cmd_transform)

    p_verify = sub.add_parser("verify", help="census + extremal theorem checks")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p_verify.add_argument("--export", help="write census JSON-lines here")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse cannot intermix a greedy positional list with options
    # (e.g. "construct treepower --tree '1 1 2' 3"), so collect trailing
    # numeric parameters ourselves for the construct command
    args, extra = parser.parse_known_args(argv)
    if extra:
        if args.command == "construct" and all(
            not tok.startswith("-") for tok in extra
        ):
            try:
                args.params = list(args.params) + [int(tok) for tok in extra]
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
