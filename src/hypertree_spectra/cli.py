"""Command-line interface.

Exit codes: 0 success; 2 parse/parameter error; 3 disconnected input;
4 no convergence (bracket still printed); 5 transform precondition
violated; 6 a theorem assertion failed during verify.

Vertex ids and edge ids are 1-based on the command line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families
from .census import enumerate_supertrees, verify_extremal
from .errors import (
    Disconnected,
    HypertreeError,
    InvalidSpec,
    MultipleEdge,
    NoConvergence,
    NotPendentPaths,
    PendentEdge,
)
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


def cmd_compute(args) -> int:
    try:
        g = read_hypergraph(args.file)
    except (OSError, ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = KIND_BY_FLAG[args.kind]
    try:
        result = spectral_radius(kind, g, tol=args.tol, max_iter=args.max_iter)
    except Disconnected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(
            f"error: {exc} bracket=[{exc.lower}, {exc.upper}]",
            file=sys.stderr,
        )
        return 4
    _emit(_compute_payload(g, kind, result, args.eigvec), args.format)
    return 0


def cmd_construct(args) -> int:
    try:
        if args.family == "hyperstar":
            g = families.hyperstar(args.params[0], args.params[1])
        elif args.family == "loosepath":
            g = families.loose_path(args.params[0], args.params[1])
        elif args.family == "doublestar":
            g = families.double_star(args.params[0], args.params[1], args.params[2])
        elif args.family == "spath":
            g = families.s_path(args.params[0], args.params[1], args.params[2])
        elif args.family == "scycle":
            g = families.s_cycle(args.params[0], args.params[1], args.params[2])
        elif args.family == "treepower":
            if args.tree is None:
                raise ValueError("treepower requires --tree \"p2 p3 ...\"")
            parents = [int(tok) for tok in args.tree.split()]
            g = families.tree_power(parents, args.params[0])
        elif args.family == "singleedge":
            g = families.single_edge(args.params[0])
        else:
            raise ValueError(f"unknown family {args.family}")
    except (IndexError, ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(format_hypergraph(g))
    return 0


def cmd_transform(args) -> int:
    try:
        g = read_hypergraph(args.file)
    except (OSError, ValueError, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.release is not None:
            eid, u = args.release
            out = edge_release(g, eid - 1, u)
        elif args.graft is not None:
            v, p, q = args.graft
            out = total_graft(g, v, p, q)
        else:
            edge_ids = tuple(int(t) - 1 for t in args.move[0].split(","))
            sources = tuple(int(t) for t in args.move[1].split(","))
            target = int(args.move[2])
            out = move_edges(g, EdgeMoveSpec(edge_ids, sources, target))
    except (InvalidSpec, MultipleEdge, PendentEdge, NotPendentPaths, HypertreeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    if args.check_monotone:
        for kind in TensorKind:
            before = spectral_radius(kind, g, tol=args.tol).rho
            after = spectral_radius(kind, out, tol=args.tol).rho
            print(f"# {kind.value}: before={before!r} after={after!r} "
                  f"margin={after - before!r}")
    sys.stdout.write(format_hypergraph(out))
    return 0


def cmd_verify(args) -> int:
    try:
        census = enumerate_supertrees(args.n, args.k, tol=args.tol)
        report = verify_extremal(census, tol=args.tol)
    except HypertreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for a in report.assertions:
        status = "PASS" if a.passed else "FAIL"
        margin = "n/a" if a.margin is None else f"{a.margin:.6g}"
        print(f"{status} {a.name} [{a.kind}] margin={margin} {a.detail}")
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
    p_construct.add_argument(
        "family",
        choices=[
            "hyperstar",
            "loosepath",
            "doublestar",
            "treepower",
            "spath",
            "scycle",
            "singleedge",
        ],
    )
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
