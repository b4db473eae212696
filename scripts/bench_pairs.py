#!/usr/bin/env python3
"""Alternating before/after runs of perfbench/run.py in two checkouts.

    python3 scripts/bench_pairs.py BASE CHANGE --label NAME \\
        [--workload census_sweep --workload graft_descent ...] \\
        [--pairs 10] [--seconds 8] [--out DIR]

BASE and CHANGE are each a checkout directory or a git revision of this
repository; a revision is `git archive`d into a temporary directory, which
is removed at the end.  The BENCH file names each side by its full commit
hash: a revision's, or a directory's HEAD when it is a git work tree, and
otherwise the directory's name.

For each workload, by default every one that BENCHMARK.json declares, and
each pair i = 1..N, runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

in the BASE checkout and in the CHANGE checkout, one right after the other:
BASE first in odd pairs, CHANGE first in even ones, so that a drift in the
host's speed falls on both sides alike.  Writes BENCH_<label>.json into
--out, an existing directory (the root of this checkout by default),
holding per workload every run's end-to-end metrics and check counts,
each side's median and quartiles of every metric, the number of pairs in
which CHANGE read lower, and a verdict per metric (see verdict; the
bounds come from BENCHMARK.json).  A run that times out or whose last
line of output is not a JSON result counts as incorrect, and is recorded
with its exit code and the tail of its stderr; the file is still written.
Uses the standard library only.  The exit code is 0 only if every run was
correct and no metric's verdict is "worse"; each worse workload and
metric is printed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"  # the workloads and the end-to-end bounds
SIDES = ("base", "change")
LOWER_SHARE = 0.9  # of the pairs, for a "lower" verdict


def revision(checkout: Path) -> str:
    """The checkout's git commit, or its directory name outside git."""
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else checkout.name


def checkout(spec: str, into: Path, repo: Path) -> tuple[Path, str]:
    """The directory to run BASE or CHANGE in, and the revision to record.

    An existing directory is itself, named by revision().  Anything else is
    a git revision of repo, archived into a new directory under into and
    named by its full commit hash; ValueError if repo has no such commit.
    """
    path = Path(spec)
    if path.is_dir():
        return path.resolve(), revision(path)
    done = subprocess.run(["git", "-C", str(repo), "rev-parse", "--verify", "--quiet",
                           f"{spec}^{{commit}}"], capture_output=True, text=True)
    if done.returncode != 0:
        raise ValueError(f"{spec!r} is neither a directory nor a commit of {repo}")
    commit = done.stdout.strip()
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    target = Path(tempfile.mkdtemp(prefix=f"{commit[:12]}_", dir=into))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the data filter, where this Python has it, refuses links out of target
        tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return target, commit


def failed_run(seed: int, returncode, error: str, stderr) -> dict:
    """A run that gave no result: why, its exit code and its stderr's tail."""
    if isinstance(stderr, bytes):
        stderr = stderr.decode(errors="replace")
    return {"seed": seed, "correct": False, "returncode": returncode, "error": error,
            "stderr_tail": (stderr or "")[-2000:], "metrics": {}}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its result line and the host fields of its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=4 * seconds + 300)
    except subprocess.TimeoutExpired as exc:
        return failed_run(seed, None, f"timed out after {exc.timeout} s", exc.stderr)
    lines = done.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
        record = next((json.loads(line[len("run-record "):]) for line in lines
                       if line.startswith("run-record ")), {})
        return {
            "seed": seed,
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "host": {key: record.get(key) for key in ("nproc", "cpu_model", "python",
                                                       "numpy", "threads")},
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return failed_run(seed, done.returncode,
                          f"no JSON result on the last line of output ({exc!r})", done.stderr)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of values."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _spec(path: Path | None) -> dict:
    return json.loads((path or SPEC).read_text(encoding="utf-8"))


def workloads(path: Path | None = None) -> list[str]:
    """The names of the workloads that the spec file (SPEC) declares."""
    return [workload["name"] for workload in _spec(path)["workloads"]]


def bounds(path: Path | None = None) -> dict:
    """Each end-to-end metric's bound, a share of the base's median."""
    return {metric["name"]: metric["bound"] for metric in _spec(path)["end_to_end"]}


def verdict(entry: dict, bound: float | None) -> str:
    """A summary entry's verdict, the first that holds of:

    - "lower": change read lower in at least LOWER_SHARE of the pairs, and
      its median is below the base's by more than the base's q3 - q1;
    - "worse": change's median is above the base's by more than bound
      times the base's median;
    - "unresolved": the base's q3 - q1 is wider than that, or a side has
      no result;
    - "unchanged".

    A metric without a bound can only be "lower" or "unchanged".
    """
    base, change = entry["base"], entry["change"]
    if base is None or change is None:
        return "unresolved"
    spread_base = base["q3"] - base["q1"]
    if (entry["pairs"] and entry["change_lower_in"] >= LOWER_SHARE * entry["pairs"]
            and base["median"] - change["median"] > spread_base):
        return "lower"
    if bound is not None:
        if change["median"] - base["median"] > bound * base["median"]:
            return "worse"
        if spread_base > bound * base["median"]:
            return "unresolved"
    return "unchanged"


def summarize(runs: dict, limits: dict) -> dict:
    """Per metric, over the runs that gave a result: each side's spread, in
    how many pairs with both results change < base, and the verdict under
    the metric's bound in limits (bounds' dict)."""
    summary = {}
    names = dict.fromkeys(name for side in SIDES for run in runs[side] for name in run["metrics"])
    for name in names:
        sides = {side: [run["metrics"][name] for run in runs[side] if name in run["metrics"]]
                 for side in SIDES}
        pairs = [(base["metrics"][name], change["metrics"][name])
                 for base, change in zip(runs["base"], runs["change"])
                 if name in base["metrics"] and name in change["metrics"]]
        summary[name] = {
            **{side: spread(values) if values else None for side, values in sides.items()},
            "change_lower_in": sum(after < before for before, after in pairs),
            "pairs": len(pairs),
        }
        summary[name]["verdict"] = verdict(summary[name], limits.get(name))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout directory or git revision measured as before")
    parser.add_argument("change", help="checkout directory or git revision measured as after")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--workload", action="append", choices=workloads(),
                        help="repeatable; every workload of BENCHMARK.json by default")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--out", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not 0 < args.seconds < math.inf:
        parser.error(f"--seconds must be positive and finite, got {args.seconds}")
    if not args.out.is_dir():
        parser.error(f"--out must be an existing directory, got {args.out}")
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts, revisions = {}, {}
        for side in SIDES:
            try:
                checkouts[side], revisions[side] = checkout(getattr(args, side), Path(tmp), ROOT)
            except ValueError as exc:
                parser.error(str(exc))
        return run_pairs(args, checkouts, revisions)


def run_pairs(args, checkouts: dict, revisions: dict) -> int:
    """The pairs of runs of main's args in checkouts, and the BENCH file."""
    bench = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed I --seconds S --trace 0",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "revisions": revisions,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "workloads": {},
    }
    limits = bounds()
    correct, worse = True, []
    for workload in args.workload or workloads():
        runs = {side: [] for side in SIDES}
        for seed in range(1, args.pairs + 1):
            first = SIDES if seed % 2 else SIDES[::-1]
            for side in first:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                run["first"] = side == first[0]
                runs[side].append(run)
                correct &= run["correct"] and run["failed"] == 0
                print(f"{workload} pair {seed} {side}: wall_s "
                      f"{run['metrics'].get('wall_s')} correct {run['correct']}"
                      f"{' (' + run['error'] + ')' if 'error' in run else ''}", flush=True)
        summary = summarize(runs, limits)
        bench["workloads"][workload] = {"summary": summary, "runs": runs}
        print(workload, " ".join(f"{name} {entry['verdict']}" for name, entry in summary.items()),
              flush=True)
        worse += [f"{workload} {name}" for name, entry in summary.items()
                  if entry["verdict"] == "worse"]
    bench["correct"] = correct
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    for what in worse:
        print(f"worse: {what}")
    return 0 if correct and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
