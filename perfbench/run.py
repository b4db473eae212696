#!/usr/bin/env python3
"""Benchmark of hypertree-spectra, run from the root of a checkout:

    python3 perfbench/run.py --workload census_sweep --seed 1 --seconds 30 --trace 0

The workloads (workloads.py) are census_sweep, long_path and graft_descent.
Each runs in this process, with one thread, as a closed loop: the next pass
starts only after the previous pass has finished and been checked.  A new
pass starts while the time gone, plus half the previous pass, is under
--seconds, so that a run measures about --seconds on average.  Every pass
has a wall-time budget; a pass that overruns it or raises is stopped, its
unfinished operations count as failed, and no further pass starts.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, cpu_s and
peak_rss_mb, with failed_share in the report lines.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of tracing.py,
as medians over the traced passes, with trace.overhead_s, the traced minus
the untraced pass time.

A pass is made of units (a census, a compute, a chain), and every unit is
timed on its own, in wall and in process CPU time.  On a shared host the
same unit can take twice as long while other tenants load the cores, in
episodes that last from a fraction of a second to minutes, so a run's
figures would follow the host rather than the program.  Times are therefore
scaled to the speed of an unloaded host.  calibrate() times a fixed kernel,
which does not use the package: before a pass, after every unit, and, in an
untraced pass, also inside a unit, from a SIGPROF handler, after every
SAMPLE_CPU_S of process CPU time.  A unit's wall time, less the time spent
in the handler, is multiplied by CAL_REF_S over the mean wall time of the
calibrations from its start to its end, and its CPU time by CAL_REF_S over
their mean CPU time (the kernel's thread CPU time, so that other threads of
the program do not count in it).  This assumes that the program leaves
nothing that slows the kernel, such as changed numpy settings or busy
threads competing for the core; the report lines and the run record keep
the unscaled times.  wall_s and cpu_s are the sum over the units of the
lower quartile of each unit's scaled times across the run's passes.

setup_s is the median of set-ups spread over the whole run: one before the
first pass, then one between units every SETUP_EVERY_S seconds, with the
pass's budget paused.  A set-up imports the package in a fresh interpreter,
pinned to the CPU this process last ran on, IMPORT_TRIES times, each time
scaled by the calibrations before and after it, and counts the fastest;
then it builds the inputs.  The per-layer times of a traced run are not
scaled, and a traced pass is calibrated between units only, so that the
handler's time does not fall into spans.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every check
passed.  The run record, and the spans of a traced run, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("census_sweep", "long_path", "graft_descent")
SETUP_EVERY_S = 2.0
IMPORT_TRIES = 3
SAMPLE_CPU_S = 0.2
PASS_BUDGET_S = 60.0
CAL_REF_S = 0.015  # calibrate() on an unloaded Intel Xeon host with 2 vCPUs
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = (
    "import os, sys, time; os.sched_setaffinity(0, {int(sys.argv[2])}); "
    "sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import hypertree_spectra; print(time.perf_counter() - t)"
)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("ns_per_edge_visit", "ns"), ("us_per_call", "us"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def calibrate() -> tuple[float, float]:
    """Wall and thread CPU time of a fixed kernel: small numpy operations in
    a Python loop, the kind of work the package does per edge."""
    import numpy as np

    x, idx = np.linspace(1.0, 2.0, 16), [1, 5, 9]
    acc = 0.0
    wall0, cpu0 = time.perf_counter(), time.thread_time()
    for _ in range(4500):
        v = x[idx]
        acc += float(v.prod()) + float(v.sum()) * 0.5
    return time.perf_counter() - wall0, time.thread_time() - cpu0


def scaled(seconds: float, calibrations: list[float]) -> float:
    """seconds at the speed of a host where calibrate() takes CAL_REF_S,
    from the kernel's times while the seconds were measured."""
    return seconds * CAL_REF_S / statistics.fmean(calibrations)


def lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def pass_time(passes: list[list[Unit]], column: str) -> float:
    """Sum over units of the lower quartile of one of the unit's times
    across passes."""
    units = max(len(units) for units in passes)
    return sum(
        lower_quartile([getattr(units[u], column) for units in passes if u < len(units)])
        for u in range(units)
    )


class BudgetExceeded(Exception):
    """A pass ran past its wall-time budget."""


def _overrun(signum, frame):
    raise BudgetExceeded


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict[str, str]:
    """Cap the BLAS/OpenMP thread variables at nproc; call before numpy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, limit))
        except ValueError:
            wanted = limit
        os.environ[var] = str(max(1, min(wanted, limit)))
    return {var: os.environ[var] for var in THREAD_VARS}


def load_package():
    """Import hypertree_spectra from this checkout's src/, never another copy."""
    sys.path.insert(0, str(SRC))
    import hypertree_spectra

    if SRC.resolve() not in Path(hypertree_spectra.__file__).resolve().parents:
        raise ImportError(f"hypertree_spectra loaded from {hypertree_spectra.__file__}")
    return hypertree_spectra


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter that runs on the
    CPU this process last ran on, where calibrate() runs too."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(current_cpu())],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


@dataclass(frozen=True)
class Unit:
    """Unscaled and scaled times of one unit of a pass."""

    wall: float
    cpu: float
    scaled_wall: float
    scaled_cpu: float


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setups: list[tuple[float, float]] = field(default_factory=list)  # unscaled, scaled
    passes: list[list[Unit]] = field(default_factory=list)  # untraced
    traced: list[list[Unit]] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)  # per traced pass
    peak_rss_mb: float = 0.0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def metrics(self) -> dict[str, tuple[float, str]]:
        if not self.trace:
            values = {
                "setup_s": statistics.median(scaled for _, scaled in self.setups),
                "wall_s": pass_time(self.passes, "scaled_wall"),
                "cpu_s": pass_time(self.passes, "scaled_cpu"),
                "peak_rss_mb": self.peak_rss_mb,
            }
            return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
        if not self.layers:
            return {}
        values = {name: statistics.median(p[name] for p in self.layers) for name in self.layers[0]}
        values["trace.overhead_s"] = pass_time(self.traced, "scaled_wall") - pass_time(
            self.passes, "scaled_wall"
        )
        return {name: (value, layer_unit(name)) for name, value in values.items()}


def _timed_pass(workload, inputs, budget: float, sample: bool = True, between=None):
    """Run one pass under the budget, timing each unit of it and
    calibrating around it and, if sample is set, inside it.  between(), if
    given, runs after each unit, untimed and with the budget paused; it
    returns whether it did any work.  Returns (output, error, units)."""
    out: list = []
    error = None
    units: list[Unit] = []
    cals = [calibrate()]  # since the current unit started
    spent = [0.0, 0.0]  # wall and CPU time of the calibrations inside the unit

    def on_prof(signum, frame):
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        cals.append(calibrate())
        spent[0] += time.perf_counter() - wall0
        spent[1] += time.thread_time() - cpu0

    def arm(budget_s: float, sample_s: float) -> float:
        """Set both timers; returns what was left of the budget."""
        remaining = signal.setitimer(signal.ITIMER_REAL, budget_s)[0]
        signal.setitimer(signal.ITIMER_PROF, sample_s, sample_s)
        return remaining

    sample_s = SAMPLE_CPU_S if sample else 0.0
    previous = {signal.SIGALRM: signal.signal(signal.SIGALRM, _overrun),
                signal.SIGPROF: signal.signal(signal.SIGPROF, on_prof)}
    try:
        arm(budget, sample_s)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in workload.run_pass(inputs, out):
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            remaining = arm(0.0, 0.0)
            cals.append(calibrate())
            wall, cpu = wall - spent[0], cpu - spent[1]
            units.append(Unit(wall, cpu, scaled(wall, [c[0] for c in cals]),
                              scaled(cpu, [c[1] for c in cals])))
            cals[:] = [calibrate()] if between is not None and between() else cals[-1:]
            spent[:] = [0.0, 0.0]
            arm(remaining, sample_s)
            wall0, cpu0 = time.perf_counter(), time.process_time()
        arm(0.0, 0.0)
    except BudgetExceeded:
        error = f"pass overran its budget of {budget:g} s"
    except Exception:  # the program raised; count the pass's work as failed
        error = traceback.format_exc()
    finally:
        arm(0.0, 0.0)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return out, error, units


def measure(workload, seed: int, seconds: float, trace: bool, reference, package,
            workdir: Path = OUT, budget: float = PASS_BUDGET_S,
            spans_path: Path | None = None) -> Result:
    """Set up, run passes for `seconds`, check every pass, read peak memory,
    then run the oracles on every pass's output."""
    result = Result(workload=workload.name, seed=seed, trace=trace)
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        tries = []  # (unscaled, scaled) import times
        cal = calibrate()[0]
        for _ in range(IMPORT_TRIES):
            load_s = import_seconds()
            after = calibrate()[0]
            tries.append((load_s, scaled(load_s, [cal, after])))
            cal = after
        start = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        build_s = time.perf_counter() - start
        result.setups.append((min(t[0] for t in tries) + build_s,
                              min(t[1] for t in tries) + scaled(build_s, [cal, calibrate()[0]])))
        return inputs

    last_setup = time.perf_counter()

    def sample_setup():
        # set-up repeated between units, spread over the run; the traced run
        # takes none, so that its spans hold the passes alone
        nonlocal last_setup
        if time.perf_counter() - last_setup < SETUP_EVERY_S:
            return False
        set_up()
        last_setup = time.perf_counter()
        return True

    inputs = set_up()
    prep = workload.prepare(inputs)
    tracer = tracing.Tracer(package) if trace else None
    kept = []  # (passed operations, output) per pass, for the oracles
    start = time.perf_counter()
    pass_id = 0
    while True:
        pass_start = time.perf_counter()
        if trace and pass_id % 2 == 1:
            with tracer.installed(pass_id):
                out, error, units = _timed_pass(workload, inputs, budget, sample=False)
            result.traced.append(units)
            result.layers.append(tracing.pass_metrics(tracer.spans, pass_id))
        else:
            between = None if trace else sample_setup
            out, error, units = _timed_pass(workload, inputs, budget, between=between)
            result.passes.append(units)
        if error is not None:
            result.problems.append(f"pass {pass_id}: {error}")
        found = workload.check(inputs, prep, out, reference)
        passed = {op for op, problems in found.items() if not problems}
        result.problems.extend(p for problems in found.values() for p in problems)
        result.attempted += prep["attempted"]
        kept.append((passed, out if workload.oracle else None))
        pass_id += 1
        enough = not trace or (result.passes and result.traced)
        now = time.perf_counter()
        gone = now - start + (now - pass_start) / 2
        if error is not None or (enough and gone >= seconds):
            break
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for passed, out in kept:
        if out is not None:
            for op, problems in workload.oracle(inputs, prep, out).items():
                if problems:
                    passed.discard(op)
                    result.problems.extend(problems)
        result.failed += prep["attempted"] - min(len(passed), prep["attempted"])
    if tracer is not None and spans_path is not None:
        tracer.write(spans_path)
    return result


def run_record(result: Result, threads: dict, package) -> dict:
    import numpy

    return {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.trace),
        "git_commit": git_commit(),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": threads,
        "samples": {"setups": len(result.setups), "passes": len(result.passes),
                    "traced_passes": len(result.traced)},
        "cal_ref_s": CAL_REF_S,
        "setups_unscaled_scaled_s": result.setups,
        "passes": [[vars(unit) for unit in units] for units in result.passes],
        "traced_passes": [[vars(unit) for unit in units] for units in result.traced],
        "package": str(Path(package.__file__).resolve().parent),
    }


def report_lines(result: Result, record: dict) -> list[str]:
    """Human-readable lines: the run record, then each metric with its unit."""
    lines = [f"run-record {json.dumps(record)}"]
    def median_pass(column: str) -> str:
        whole = statistics.median(
            sum(getattr(unit, column) for unit in units) for units in result.passes
        )
        return (f"units' lower quartiles over {len(result.passes)} passes; "
                f"unscaled median pass {whole:.6g} s")

    notes = {
        "setup_s": f"median of {len(result.setups)} set-ups, unscaled "
        f"{statistics.median(unscaled for unscaled, _ in result.setups):.6g} s",
        "wall_s": median_pass("wall"),
        "cpu_s": median_pass("cpu"),
        "peak_rss_mb": "read before the oracle checks",
    }
    for name, (value, unit) in result.metrics().items():
        lines.append(f"metric {name:<34} {value:>16.6g} {unit:<6} {notes.get(name, '')}".rstrip())
    share = result.failed / result.attempted if result.attempted else 1.0
    lines.append(
        f"metric {'failed_share':<34} {share:>16.6g} {'ratio':<6} "
        f"{result.failed} of {result.attempted} operations failed"
    )
    for problem in result.problems[:20]:
        lines.append(f"problem {problem.strip()}")
    if len(result.problems) > 20:
        lines.append(f"problem ... and {len(result.problems) - 20} more")
    return lines


def result_json(result: Result) -> str:
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics().items()}
    return json.dumps({"correct": result.correct, "attempted": result.attempted,
                       "failed": result.failed, "metrics": metrics})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hypertree_spectra" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'hypertree_spectra'}", file=sys.stderr)
        return 2
    threads = cap_threads()
    package = load_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    reference = workloads.load_reference(REFERENCE, args.workload)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz" if args.trace else None
    result = measure(workload, args.seed, args.seconds, bool(args.trace), reference,
                     package, spans_path=spans)
    record = run_record(result, threads, package)
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(
        json.dumps({"record": record, "problems": result.problems,
                    "result": json.loads(result_json(result))}, indent=1),
        encoding="utf-8",
    )
    for line in report_lines(result, record):
        print(line)
    print(result_json(result))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
