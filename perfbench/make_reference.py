#!/usr/bin/env python3
"""Regenerate reference.json, the radii that later runs must match:

    python3 perfbench/make_reference.py

Every workload meets the same graphs, up to relabelling, whatever its
seed, and all of them are recorded; long_path is recorded at m=60 and at
m=5, the smoke test's size.  Radii are keyed by workload and by the inputs
the benchmark fixes, as workloads.Reference describes.
"""

from __future__ import annotations

import json

import run


def radii_of(workload, seed: int) -> dict[str, list[float]]:
    inputs = workload.setup(seed, run.OUT)
    out: list = []
    for _ in workload.run_pass(inputs, out):
        pass
    return workload.radii(inputs, out)


def main() -> None:
    run.cap_threads()
    run.load_package()
    import workloads

    run.OUT.mkdir(parents=True, exist_ok=True)
    long_path = radii_of(workloads.LongPath(), 0)
    long_path.update(radii_of(workloads.LongPath(m=5), 0))
    data = {
        "regenerate": "python3 perfbench/make_reference.py",
        "rel_tol": workloads.REF_REL_TOL,
        "radii": {
            "census_sweep": radii_of(workloads.CensusSweep(), 0),
            "long_path": long_path,
            "graft_descent": radii_of(workloads.GraftDescent(), 0),
        },
    }
    run.REFERENCE.write_text(dumps(data), encoding="utf-8")


def dumps(data: dict) -> str:
    """JSON with one line per recorded shape, so that changes diff well."""
    head = json.dumps({k: v for k, v in data.items() if k != "radii"})
    blocks = []
    for workload, radii in data["radii"].items():
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in radii.items())
        blocks.append(f" {json.dumps(workload)}: {{\n{rows}\n }}")
    return head[:-1] + ', "radii": {\n' + ",\n".join(blocks) + "\n}}\n"


if __name__ == "__main__":
    main()
