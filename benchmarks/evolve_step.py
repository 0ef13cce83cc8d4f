"""Per-step time of ``GridHamiltonian.evolve`` for one or more source trees.

    python3 benchmarks/evolve_step.py LABEL=SRC [LABEL=SRC ...] --out BENCH.json

Each SRC is a directory holding the ``qrf`` package (a checkout's ``src/``).
For every grid size and each of 11 repeats, each tree is timed in a fresh
child process with the BLAS/OpenMP pools pinned to one thread; the order of
the trees alternates between repeats, so slow stretches of a shared host fall
on both sides.  A child builds the frame-C oscillator Hamiltonian and a
product of displaced Gaussians, runs one warm-up call, then times ``evolve``
over a fixed number of steps three times and reports the fastest call divided
by the step count (the entry and exit representation changes are included,
amortized over the steps).  The JSON holds, per size and tree, every
repeat's value with their median and quartiles, plus the machine and the
library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIZES = (128, 256, 512)
STEPS = {128: 100, 256: 50, 512: 20}
DT = 1e-2
REPEATS = 11
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from qrf.classical import FRAME_C
from qrf.dynamics import OscillatorParams
from qrf.grids import Grid1D, gaussian_state, product_state
from qrf.physical import reduced_quantum_hamiltonian
n, steps, dt = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
grid = Grid1D(n, 40.0)
params = OscillatorParams()
h = reduced_quantum_hamiltonian(FRAME_C, params.potential(), params.system(), [("A", grid), ("B", grid)])
psi = product_state(gaussian_state(grid, "A", center=1.0), gaussian_state(grid, "B", center=-0.5), frame=FRAME_C)
h.evolve(psi, dt, dt)
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    out = h.evolve(psi, steps * dt, dt)
    best = min(best, time.perf_counter() - start)
if abs(out.norm() - psi.norm()) > 1e-10:
    sys.exit(f"norm drift {abs(out.norm() - psi.norm()):.2e}")
print(1e6 * best / steps)
"""


def step_us(src, n):
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    args = [sys.executable, "-c", CHILD, src, str(n), str(STEPS[n]), str(DT)]
    return float(subprocess.run(args, env=env, check=True, capture_output=True, text=True).stdout)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def environment():
    import numpy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = names[0] if names else cpu
    return {
        "cpu": cpu,
        "logical_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": 1,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    trees = [tree.split("=", 1) for tree in args.trees]
    results = {}
    for n in SIZES:
        values = {label: [] for label, _ in trees}
        for repeat in range(REPEATS):
            order = trees if repeat % 2 == 0 else trees[::-1]
            for label, src in order:
                values[label].append(step_us(os.path.abspath(src), n))
        results[f"n{n}"] = {label: summary(v) for label, v in values.items()}
        print(n, {label: round(s["median"], 1) for label, s in results[f"n{n}"].items()}, flush=True)
    report = {
        "metric": "evolve step time",
        "unit": "us per step",
        "steps_per_call": {f"n{n}": STEPS[n] for n in SIZES},
        "dt": DT,
        "repeats": REPEATS,
        "environment": environment(),
        "results": results,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
