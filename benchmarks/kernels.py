"""Per-call time of qrf kernels for one or more source trees.

    python3 benchmarks/kernels.py KERNEL[,KERNEL ...] LABEL=SRC [LABEL=SRC ...] --out BENCH.json

KERNEL is one of:

* ``evolve``: ``GridHamiltonian.evolve`` in microseconds per step at
  n = 128, 256 and 512.  A child builds the frame-C oscillator Hamiltonian
  and a product of displaced Gaussians, runs one warm-up call, then times
  ``evolve`` over a fixed number of steps and divides by the step count (the
  entry and exit representation changes are included, amortized over the
  steps).  It fails on a norm drift above 1e-10.
* ``marginal``: ``marginal_wigner`` in milliseconds per marginal at
  ``points`` = 51, 101 and 201 output points per axis, on the windows the
  ``wigner-study`` runner uses, for the excited-excited study at equal widths
  (presets fig9).  A child runs one warm-up call, then times the keep-B and
  keep-C marginals together and halves the time.  It fails when either
  marginal's integral is off 1 by more than 1e-4.  Each tree runs its own
  default quadrature rule.
* ``integrate``: ``integrate_reduced`` in microseconds per order-2 step at
  N = 3, 5 and 9 particles, unit masses, a unit spring from every particle to
  the last, frame = the last, from a seeded point.  A child runs one short
  warm-up call, then times a 2000-step integration.  It fails when the
  relative energy drift of the trajectory exceeds 1e-5.
* ``prepare``: ``random_wavefunction`` on two axes in milliseconds per call
  at n = 64, 128 and 256, box L = 24 (the ``switch-small`` box).  A child
  runs one warm-up draw, then times fresh seeded draws.  It fails on a norm
  off 1 by more than 1e-12.
* ``wigner``: ``partial_trace`` and ``wigner_transform``, each in
  milliseconds per call, at n = 64, 128 and 256, L = 24, on one seeded draw
  in frame A switched to frame C (parity-shear), keeping A: the results hold
  ``n<size>-partial_trace`` and ``n<size>-wigner_transform``, the latter
  timed on one reduced matrix.  A child runs one warm-up call of each.  It
  fails when the Wigner integral is off 1 by more than 1e-4.
* ``switch``: ``switch_frame`` A -> C in milliseconds per call at n = 64, 128
  and 256, L = 24, on one seeded draw, for each backend: the results hold
  ``n<size>-parity-shear`` and ``n<size>-compositional``.  A child runs one
  warm-up call per backend.  It fails when the backend gap 1 - F exceeds
  1e-8.
* ``csv``: ``experiments._write_csv`` in milliseconds per file, for the
  ``x,xi,w`` rows of a Wigner grid at ``points`` = 51, 101 and 201 per axis
  (the fig9 keep-B marginal on its +-6 window; results ``wigner<points>``)
  and for a 5-column trajectory of 20,001 rows, fig3's shape and values
  (``trajectory20001``).  A child runs one warm-up write into a temporary
  directory, then times three more.  It fails unless the file reads back
  to the written doubles exactly.

Each SRC is a directory holding the ``qrf`` package (a checkout's ``src/``).
For every size and each of 11 repeats, each tree is timed in a fresh child
process with the BLAS/OpenMP pools pinned to one thread; the order of the
trees alternates between repeats, so slow stretches of a shared host fall on
both sides.  A child prints the fastest of three timed calls, then the
tree's ``qrf.__version__`` (a kernel with several series prints one time
per series).  The JSON holds, per size and tree, every repeat's value with
their median and quartiles, plus the kernel's settings, the machine, and each
tree's library version under ``versions``.  The file is
``{"kernels": [...]}``, one such report per kernel named, in the order given.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

REPEATS = 11
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EVOLVE_STEPS = {128: 100, 256: 50, 512: 20}
EVOLVE_DT = 1e-2
INTEGRATE_STEPS = 2000
INTEGRATE_DT = 1e-3
STATE_SIZES = (64, 128, 256)
STATE_BOX = 24.0

EVOLVE_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
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
print(1e6 * best / steps, qrf.__version__)
"""

MARGINAL_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.wigner import marginal_wigner, transformed_joint_wigner
points = int(sys.argv[2])
joint = transformed_joint_wigner(1, 1, 1.0, 1.0)
x = np.linspace(-6.0, 6.0, points)
marginal_wigner(joint, "B", x, x)
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    grids = [marginal_wigner(joint, keep, x, x) for keep in ("B", "C")]
    best = min(best, time.perf_counter() - start)
for grid in grids:
    if abs(grid.integral() - 1.0) > 1e-4:
        sys.exit(f"marginal normalization off: {grid.integral():.6f}")
print(1e3 * best / 2, qrf.__version__)
"""


INTEGRATE_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.classical import FrameLabel, ParticleSystem, ReducedPhasePoint, spring_potential
from qrf.dynamics import integrate_reduced
n, steps, dt = int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
rng = np.random.default_rng(n)
system = ParticleSystem(n)
potential = spring_potential([(i, n - 1, 1.0) for i in range(n - 1)])
point = ReducedPhasePoint(FrameLabel(n - 1), rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
integrate_reduced(point, potential, system, 10 * dt, dt)
best = float("inf")
for _ in range(3):
    start = time.perf_counter()
    trajectory = integrate_reduced(point, potential, system, steps * dt, dt)
    best = min(best, time.perf_counter() - start)
energies = trajectory.energies(potential, system)
drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
if drift > 1e-5:
    sys.exit(f"relative energy drift {drift:.2e}")
print(1e6 * best / steps, qrf.__version__)
"""

PREPARE_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.grids import Grid1D, random_wavefunction
n, length = int(sys.argv[2]), float(sys.argv[3])
grid = Grid1D(n, length)
subsystems = (("B", grid), ("C", grid))
random_wavefunction(subsystems, np.random.default_rng(0))
best = float("inf")
for seed in (1, 2, 3):
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    psi = random_wavefunction(subsystems, rng)
    best = min(best, time.perf_counter() - start)
    if abs(psi.norm() - 1.0) > 1e-12:
        sys.exit(f"norm off 1 by {abs(psi.norm() - 1.0):.2e}")
print(1e3 * best, qrf.__version__)
"""

WIGNER_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.classical import FRAME_A, FRAME_C
from qrf.grids import Grid1D, random_wavefunction
from qrf.switching import FrameSwitch, switch_frame
from qrf.wigner import partial_trace, wigner_transform
n, length = int(sys.argv[2]), float(sys.argv[3])
grid = Grid1D(n, length)
psi = random_wavefunction((("B", grid), ("C", grid)), np.random.default_rng(0), frame=FRAME_A)
out = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C))
rho = partial_trace(out, "A")
wigner_transform(rho)
times = []
for call in (lambda: partial_trace(out, "A"), lambda: wigner_transform(rho)):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    times.append(1e3 * best)
if abs(result.integral() - 1.0) > 1e-4:
    sys.exit(f"Wigner integral off: {result.integral():.6f}")
print(*times, qrf.__version__)
"""

SWITCH_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.classical import FRAME_A, FRAME_C
from qrf.grids import Grid1D, fidelity, random_wavefunction
from qrf.switching import FrameSwitch, switch_frame
n, length = int(sys.argv[2]), float(sys.argv[3])
grid = Grid1D(n, length)
psi = random_wavefunction((("B", grid), ("C", grid)), np.random.default_rng(0), frame=FRAME_A)
times, outs = [], []
for backend in ("parity-shear", "compositional"):
    sw = FrameSwitch(FRAME_A, FRAME_C, backend)
    switch_frame(psi, sw)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        out = switch_frame(psi, sw)
        best = min(best, time.perf_counter() - start)
    times.append(1e3 * best)
    outs.append(out)
gap = 1.0 - fidelity(*outs)
if gap > 1e-8:
    sys.exit(f"backend gap 1 - F = {gap:.2e}")
print(*times, qrf.__version__)
"""

CSV_CHILD = """
import math, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
import qrf
from qrf.dynamics import OscillatorParams, analytic_oscillator_frame_a, analytic_oscillator_frame_c
from qrf.experiments import _wigner_csv_columns, _write_csv
from qrf.wigner import marginal_wigner, transformed_joint_wigner
shape = sys.argv[2]
if shape.startswith("wigner"):
    x = np.linspace(-6.0, 6.0, int(shape[len("wigner"):]))
    grid = marginal_wigner(transformed_joint_wigner(1, 1, 1.0, 1.0), "B", x, x)
    columns, arrays = ["x", "xi", "w"], _wigner_csv_columns(grid)
else:
    params = OscillatorParams(m_c=1e8, k_a=1.0, k_b=100.0, phi_b=math.pi / 2)
    times = np.arange(int(shape[len("trajectory"):])) * 1e-3
    arrays = (times, *analytic_oscillator_frame_c(params, times), *analytic_oscillator_frame_a(params, times))
    columns = ["t", "x_A", "x_B", "q_B", "q_C"]
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "data.csv"
    _write_csv(path, columns, arrays)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _write_csv(path, columns, arrays)
        best = min(best, time.perf_counter() - start)
    back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
if not np.array_equal(back, np.column_stack(arrays)):
    sys.exit("the CSV does not read back to the written values")
print(1e3 * best, qrf.__version__)
"""


@dataclass(frozen=True)
class Kernel:
    metric: str
    unit: str
    size_name: str
    sizes: tuple
    child: str
    child_args: Callable[[int], tuple]  # the child's argv after SRC, for one size
    settings: dict
    series: tuple = ("",)  # one printed time each; a name suffixes the result key


KERNELS = {
    "evolve": Kernel(
        "evolve step time", "us per step", "n", (128, 256, 512), EVOLVE_CHILD,
        lambda n: (n, EVOLVE_STEPS[n], EVOLVE_DT),
        {"steps_per_call": {f"n{n}": s for n, s in EVOLVE_STEPS.items()}, "dt": EVOLVE_DT},
    ),
    "marginal": Kernel(
        "marginal_wigner time", "ms per marginal", "points", (51, 101, 201), MARGINAL_CHILD,
        lambda points: (points,),
        {"levels": [1, 1], "alphas": [1.0, 1.0], "window": [-6.0, 6.0]},
    ),
    "integrate": Kernel(
        "integrate_reduced step time", "us per step", "N", (3, 5, 9), INTEGRATE_CHILD,
        lambda n: (n, INTEGRATE_STEPS, INTEGRATE_DT),
        {"steps_per_call": INTEGRATE_STEPS, "dt": INTEGRATE_DT, "order": 2,
         "springs": "k = 1 from every particle to the last", "masses": 1.0, "frame": "last"},
    ),
    "prepare": Kernel(
        "random_wavefunction time", "ms per call", "n", STATE_SIZES, PREPARE_CHILD,
        lambda n: (n, STATE_BOX),
        {"length": STATE_BOX, "axes": 2, "seeds": [1, 2, 3]},
    ),
    "wigner": Kernel(
        "partial_trace and wigner_transform time", "ms per call", "n", STATE_SIZES, WIGNER_CHILD,
        lambda n: (n, STATE_BOX),
        {"length": STATE_BOX, "seed": 0, "switch": "A -> C, parity-shear", "keep": "A"},
        series=("partial_trace", "wigner_transform"),
    ),
    "switch": Kernel(
        "switch_frame time", "ms per call", "n", STATE_SIZES, SWITCH_CHILD,
        lambda n: (n, STATE_BOX),
        {"length": STATE_BOX, "seed": 0, "switch": "A -> C"},
        series=("parity-shear", "compositional"),
    ),
    "csv": Kernel(
        "_write_csv time", "ms per file", "", ("wigner51", "wigner101", "wigner201", "trajectory20001"),
        CSV_CHILD, lambda shape: (shape,),
        {"wigner": "fig9 keep-B marginal, x and xi on [-6, 6]",
         "trajectory": "fig3: t, x_A, x_B, q_B, q_C at dt = 1e-3"},
    ),
}


def measure(kernel, src, size):
    """One child's times, one per series, and the version of the qrf it imported."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    args = [sys.executable, "-c", kernel.child, src, *map(str, kernel.child_args(size))]
    out = subprocess.run(args, env=env, check=True, capture_output=True, text=True).stdout
    *values, version = out.split()
    if len(values) != len(kernel.series):
        raise ValueError(f"expected {len(kernel.series)} times, the child printed {out!r}")
    return [float(value) for value in values], version


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


def run_kernel(name, trees):
    """The report of one kernel: every repeat of every size, series and tree."""
    kernel = KERNELS[name]
    results = {}
    versions = {}
    for size in kernel.sizes:
        base = f"{kernel.size_name}{size}"
        keys = [f"{base}-{series}" if series else base for series in kernel.series]
        values = {key: {label: [] for label, _ in trees} for key in keys}
        for repeat in range(REPEATS):
            order = trees if repeat % 2 == 0 else trees[::-1]
            for label, src in order:
                times, versions[label] = measure(kernel, os.path.abspath(src), size)
                for key, value in zip(keys, times):
                    values[key][label].append(value)
        for key in keys:
            results[key] = {label: summary(v) for label, v in values[key].items()}
            medians = {label: round(s["median"], 3) for label, s in results[key].items()}
            print(name, key, medians, flush=True)
    return {
        "kernel": name,
        "metric": kernel.metric,
        "unit": kernel.unit,
        "settings": kernel.settings,
        "repeats": REPEATS,
        "environment": environment(),
        "versions": versions,
        "results": results,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kernels", metavar="KERNEL[,KERNEL ...]")
    parser.add_argument("trees", nargs="+", metavar="LABEL=SRC")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    names = args.kernels.split(",")
    unknown = sorted(set(names) - set(KERNELS))
    if unknown:
        parser.error(f"unknown kernel(s) {unknown}; choose from {sorted(KERNELS)}")
    trees = [tree.split("=", 1) for tree in args.trees]
    reports = [run_kernel(name, trees) for name in names]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"kernels": reports}, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
