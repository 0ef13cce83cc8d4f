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
* ``integrate``: ``integrate_reduced`` in microseconds per step at N = 3, 5
  and 9 particles, unit masses, a unit spring from every particle to the
  last, frame = the last, from a seeded point: the results hold
  ``N<size>-order2`` and ``N<size>-order4``.  A child runs one short warm-up
  call per order, then times a 2000-step integration.  It fails when the
  relative energy drift of either trajectory exceeds 1e-5.
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
* ``csv``: the CSV writer in milliseconds per file, for the ``x,xi,w`` rows
  of a Wigner grid at ``points`` = 51, 101 and 201 per axis (the fig9 keep-B
  marginal on its +-6 window; results ``wigner<points>``), of fig5's
  121-point ground state on its +-5 window (``ground121``), and for a
  5-column trajectory of 20,001 rows, fig3's shape and values
  (``trajectory20001``, ``experiments._write_csv``; the Wigner grids go
  through ``experiments._write_wigner_csv``).  A child runs one warm-up
  write into a temporary directory, then times three more.  It fails unless
  the file reads back to the written doubles exactly.
* ``classical-switch``: the classical frame switch C -> A in microseconds per
  call, on seeded points: one ``classical_frame_switch`` call (``point``,
  timed over 1000 calls), and a whole trajectory of 378 or 20,001 points
  (``points378``, ``points20001``; 20,001 is fig3's row count), switched
  by one ``frame_map`` call on its ``(2, K)`` arrays.  A child runs one
  warm-up call.  It fails unless the output equals the closed form
  q' = (q_B - q_A, -q_A), p' = (p_B, -(p_A + p_B)).
* ``energies``: ``Trajectory.energies`` in microseconds per call at N = 3, 5
  and 9 particles on the ``integrate`` kernel's system and seeded point, for
  order-2 trajectories of 2,001 and 20,001 samples at dt = 1e-3: the results
  hold ``N<size>-samples2001`` and ``N<size>-samples20001``.  A child runs
  one warm-up call per trajectory, then times batches of calls (200 and 20).
  It fails unless the energies equal, bit for bit, ``np.einsum`` of the
  kinetic form on the strided ``p.T`` view of a sample-first (samples, N - 1)
  copy of the momenta plus the potential, so a change of the trajectory's
  storage layout must keep the energies' bits.

Each SRC is a directory holding the ``qrf`` package (a checkout's ``src/``).
For every size and each of 11 repeats, each tree is timed in a fresh child
process with the BLAS/OpenMP pools pinned to one thread; the order of the
trees alternates between repeats, so slow stretches of a shared host fall on
both sides.  A child runs this script's function for the kernel with SRC
first on ``sys.path``, exits non-zero unless it imported SRC's own ``qrf``,
and prints the fastest of three timed calls (one time per series), then the
tree's ``qrf.__version__``.  The JSON holds, per size and tree, every
repeat's value with their median and quartiles, plus the kernel's settings,
the machine, each tree's library version under ``versions`` and, under
``fingerprints``, each tree's ``sources_sha256`` (the SHA-256 of its
``qrf/*.py``, names and contents in sorted order) and ``git_head`` (``git
rev-parse HEAD`` in SRC, null outside a git checkout; it does not see
uncommitted edits, the hash does), so two trees of one version stay apart.
The file is ``{"kernels": [...]}``, one such report per kernel named, in the
order given.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REPEATS = 11
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EVOLVE_STEPS = {128: 100, 256: 50, 512: 20}
EVOLVE_DT = 1e-2
INTEGRATE_STEPS = 2000
INTEGRATE_DT = 1e-3
ENERGIES_CALLS = {2001: 200, 20001: 20}  # calls per timed batch, by sample count
STATE_SIZES = (64, 128, 256)
STATE_BOX = 24.0
CHILD = "--child"  # argv[1] of the child process, never a user's option


def _best(call, calls=1):
    """Seconds per call in the fastest of three batches of ``calls`` calls, and the last result."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            result = call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best, result


def _star(n):
    """The integrate kernel's seeded point, springs and unit masses for N = n."""
    from qrf.classical import FrameLabel, ParticleSystem, ReducedPhasePoint, spring_potential

    rng = np.random.default_rng(n)
    potential = spring_potential([(i, n - 1, 1.0) for i in range(n - 1)])
    point = ReducedPhasePoint(FrameLabel(n - 1), rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1))
    return point, potential, ParticleSystem(n)


def _draw(n):
    """The seeded frame-A draw that the wigner and switch kernels switch to frame C."""
    from qrf.classical import FRAME_A
    from qrf.grids import Grid1D, random_wavefunction

    grid = Grid1D(n, STATE_BOX)
    return random_wavefunction((("B", grid), ("C", grid)), np.random.default_rng(0), frame=FRAME_A)


def evolve(n):
    from qrf.classical import FRAME_C
    from qrf.dynamics import OscillatorParams
    from qrf.grids import Grid1D, gaussian_state, product_state
    from qrf.physical import reduced_quantum_hamiltonian

    steps = EVOLVE_STEPS[n]
    grid = Grid1D(n, 40.0)
    params = OscillatorParams()
    h = reduced_quantum_hamiltonian(FRAME_C, params.potential(), params.system(), [("A", grid), ("B", grid)])
    psi = product_state(
        gaussian_state(grid, "A", center=1.0), gaussian_state(grid, "B", center=-0.5), frame=FRAME_C
    )
    h.evolve(psi, EVOLVE_DT, EVOLVE_DT)
    best, out = _best(lambda: h.evolve(psi, steps * EVOLVE_DT, EVOLVE_DT))
    if abs(out.norm() - psi.norm()) > 1e-10:
        sys.exit(f"norm drift {abs(out.norm() - psi.norm()):.2e}")
    return [1e6 * best / steps]


def marginal(points):
    from qrf.wigner import marginal_wigner, transformed_joint_wigner

    joint = transformed_joint_wigner(1, 1, 1.0, 1.0)
    x = np.linspace(-6.0, 6.0, points)
    marginal_wigner(joint, "B", x, x)
    best, grids = _best(lambda: [marginal_wigner(joint, keep, x, x) for keep in ("B", "C")])
    for grid in grids:
        if abs(grid.integral() - 1.0) > 1e-4:
            sys.exit(f"marginal normalization off: {grid.integral():.6f}")
    return [1e3 * best / 2]


def integrate(n):
    from qrf.dynamics import integrate_reduced

    point, potential, system = _star(n)
    span = INTEGRATE_STEPS * INTEGRATE_DT
    times = []
    for order in (2, 4):
        integrate_reduced(point, potential, system, 10 * INTEGRATE_DT, INTEGRATE_DT, order=order)
        best, trajectory = _best(
            lambda: integrate_reduced(point, potential, system, span, INTEGRATE_DT, order=order)
        )
        energies = trajectory.energies(potential, system)
        drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
        if drift > 1e-5:
            sys.exit(f"order {order}: relative energy drift {drift:.2e}")
        times.append(1e6 * best / INTEGRATE_STEPS)
        del trajectory, energies  # else they stay alive while the next order is timed, and slow it
    return times


def energies(n):
    from qrf.classical import pin_frame
    from qrf.dynamics import integrate_reduced, kinetic_matrix

    point, potential, system = _star(n)
    times = []
    for samples, calls in ENERGIES_CALLS.items():
        trajectory = integrate_reduced(point, potential, system, (samples - 1) * INTEGRATE_DT, INTEGRATE_DT)
        values = trajectory.energies(potential, system)
        q, p = np.ascontiguousarray(trajectory.q).T, np.ascontiguousarray(trajectory.p).T
        reference = np.einsum("i...,ij,j...->...", p, kinetic_matrix(system, point.frame), p)
        reference = reference + potential(pin_frame(q, point.frame))
        if len(trajectory) != samples or values.tobytes() != reference.tobytes():
            sys.exit(f"{samples} samples: the energies differ from einsum on a sample-first p.T")

        def call():  # returns None: energies held into the next call read up to 20 % faster
            trajectory.energies(potential, system)

        best, _ = _best(call, calls)
        times.append(1e6 * best)
    return times


def prepare(n):
    from qrf.grids import Grid1D, random_wavefunction

    grid = Grid1D(n, STATE_BOX)
    axes = ("B", grid), ("C", grid)
    random_wavefunction(axes, np.random.default_rng(0))
    rngs = iter([np.random.default_rng(seed) for seed in (1, 2, 3)])
    best, _ = _best(lambda: random_wavefunction(axes, next(rngs)))
    for seed in (1, 2, 3):  # the timed draws again, seeded: a list of them would stay alive while timed
        psi = random_wavefunction(axes, np.random.default_rng(seed))
        if abs(psi.norm() - 1.0) > 1e-12:
            sys.exit(f"norm off 1 by {abs(psi.norm() - 1.0):.2e}")
    return [1e3 * best]


def wigner(n):
    from qrf.classical import FRAME_A, FRAME_C
    from qrf.switching import FrameSwitch, switch_frame
    from qrf.wigner import partial_trace, wigner_transform

    out = switch_frame(_draw(n), FrameSwitch(FRAME_A, FRAME_C))
    rho = partial_trace(out, "A")
    wigner_transform(rho)
    trace_time, _ = _best(lambda: partial_trace(out, "A"))
    transform_time, result = _best(lambda: wigner_transform(rho))
    if abs(result.integral() - 1.0) > 1e-4:
        sys.exit(f"Wigner integral off: {result.integral():.6f}")
    return [1e3 * trace_time, 1e3 * transform_time]


def switch(n):
    from qrf.classical import FRAME_A, FRAME_C
    from qrf.grids import fidelity
    from qrf.switching import FrameSwitch, switch_frame

    psi = _draw(n)
    times, outs = [], []
    for backend in ("parity-shear", "compositional"):
        sw = FrameSwitch(FRAME_A, FRAME_C, backend)
        switch_frame(psi, sw)
        best, out = _best(lambda: switch_frame(psi, sw))
        times.append(1e3 * best)
        outs.append(out)
    gap = 1.0 - fidelity(*outs)
    if gap > 1e-8:
        sys.exit(f"backend gap 1 - F = {gap:.2e}")
    return times


def csv(shape):
    from qrf import experiments
    from qrf.dynamics import OscillatorParams, analytic_oscillator_frame_a, analytic_oscillator_frame_c
    from qrf.wigner import closed_form_eigenstate_wigner, marginal_wigner, transformed_joint_wigner

    if shape.startswith("trajectory"):
        params = OscillatorParams(m_c=1e8, k_a=1.0, k_b=100.0, phi_b=math.pi / 2)
        t = np.arange(int(shape[len("trajectory"):])) * 1e-3
        arrays = (t, *analytic_oscillator_frame_c(params, t), *analytic_oscillator_frame_a(params, t))

        def write(path):
            experiments._write_csv(path, ["t", "x_A", "x_B", "q_B", "q_C"], arrays)
    else:
        if shape.startswith("ground"):
            x = np.linspace(-5.0, 5.0, int(shape[len("ground"):]))
            grid = closed_form_eigenstate_wigner(0, 1.0, x, x)
        else:
            x = np.linspace(-6.0, 6.0, int(shape[len("wigner"):]))
            grid = marginal_wigner(transformed_joint_wigner(1, 1, 1.0, 1.0), "B", x, x)
        arrays = (np.repeat(grid.x, grid.xi.shape[0]), np.tile(grid.xi, grid.x.shape[0]), grid.values.ravel())

        def write(path):
            experiments._write_wigner_csv(path, grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        write(path)
        best, _ = _best(lambda: write(path))
        back = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if not np.array_equal(back, np.column_stack(arrays)):
        sys.exit("the CSV does not read back to the written values")
    return [1e3 * best]


def classical_switch(shape):
    from qrf.classical import FRAME_A, FRAME_C, ReducedPhasePoint, classical_frame_switch, frame_map

    rng = np.random.default_rng(0)
    if shape == "point":
        rp = ReducedPhasePoint(FRAME_C, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2))
        q, p, calls = rp.q_rel[:, None], rp.p_rel[:, None], 1000

        def call():
            out = classical_frame_switch(rp, FRAME_A)
            return out.q_rel[:, None], out.p_rel[:, None]
    else:
        q, p = rng.uniform(-1, 1, (2, 2, int(shape[len("points"):])))
        calls = 1

        def call():
            return frame_map(q, p, FRAME_C, FRAME_A)
    call()
    best, (out_q, out_p) = _best(call, calls)
    if not (np.array_equal(out_q, [q[1] - q[0], -q[0]]) and np.array_equal(out_p, [p[1], -(p[0] + p[1])])):
        sys.exit("the switched points differ from the closed form")
    return [1e6 * best]


@dataclass(frozen=True)
class Kernel:
    metric: str
    unit: str
    size_name: str
    sizes: tuple
    run: Callable[[int | str], list]  # a module function: one size's times, one per series
    settings: dict
    series: tuple = ("",)  # one printed time each; a name suffixes the result key


KERNELS = {
    "evolve": Kernel(
        "evolve step time", "us per step", "n", (128, 256, 512), evolve,
        {"steps_per_call": {f"n{n}": s for n, s in EVOLVE_STEPS.items()}, "dt": EVOLVE_DT},
    ),
    "marginal": Kernel(
        "marginal_wigner time", "ms per marginal", "points", (51, 101, 201), marginal,
        {"levels": [1, 1], "alphas": [1.0, 1.0], "window": [-6.0, 6.0]},
    ),
    "integrate": Kernel(
        "integrate_reduced step time", "us per step", "N", (3, 5, 9), integrate,
        {"steps_per_call": INTEGRATE_STEPS, "dt": INTEGRATE_DT,
         "springs": "k = 1 from every particle to the last", "masses": 1.0, "frame": "last"},
        series=("order2", "order4"),
    ),
    "prepare": Kernel(
        "random_wavefunction time", "ms per call", "n", STATE_SIZES, prepare,
        {"length": STATE_BOX, "axes": 2, "seeds": [1, 2, 3]},
    ),
    "wigner": Kernel(
        "partial_trace and wigner_transform time", "ms per call", "n", STATE_SIZES, wigner,
        {"length": STATE_BOX, "seed": 0, "switch": "A -> C, parity-shear", "keep": "A"},
        series=("partial_trace", "wigner_transform"),
    ),
    "switch": Kernel(
        "switch_frame time", "ms per call", "n", STATE_SIZES, switch,
        {"length": STATE_BOX, "seed": 0, "switch": "A -> C"},
        series=("parity-shear", "compositional"),
    ),
    "csv": Kernel(
        "CSV writer time", "ms per file", "",
        ("wigner51", "wigner101", "wigner201", "ground121", "trajectory20001"), csv,
        {"wigner": "fig9 keep-B marginal, x and xi on [-6, 6]",
         "ground": "fig5 ground state, alpha = 1, x and xi on [-5, 5]",
         "trajectory": "fig3: t, x_A, x_B, q_B, q_C at dt = 1e-3",
         "writer": "_write_wigner_csv for the Wigner grids, _write_csv for the trajectory"},
    ),
    "classical-switch": Kernel(
        "classical frame switch time", "us per call", "", ("point", "points378", "points20001"),
        classical_switch,
        {"switch": "C -> A", "seed": 0, "coordinates": "uniform on [-1, 1]",
         "point": "one classical_frame_switch call, timed over 1000 calls",
         "trajectory": "one frame_map call on (2, K) arrays"},
    ),
    "energies": Kernel(
        "Trajectory.energies time", "us per call", "N", (3, 5, 9), energies,
        {"calls_per_batch": {f"samples{s}": c for s, c in ENERGIES_CALLS.items()},
         "dt": INTEGRATE_DT, "order": 2,
         "springs": "k = 1 from every particle to the last", "masses": 1.0, "frame": "last"},
        series=tuple(f"samples{s}" for s in ENERGIES_CALLS),
    ),
}


def child(function, src, size):
    """The child process: run one kernel function on SRC's qrf and print its times and version."""
    sys.path.insert(0, src)
    import qrf

    if Path(qrf.__file__).resolve().parent != (Path(src) / "qrf").resolve():
        sys.exit(f"asked for the qrf in {src}, imported {qrf.__file__}")
    print(*globals()[function](int(size) if size.isdigit() else size), qrf.__version__)


def measure(kernel, src, size):
    """One child's times, one per series, and the version of the qrf it imported."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARIABLES})
    args = [sys.executable, os.path.abspath(__file__), CHILD, kernel.run.__name__, src, str(size)]
    out = subprocess.run(args, env=env, check=True, capture_output=True, text=True).stdout
    *values, version = out.split()
    if len(values) != len(kernel.series):
        raise ValueError(f"expected {len(kernel.series)} times, the child printed {out!r}")
    return [float(value) for value in values], version


def fingerprint(src):
    """SRC's ``sources_sha256`` and ``git_head`` (module docstring)."""
    digest = hashlib.sha256()
    for path in sorted(Path(src, "qrf").glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode())
        digest.update(data)
    try:
        git = subprocess.run(["git", "-C", src, "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:  # no git on this machine
        git = None
    head = git.stdout.strip() if git and git.returncode == 0 else None
    return {"sources_sha256": digest.hexdigest(), "git_head": head}


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def environment():
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
        "numpy": np.__version__,
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
        "fingerprints": {label: fingerprint(os.path.abspath(src)) for label, src in trees},
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
    trees = {}
    for tree in args.trees:
        label, _, src = tree.partition("=")
        if not (label and src):
            parser.error(f"tree {tree!r} is not LABEL=SRC")
        if label in trees:
            parser.error(f"tree label {label!r} is given twice")
        if not os.path.isfile(os.path.join(src, "qrf", "__init__.py")):
            parser.error(f"tree {label!r}: {src!r} holds no qrf/__init__.py")
        trees[label] = src
    reports = [run_kernel(name, list(trees.items())) for name in names]
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"kernels": reports}, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] == [CHILD]:
        child(*sys.argv[2:])
    else:
        main()
