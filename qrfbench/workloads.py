"""The four benchmark workloads: seeded inputs, timed jobs, correctness gates.

Each workload is a closed loop with one caller: the worker sends job i + 1
when job i returns.  A pass is the fixed-length job list ``jobs_per_pass``;
job ``i`` draws its inputs from ``numpy.random.default_rng([seed, i])``, so a
seed fixes every input of a run and the library sees only generated inputs.

``make_input`` is untimed and returns None for a draw it rejects, ``job`` is
timed, ``check`` is untimed and returns ``(failures, ref)``: a list of broken
gates and, where the workload has an analytic reference, the job's deviation
from it.  Workloads call only API that the planned refactors keep.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from qrf import cli
from qrf.classical import (
    FRAME_A,
    FRAME_C,
    ExtendedPhasePoint,
    ParticleSystem,
    ReducedPhasePoint,
    classical_frame_switch,
    dirac_bracket,
    spring_potential,
)
from qrf.dynamics import integrate_reduced, kinetic_matrix
from qrf.grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    fidelity,
    gaussian_state,
    product_state,
    random_wavefunction,
    to_representation,
)
from qrf.observables import Observable
from qrf.physical import (
    physical_inner_product,
    physical_state,
    reduced_quantum_hamiltonian,
    reexpress,
)
from qrf.switching import FrameSwitch, switch_frame
from qrf.wigner import entanglement_entropy, partial_trace, wigner_transform

# Box-adequacy contract of grids.py: edge/peak amplitude in both representations.
BOX_TOL = 1e-8
# Tolerances reused from `qrf suite` and tests/test_acceptance.py.
NORM_DRIFT_TOL = 1e-10
BACKEND_GAP_TOL = 1e-8
ROUND_TRIP_TOL = 1e-8
INNER_PRODUCT_TOL = 1e-8
CLASSICAL_ROUND_TRIP_TOL = 1e-12
WIGNER_NORM_TOL = 1e-4

# The three-body system of the quantum and classical workloads: masses of A,
# B, C and springs C--A, C--B, non-degenerate so no symmetry hides an error.
MASSES = (1.0, 2.0, 1.5)
SPRINGS = ((2, 0, 1.0), (2, 1, 3.0))

SWITCH_C_TO_A = FrameSwitch(FRAME_C, FRAME_A)
SWITCH_A_TO_C = FrameSwitch(FRAME_A, FRAME_C)
SWITCH_A_TO_C_COMPOSITIONAL = FrameSwitch(FRAME_A, FRAME_C, backend="compositional")


def _three_body():
    return ParticleSystem(3, masses=np.array(MASSES)), spring_potential(SPRINGS)


def _box_ratio(psi):
    return max(
        to_representation(psi, POSITION).boundary_ratio(),
        to_representation(psi, MOMENTUM).boundary_ratio(),
    )


def _box_failures(label, psi):
    worst = _box_ratio(psi)
    return [f"{label}: edge/peak {worst:.2e} > {BOX_TOL:g}"] if worst > BOX_TOL else []


def _gate(failures, label, value, limit):
    if not value <= limit:
        failures.append(f"{label}: {value:.3e} > {limit:.1e}")


class Figures:
    """The user-facing CLI path: ``qrf figure fig3`` ... ``fig9``, then ``qrf suite``.

    Chosen because it is the end-to-end path users run; its mix is
    heterogeneous (CSV formatting and hashing in fig3-5, marginal quadrature
    in fig6-9, dynamics in the suite), so ``run_s`` is its headline.
    """

    name = "figures"
    jobs_per_pass = 8

    def __init__(self, seed, out_dir):
        self.argvs = [["figure", f"fig{k}"] for k in range(3, 10)]
        self.argvs.append(["suite", "--seed", str(seed)])
        self.dirs = [Path(out_dir) / "figures" / argv[1] for argv in self.argvs]
        self.digests: dict[int, dict] = {}
        self.csv_bytes = 0
        self.csv_rows = 0

    def setup(self):
        for path in self.dirs:
            path.mkdir(parents=True, exist_ok=True)

    def make_input(self, index):
        slot = index % self.jobs_per_pass
        return slot, self.argvs[slot] + ["--out", str(self.dirs[slot])]

    def job(self, x, tr):
        rc = tr.call("cli.main", cli.main, x[1])
        if rc != 0:
            tr.count("cli.main.nonzero_exits")
        return rc

    def check(self, x, rc):
        slot, argv = x
        if rc != 0:
            return [f"qrf {' '.join(argv)} exited {rc}"], None
        folder = self.dirs[slot]
        manifest = json.loads((folder / "manifest.json").read_text(encoding="utf-8"))
        failures = []
        digests = {}
        for entry in manifest["files"]:
            data = (folder / entry["name"]).read_bytes()
            digests[entry["name"]] = hashlib.sha256(data).hexdigest()
            if digests[entry["name"]] != entry["sha256"]:
                failures.append(f"{entry['name']}: manifest checksum does not match the file")
        first = self.digests.setdefault(slot, digests)
        if first is not digests:
            # byte-identical to the first pass, so the read-back checks below still hold
            if digests != first:
                failures.append(f"{argv[1]}: data files differ from the first pass")
            return failures, None
        for entry in manifest["files"]:
            path = folder / entry["name"]
            if path.suffix == ".csv":
                self.csv_bytes += path.stat().st_size
                self.csv_rows += entry["rows"]
            if entry["columns"] == ["x", "xi", "w"]:
                rows = np.loadtxt(path, delimiter=",", skiprows=1)
                x = np.unique(rows[:, 0])
                xi = np.unique(rows[:, 1])
                integral = rows[:, 2].sum() * (x[1] - x[0]) * (xi[1] - xi[0])
                _gate(failures, f"{entry['name']} integral - 1", abs(integral - 1.0), WIGNER_NORM_TOL)
        return failures, None

    def work_counts(self):
        """Computed from the first pass's files; identical on every pass."""
        return {"experiments.csv_bytes": (self.csv_bytes, "B"), "experiments.csv_rows": (self.csv_rows, "count")}


class EvolveLarge:
    """The paper's pipeline on a 256^2 grid (L = 40), beyond per-core L2.

    Each complex array is 1 MiB.  Chosen to exercise the Hamiltonian build and
    the split-step evolution, where a step is four FFT passes over arrays that
    do not fit in cache.  Never touches the classical integrator or the runners.
    """

    name = "evolve-large"
    jobs_per_pass = 4
    n, length, t, dt = 256, 40.0, 1.0, 1e-2
    # max |<q> - q_exact| over 200 jobs (seeds 0-49) at the parent of the
    # benchmark commit; the gate allows 10x this.
    REF_BASELINE = 9.7e-5

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        self.system, self.potential = _three_body()
        self.grid = Grid1D(self.n, self.length)
        self.positions = [Observable.position("A"), Observable.position("B")]
        # exact linear flow of <q>, <p>: dq/dt = 2 M p, dp/dt = -K q in frame C
        matrix = kinetic_matrix(self.system, FRAME_C)
        generator = np.zeros((4, 4))
        generator[:2, 2:] = 2.0 * matrix
        generator[2:, :2] = -np.diag([k for _, _, k in SPRINGS])
        values, vectors = np.linalg.eig(generator)
        self.flow = np.real(vectors @ np.diag(np.exp(values * self.t)) @ np.linalg.inv(vectors))

    def make_input(self, index):
        rng = np.random.default_rng([self.seed, index])
        alpha = rng.uniform(0.8, 1.6, 2)
        center = rng.uniform(-2.0, 2.0, 2)
        kick = rng.uniform(-1.5, 1.5, 2)
        factors = [
            gaussian_state(self.grid, label, alpha[i], center[i], kick[i])
            for i, label in enumerate("AB")
        ]
        psi = product_state(*factors, frame=FRAME_C)
        return psi, np.concatenate([center, kick])

    def job(self, x, tr):
        psi = x[0]
        h = tr.call(
            "physical.reduced_quantum_hamiltonian",
            reduced_quantum_hamiltonian,
            FRAME_C,
            self.potential,
            self.system,
            psi.subsystems,
        )
        out = tr.call(f"physical.evolve.n{self.n}", h.evolve, psi, self.t, self.dt)
        switched = tr.call("switching.switch_frame.parity-shear", switch_frame, out, SWITCH_C_TO_A)
        entropy_c = tr.call("wigner.entanglement_entropy", entanglement_entropy, out, "A")
        entropy_a = tr.call("wigner.entanglement_entropy", entanglement_entropy, switched, "B")
        means = [tr.call("observables.expectation", obs.expectation, out) for obs in self.positions]
        return out, switched, entropy_c, entropy_a, np.array(means)

    def check(self, x, result):
        psi, moments = x
        out, switched, entropy_c, entropy_a, means = result
        failures = []
        _gate(failures, "evolve norm drift", abs(out.norm() - psi.norm()), NORM_DRIFT_TOL)
        _gate(failures, "switch norm drift", abs(switched.norm() - out.norm()), NORM_DRIFT_TOL)
        for label, state in (("input", psi), ("evolved", out), ("switched", switched)):
            failures += _box_failures(label, state)
        if not (math.isfinite(entropy_c) and math.isfinite(entropy_a)):
            failures.append(f"entropies not finite: {entropy_c}, {entropy_a}")
        ref = float(np.max(np.abs(means - (self.flow @ moments)[:2])))
        _gate(failures, "ref_error", ref, 10 * self.REF_BASELINE)
        return failures, ref


class SwitchSmall:
    """Many cheap calls on a 128^2 grid (L = 24): 256 KiB arrays stay in cache.

    Chosen so per-call overhead dominates: a change that adds per-call
    precomputation or reshuffles the representation helpers shows its cost
    here.

    random_wavefunction's parameter ranges cannot keep every switched image
    inside any 128^2 box (NOTES.md), so each draw is screened before its job:
    a draw whose switched image has edge/peak above SCREEN_TOL is rejected
    and counted, never run.  The tenfold margin below the gate covers the
    short evolution, which grows the ratio by under 10 %.
    """

    name = "switch-small"
    jobs_per_pass = 16
    n, length, t, dt = 128, 24.0, 0.1, 1e-2
    SCREEN_TOL = BOX_TOL / 10

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        grid = Grid1D(self.n, self.length)
        self.subsystems = (("B", grid), ("C", grid))
        system, potential = _three_body()
        # the switched states live in frame C, on axes A and B
        self.hamiltonian = reduced_quantum_hamiltonian(
            FRAME_C, potential, system, (("A", grid), ("B", grid))
        )
        q_b, q_c = Observable.position("B"), Observable.position("C")
        p_b, p_c = Observable.momentum("B"), Observable.momentum("C")
        self.observable = q_b * q_b + q_b * q_c + p_c * p_c + p_b * p_c
        x = grid.positions()
        p = grid.momenta()
        self.position_weight = (x[:, None] ** 2 + x[:, None] * x[None, :]) * grid.dx**2
        self.momentum_weight = (p[None, :] ** 2 + p[:, None] * p[None, :]) * grid.dp**2

    def make_input(self, index):
        draw = random_wavefunction(self.subsystems, np.random.default_rng([self.seed, index]), frame=FRAME_A)
        if _box_ratio(switch_frame(draw, SWITCH_A_TO_C)) > self.SCREEN_TOL:
            return None
        return np.random.default_rng([self.seed, index])

    def job(self, rng, tr):
        call = tr.call
        psi = call("grids.random_wavefunction", random_wavefunction, self.subsystems, rng, frame=FRAME_A)
        phi = call("grids.random_wavefunction", random_wavefunction, self.subsystems, rng, frame=FRAME_A)
        out = call("switching.switch_frame.parity-shear", switch_frame, psi, SWITCH_A_TO_C)
        alt = call("switching.switch_frame.compositional", switch_frame, psi, SWITCH_A_TO_C_COMPOSITIONAL)
        back = call("switching.switch_frame.parity-shear", switch_frame, out, SWITCH_C_TO_A)
        round_trip = call("grids.fidelity", fidelity, back, psi)
        backend = call("grids.fidelity", fidelity, out, alt)
        s1 = call("physical.physical_state", physical_state, psi, FRAME_A)
        s2 = call("physical.physical_state", physical_state, phi, FRAME_A)
        base = call("physical.physical_inner_product", physical_inner_product, s1, s2)
        moved = call(
            "physical.physical_inner_product",
            physical_inner_product,
            call("physical.reexpress", reexpress, s1, FRAME_C),
            call("physical.reexpress", reexpress, s2, FRAME_C),
        )
        value = call("observables.expectation", self.observable.expectation, psi)
        rho = call("wigner.partial_trace", partial_trace, out, "A")
        wigner = call("wigner.wigner_transform", wigner_transform, rho)
        entropy = call("wigner.entanglement_entropy", entanglement_entropy, out, "A")
        evolved = call(f"physical.evolve.n{self.n}", self.hamiltonian.evolve, out, self.t, self.dt)
        return psi, phi, out, alt, round_trip, backend, base, moved, value, rho, wigner, entropy, evolved

    def check(self, rng, result):
        psi, phi, out, alt, round_trip, backend, base, moved, value, rho, wigner, entropy, evolved = result
        failures = []
        _gate(failures, "switch norm drift", abs(out.norm() - psi.norm()), NORM_DRIFT_TOL)
        _gate(failures, "backend gap 1 - F", 1.0 - backend, BACKEND_GAP_TOL)
        _gate(failures, "round trip 1 - F", 1.0 - round_trip, ROUND_TRIP_TOL)
        _gate(failures, "inner product frame gap", abs(base - moved), INNER_PRODUCT_TOL)
        # independent reference: the same moments from the two densities
        position = to_representation(psi, POSITION).amplitudes
        momentum = to_representation(psi, MOMENTUM).amplitudes
        expected = float(
            np.sum(np.abs(position) ** 2 * self.position_weight)
            + np.sum(np.abs(momentum) ** 2 * self.momentum_weight)
        )
        _gate(failures, "observable vs densities", abs(value - expected), 1e-9 * max(1.0, abs(expected)))
        _gate(failures, "Wigner integral - 1", abs(wigner.integral() - 1.0), WIGNER_NORM_TOL)
        _gate(failures, "entropy SVD vs eigenvalues", abs(entropy - rho.entropy()), 1e-8)
        _gate(failures, "evolve norm drift", abs(evolved.norm() - out.norm()), NORM_DRIFT_TOL)
        for label, state in (
            ("input", psi),
            ("second input", phi),
            ("switched", out),
            ("switched (compositional)", alt),
            ("evolved", evolved),
        ):
            failures += _box_failures(label, state)
        return failures, None


class ClassicalEnsemble:
    """Seeded initial points of the three-body system, integrated classically.

    Chosen because it is the only workload where the classical and dynamics
    layers do most of the work: 2000 integrator steps per job, then energies,
    frame-switch round trips and a Dirac bracket.  Jobs cycle through orders
    2, 2, 4: an order-4 job costs about twice an order-2 job, and with a
    two-to-one mix the median job lies inside the order-2 cluster instead of
    in the gap between two equal clusters.
    """

    name = "classical-ensemble"
    jobs_per_pass = 9
    t_final, dt = 2.0, 1e-3
    # max relative energy drift over 200 jobs per order (seeds 0-49) at the
    # parent of the benchmark commit; the gate allows 10x this.
    DRIFT_BASELINE = {2: 9.7e-7, 4: 1.3e-12}

    def __init__(self, seed, out_dir):
        self.seed = seed

    def setup(self):
        self.system, self.potential = _three_body()

    def make_input(self, index):
        rng = np.random.default_rng([self.seed, index])
        point = ReducedPhasePoint(FRAME_C, rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 2))
        return point, 4 if index % 3 == 2 else 2

    def job(self, x, tr):
        point, order = x
        call = tr.call
        trajectory = call(
            "dynamics.integrate_reduced",
            integrate_reduced,
            point,
            self.potential,
            self.system,
            self.t_final,
            self.dt,
            order=order,
        )
        energies = call("dynamics.energies", trajectory.energies, self.potential, self.system)
        round_trip = 0.0
        for i in range(0, len(trajectory), 100):
            sample = trajectory.point(i)
            there = call("classical.classical_frame_switch", classical_frame_switch, sample, FRAME_A)
            back = call("classical.classical_frame_switch", classical_frame_switch, there, FRAME_C)
            round_trip = max(
                round_trip,
                float(np.max(np.abs(back.q_rel - sample.q_rel))),
                float(np.max(np.abs(back.p_rel - sample.p_rel))),
            )
        last = trajectory.point(len(trajectory) - 1)
        q = np.append(last.q_rel, 0.0)
        p = np.append(last.p_rel, -np.sum(last.p_rel))
        # {q_A, p_C}_D on the surface q_C = 0 is exactly -1
        bracket = call(
            "classical.dirac_bracket",
            dirac_bracket,
            lambda q, p: q[0],
            lambda q, p: p[2],
            ExtendedPhasePoint(q, p),
            FRAME_C,
        )
        return energies, round_trip, bracket

    def check(self, x, result):
        _, order = x
        energies, round_trip, bracket = result
        failures = []
        drift = float(np.max(np.abs(energies - energies[0])) / abs(energies[0]))
        _gate(failures, f"order-{order} energy drift", drift, 10 * self.DRIFT_BASELINE[order])
        _gate(failures, "frame-switch round trip", round_trip, CLASSICAL_ROUND_TRIP_TOL)
        _gate(failures, "Dirac bracket {q_A, p_C} + 1", abs(bracket + 1.0), 1e-8)
        return failures, drift if order == 2 else None


WORKLOADS = {w.name: w for w in (Figures, EvolveLarge, SwitchSmall, ClassicalEnsemble)}
