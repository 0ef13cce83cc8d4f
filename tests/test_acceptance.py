"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one machine-readable pass/fail line; run with ``pytest -s``
to see them.  Timings are wall-clock for the criterion body and asserted
against the stated budgets.
"""

import time

import numpy as np

from qrf.classical import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    ExtendedPhasePoint,
    ReducedPhasePoint,
    classical_frame_switch,
    dirac_bracket,
)
from qrf.dynamics import (
    OscillatorParams,
    analytic_oscillator_frame_a,
    integrate_reduced,
    kinetic_matrix,
)
from qrf.experiments import emit_figure_data
from qrf.grids import (
    Grid1D,
    fidelity,
    ho_eigenstate,
    product_state,
    random_wavefunction,
)
from qrf.observables import Observable
from qrf.physical import (
    physical_inner_product,
    physical_state,
    reduced_quantum_hamiltonian,
    reexpress,
)
from qrf.switching import BACKENDS, FrameSwitch, switch_frame
from qrf.wigner import (
    closed_form_eigenstate_wigner,
    eigenstate_wigner_values,
    entanglement_entropy,
    marginal_wigner,
    negativity_volume,
    partial_trace,
    transformed_joint_wigner,
    wigner_of_state,
    wigner_transform,
)

from oracles import (
    commutation_paths,
    conjugate_observable,
    momentum_coordinate,
    position_coordinate,
    switched_ground_reduction,
    trivialization_family_check,
)

GRID = Grid1D(128, 20.0)
# the covariance-matrix entropy of the switched state: 0.5533032997205...
SWITCHED_GROUND_ENTROPY = switched_ground_reduction(1.0, 1.0, FRAME_A, "B").entropy
F1_NEGATIVITY = 0.2130613194


def report(index, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {index:2d} [{status}] {name}: {detail} ({elapsed:.2f}s / {budget:.0f}s)")
    assert passed, f"criterion {index} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {index} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


def test_criterion_01_classical_switch_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    forward_dev = 0.0
    round_trip_dev = 0.0
    for _ in range(1000):
        q_b, p_b, q_c, p_c = rng.uniform(-1, 1, 4)
        rp = ReducedPhasePoint(FRAME_A, [q_b, q_c], [p_b, p_c])
        out = classical_frame_switch(rp, FRAME_C)
        reference_q = np.array([-q_c, q_b - q_c])
        reference_p = np.array([-(p_b + p_c), p_b])
        forward_dev = max(
            forward_dev,
            float(np.max(np.abs(out.q_rel - reference_q))),
            float(np.max(np.abs(out.p_rel - reference_p))),
        )
        back = classical_frame_switch(out, FRAME_A)
        round_trip_dev = max(
            round_trip_dev,
            float(np.max(np.abs(back.q_rel - rp.q_rel))),
            float(np.max(np.abs(back.p_rel - rp.p_rel))),
        )
    elapsed = time.perf_counter() - started
    passed = forward_dev == 0.0 and round_trip_dev <= 1e-15
    report(
        1,
        "classical switch closed form",
        passed,
        f"forward dev {forward_dev:.1e}, round trip dev {round_trip_dev:.1e}",
        elapsed,
        1.0,
    )


def test_criterion_02_dirac_bracket_table():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-1, 1, 3)
        p = rng.uniform(-1, 1, 3)
        p -= p.mean()
        point = ExtendedPhasePoint(q, p)
        worst = max(
            worst,
            abs(dirac_bracket(position_coordinate(0), momentum_coordinate(0), point, FRAME_A)),
        )
        for i in (1, 2):
            for j in (1, 2):
                value = dirac_bracket(
                    position_coordinate(i), momentum_coordinate(j), point, FRAME_A
                )
                worst = max(worst, abs(value - (1.0 if i == j else 0.0)))
    elapsed = time.perf_counter() - started
    report(
        2,
        "Dirac bracket table",
        worst <= 1e-6,
        f"max deviation {worst:.2e} over 100 on-surface points",
        elapsed,
        1.0,
    )


def test_criterion_03_figure_trajectories(tmp_path):
    started = time.perf_counter()
    worst_identity = 0.0
    worst_integrator = 0.0
    for name in ("fig3", "fig4"):
        out = tmp_path / name
        emit_figure_data(name, out)
        data = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1)
        t, x_a, x_b, q_b, q_c = data.T
        worst_identity = max(
            worst_identity,
            float(np.max(np.abs(q_b - (x_b - x_a)))),
            float(np.max(np.abs(q_c + x_a))),
        )
        # integrate the same preset system from the switched initial data
        preset = dict(fig3=dict(k_a=1.0, k_b=100.0, a0=1.0, b0=1.0),
                      fig4=dict(k_a=100.0, k_b=1.0, a0=0.3, b0=1.0))[name]
        params = OscillatorParams(phi_a=0.0, phi_b=np.pi / 2, m_c=1e8, **preset)
        v_a = -params.a0 * params.omega_a * np.sin(params.phi_a)
        v_b = -params.b0 * params.omega_b * np.sin(params.phi_b)
        momenta = np.linalg.solve(
            2 * kinetic_matrix(params.system(), FRAME_C), np.array([v_a, v_b])
        )
        rp_c = ReducedPhasePoint(FRAME_C, [x_a[0], x_b[0]], momenta)
        trajectory = integrate_reduced(
            classical_frame_switch(rp_c, FRAME_A),
            params.potential(),
            params.system(),
            20.0,
            1e-3,
            order=4,
        )
        worst_integrator = max(
            worst_integrator,
            float(np.max(np.abs(trajectory.q[:, 0] - q_b))),
            float(np.max(np.abs(trajectory.q[:, 1] - q_c))),
        )
    # in-phase equal-frequency case freezes the relative coordinate
    frozen = OscillatorParams(k_a=1.0, k_b=1.0, a0=1.0, b0=1.0)
    q_b_frozen, _ = analytic_oscillator_frame_a(frozen, np.arange(0, 20.0, 1e-3))
    frozen_dev = float(np.max(np.abs(q_b_frozen)))
    elapsed = time.perf_counter() - started
    passed = worst_identity <= 1e-10 and worst_integrator <= 1e-4 and frozen_dev <= 1e-10
    report(
        3,
        "figure trajectory reproduction",
        passed,
        f"identity dev {worst_identity:.1e}, integrator dev {worst_integrator:.1e}, "
        f"frozen-case dev {frozen_dev:.1e}",
        elapsed,
        10.0,
    )


def test_criterion_04_switch_unitarity_and_backends():
    started = time.perf_counter()
    rng = np.random.default_rng(1004)
    norm_drift = 0.0
    backend_gap = 0.0
    for _ in range(100):
        psi = random_wavefunction([("B", GRID), ("C", GRID)], rng, frame=FRAME_A)
        outputs = []
        for backend in BACKENDS:
            out = switch_frame(psi, FrameSwitch(FRAME_A, FRAME_C, backend=backend))
            norm_drift = max(norm_drift, abs(out.norm() - psi.norm()))
            outputs.append(out)
        backend_gap = max(backend_gap, 1.0 - fidelity(*outputs))
    elapsed = time.perf_counter() - started
    passed = norm_drift <= 1e-10 and backend_gap <= 1e-8
    report(
        4,
        "quantum switch unitarity and backend equivalence",
        passed,
        f"norm drift {norm_drift:.1e}, backend fidelity gap {backend_gap:.1e} on 100 states",
        elapsed,
        60.0,
    )


def test_criterion_05_observable_dictionary():
    started = time.perf_counter()
    rng = np.random.default_rng(1005)
    sw = FrameSwitch(FRAME_A, FRAME_C)
    lines = [
        Observable.position("B"),
        Observable.position("C"),
        Observable.momentum("B"),
        Observable.momentum("C"),
    ]
    worst = 0.0
    for _ in range(20):
        psi = random_wavefunction([("B", GRID), ("C", GRID)], rng, frame=FRAME_A)
        switched = switch_frame(psi, sw)
        for obs in lines:
            before = obs.expectation(psi)
            after = conjugate_observable(obs, sw).expectation(switched)
            worst = max(worst, abs(before - after))
    elapsed = time.perf_counter() - started
    report(
        5,
        "observable dictionary",
        worst <= 1e-8,
        f"max expectation deviation {worst:.2e} over 4 lines x 20 states",
        elapsed,
        30.0,
    )


def test_criterion_06_physical_inner_product_forms():
    started = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(50):
        s1 = physical_state(random_wavefunction([("B", GRID), ("C", GRID)], rng), FRAME_A)
        s2 = physical_state(random_wavefunction([("B", GRID), ("C", GRID)], rng), FRAME_A)
        values = [physical_inner_product(s1, s2)]
        for frame in (FRAME_B, FRAME_C):
            values.append(
                physical_inner_product(reexpress(s1, frame), reexpress(s2, frame))
            )
        for i in range(3):
            for j in range(i + 1, 3):
                worst = max(worst, abs(values[i] - values[j]))
    elapsed = time.perf_counter() - started
    report(
        6,
        "physical inner product reduction forms",
        worst <= 1e-8,
        f"max pairwise deviation {worst:.2e} over 50 state pairs",
        elapsed,
        30.0,
    )


def test_criterion_07_trivialization_family():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    state = physical_state(random_wavefunction([("B", GRID), ("C", GRID)], rng), FRAME_A)
    worst_fidelity = 1.0
    worst_oracle = 0.0
    for kappa in (0, 1, 5):
        reportk = trivialization_family_check(state, kappa * GRID.dp)
        worst_fidelity = min(worst_fidelity, reportk.reduced_fidelity_vs_base)
        worst_oracle = max(
            worst_oracle,
            reportk.oracle_action_residual,
            reportk.windowed_diagonal_deviation,
            reportk.oracle_offdiagonal_deviation,
        )
    elapsed = time.perf_counter() - started
    passed = worst_fidelity >= 1.0 - 1e-8 and worst_oracle <= 1e-8
    report(
        7,
        "trivialization family k-independence",
        passed,
        f"min fidelity {worst_fidelity:.10f}, max oracle deviation {worst_oracle:.1e}",
        elapsed,
        60.0,
    )


def test_criterion_08_dynamics_frame_commutation():
    started = time.perf_counter()
    params = OscillatorParams()
    psi = product_state(
        ho_eigenstate(GRID, "A", 0), ho_eigenstate(GRID, "B", 0), frame=FRAME_C
    )
    sw = FrameSwitch(FRAME_C, FRAME_A)
    commutation = fidelity(*commutation_paths(psi, params, 1.0, dt=1e-3, sw=sw))
    h_c = reduced_quantum_hamiltonian(FRAME_C, params.potential(), params.system(), psi.subsystems)
    energy = h_c.expectation(psi)
    switched = switch_frame(psi, sw)
    h_a = reduced_quantum_hamiltonian(
        FRAME_A, params.potential(), params.system(), switched.subsystems
    )
    energy_dev = abs(h_a.expectation(switched) - energy) / energy
    expected = 0.5 * (params.omega_a + params.omega_b)
    eigen_dev = abs(energy - expected) / expected
    elapsed = time.perf_counter() - started
    passed = commutation >= 1.0 - 1e-6 and energy_dev <= 1e-6 and eigen_dev <= 1e-6
    report(
        8,
        "dynamics/frame-switch commutation",
        passed,
        f"fidelity {commutation:.10f}, energy dev {energy_dev:.1e}, "
        f"eigenvalue dev {eigen_dev:.1e}",
        elapsed,
        60.0,
    )


def test_criterion_09_frame_dependent_entanglement():
    started = time.perf_counter()
    product = product_state(
        ho_eigenstate(GRID, "A", 0), ho_eigenstate(GRID, "B", 0), frame=FRAME_C
    )
    product_entropy = entanglement_entropy(product, "A")
    switched = switch_frame(product, FrameSwitch(FRAME_C, FRAME_A))
    switched_entropy = entanglement_entropy(switched, "B")
    excited = product_state(
        ho_eigenstate(GRID, "A", 0), ho_eigenstate(GRID, "B", 1), frame=FRAME_C
    )
    excited_switched = switch_frame(excited, FrameSwitch(FRAME_C, FRAME_A))
    marginal_negativity = negativity_volume(
        wigner_transform(partial_trace(excited_switched, "B"))
    )
    elapsed = time.perf_counter() - started
    passed = (
        abs(product_entropy) <= 1e-10
        and switched_entropy > 0.0
        and abs(switched_entropy - SWITCHED_GROUND_ENTROPY) <= 1e-6
        and marginal_negativity < F1_NEGATIVITY
    )
    report(
        9,
        "frame-dependent entanglement",
        passed,
        f"product entropy {product_entropy:.1e}, switched entropy "
        f"{switched_entropy:.7f} (exact {SWITCHED_GROUND_ENTROPY:.10f}), marginal negativity "
        f"{marginal_negativity:.4f} < {F1_NEGATIVITY:.4f}",
        elapsed,
        120.0,
    )


def test_criterion_10_wigner_golden_forms():
    started = time.perf_counter()
    closed_dev = 0.0
    for level in (0, 1):
        psi = ho_eigenstate(GRID, "B", level, alpha=1.0)
        w = wigner_of_state(psi)
        x, xi = np.meshgrid(w.x, w.xi, indexing="ij")
        closed_dev = max(
            closed_dev, float(np.max(np.abs(w.values - eigenstate_wigner_values(level, 1.0, x, xi))))
        )
    origin_dev = max(
        abs(closed_form_eigenstate_wigner(0, 1.0).value_at(0, 0) - 1 / np.pi),
        abs(closed_form_eigenstate_wigner(1, 1.0).value_at(0, 0) + 1 / np.pi),
    )
    # oracle triangle: partial-trace route vs closed-form quadrature route
    alpha_a, alpha_b = 1.0, 1.0
    switched = switch_frame(
        product_state(
            ho_eigenstate(GRID, "A", 0, alpha=alpha_a),
            ho_eigenstate(GRID, "B", 0, alpha=alpha_b),
            frame=FRAME_C,
        ),
        FrameSwitch(FRAME_C, FRAME_A),
    )
    triangle_dev = 0.0
    for keep in ("B", "C"):
        transformed = wigner_transform(partial_trace(switched, keep))
        joint = transformed_joint_wigner(0, 0, alpha_a, alpha_b)
        keep_x = np.abs(transformed.x) <= 8.0
        keep_xi = np.abs(transformed.xi) <= 6.0
        x = transformed.x[keep_x][::4]
        xi = transformed.xi[keep_xi][::4]
        quadrature = marginal_wigner(joint, keep, x, xi)
        window = transformed.values[keep_x][:, keep_xi][::4, ::4]
        triangle_dev = max(triangle_dev, float(np.max(np.abs(quadrature.values - window))))
    elapsed = time.perf_counter() - started
    # closed-form and triangle devs read 1.7e-16 and 1.6e-16: each bound is about 600x its value
    passed = closed_dev <= 1e-13 and origin_dev <= 1e-9 and triangle_dev <= 1e-13
    report(
        10,
        "Wigner golden forms",
        passed,
        f"closed-form dev {closed_dev:.1e}, origin dev {origin_dev:.1e}, "
        f"oracle-triangle dev {triangle_dev:.1e}",
        elapsed,
        120.0,
    )
