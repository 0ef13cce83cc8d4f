import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qrf.classical import (
    FRAME_A,
    FRAME_B,
    FRAME_C,
    FREE_POTENTIAL,
    FrameLabel,
    ParticleSystem,
    pin_frame,
    spring_potential,
)
from qrf.dynamics import OscillatorParams, kinetic_matrix
from qrf.errors import FrameMismatch, GridMismatch, InvalidStep, SameFrame
from qrf.grids import (
    MOMENTUM,
    POSITION,
    Grid1D,
    WaveFunction,
    change_representation,
    gaussian_state,
    ho_eigenstate,
    inner_product,
    product_state,
    random_wavefunction,
    to_matching,
    to_representation,
)
from qrf.observables import Observable
from qrf.physical import (
    GridHamiltonian,
    PhysicalState,
    momentum_substitution,
    physical_inner_product,
    physical_state,
    reduced_labels,
    reduced_quantum_hamiltonian,
    reexpress,
)

from oracles import (
    KOutOfRange,
    allocating_centered_fft,
    allocating_centered_ifft,
    constraint_surface_amplitude,
    contiguous_strang_steps,
    dense_total_momentum,
    fourier_matrix,
    ground_energy,
    meshgrid_momentum_substitution,
    trivialization_family_check,
    trivialized_reduction,
)

FRAMES = (FRAME_A, FRAME_B, FRAME_C)
PAIRS = [(start, target) for start in FRAMES for target in FRAMES if start != target]
SEEDS = st.integers(0, 2**32 - 1)


def random_state(grid, rng, frame=FRAME_A):
    labels = reduced_labels(frame)
    psi = random_wavefunction([(l, grid) for l in labels], rng, frame=frame)
    return physical_state(psi, frame)


def seeded_reduction(n, seed, frame, representation):
    """A seeded frame reduction on the L = 24 box, in the named representation."""
    labels = reduced_labels(frame)
    grid = Grid1D(n, 24.0)
    psi = random_wavefunction([(l, grid) for l in labels], np.random.default_rng(seed), frame=frame)
    if representation == "mixed":
        return change_representation(psi, labels[1], MOMENTUM)
    return to_representation(psi, representation)


class TestPhysicalState:
    def test_factory_normalizes(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        state = physical_state(psi, FRAME_A)
        assert state.canonical.norm() == pytest.approx(1.0, abs=1e-12)
        assert state.canonical.representation == (MOMENTUM, MOMENTUM)

    def test_axis_labels_must_match_frame(self, grid64, rng):
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        with pytest.raises(FrameMismatch):
            physical_state(psi, FRAME_B)
        # untagged, and no frame given
        for reduce in (physical_state, lambda psi: momentum_substitution(psi, FRAME_B)):
            with pytest.raises(FrameMismatch):
                reduce(psi)

    def test_commensurate_grids_required(self, grid64, rng):
        other = Grid1D(64, 18.0)
        psi = random_wavefunction([("B", grid64), ("C", other)], rng)
        with pytest.raises(GridMismatch):
            physical_state(psi, FRAME_A)


class TestReexpress:
    def test_round_trip(self, grid128, rng):
        state = random_state(grid128, rng)
        back = reexpress(reexpress(state, FRAME_C), FRAME_A)
        overlap = abs(physical_inner_product(back, state)) ** 2
        assert overlap >= 1.0 - 1e-8

    def test_same_frame_rejected(self, grid128, rng):
        for frame in FRAMES:
            state = random_state(grid128, rng, frame)
            with pytest.raises(SameFrame):
                reexpress(state, frame)

    def test_gaussian_substitution_closed_form(self, grid128):
        alpha_b, alpha_c = 1.2, 0.9
        prod = product_state(
            gaussian_state(grid128, "B", alpha=alpha_b),
            gaussian_state(grid128, "C", alpha=alpha_c),
            frame=FRAME_A,
        )
        moved = reexpress(physical_state(prod, FRAME_A), FRAME_C)
        p = grid128.momenta()
        p_a, p_b = np.meshgrid(p, p, indexing="ij")
        g_b = (1.0 / (alpha_b * np.pi)) ** 0.25 * np.exp(-(p_b**2) / (2 * alpha_b))
        h_c = (1.0 / (alpha_c * np.pi)) ** 0.25 * np.exp(-((-p_a - p_b) ** 2) / (2 * alpha_c))
        expected = g_b * h_c
        expected /= np.sqrt(np.sum(np.abs(expected) ** 2) * grid128.dp**2)
        assert np.max(np.abs(moved.canonical.amplitudes - expected)) <= 1e-6

    def test_norm_preserved_exactly(self, grid128, rng):
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng, frame=FRAME_A)
        psi = to_representation(psi, MOMENTUM)
        moved = momentum_substitution(psi, FRAME_B)
        assert moved.norm() == pytest.approx(psi.norm(), abs=1e-14)

    def test_errors_keep_their_order(self, grid64, rng):
        # the state's tag, then the same frame, then the frame's range: never frame_map's message
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng, frame=FRAME_A)
        with pytest.raises(ValueError, match="quantum reductions are defined for three particles"):
            momentum_substitution(psi, FrameLabel(3))
        with pytest.raises(SameFrame):
            momentum_substitution(psi, FRAME_A)
        mistagged = psi._with(psi.amplitudes, frame=FRAME_B)
        for new_frame in (FRAME_A, FRAME_B, FRAME_C, FrameLabel(3)):
            with pytest.raises(FrameMismatch):
                momentum_substitution(mistagged, new_frame)


class TestStridedGather:
    """The substitution permutes amplitudes without arithmetic, so its bytes are fixed.

    It gathers through ``frame_map``'s integer momentum block, wrapped into the
    window; the meshgrid reference solves the momentum constraint for each
    output point instead, so it stays independent of ``frame_map``.  At n = 8
    nearly every index wraps.  Bytes, not array_equal: equal values could
    still differ in the sign of a zero.
    """

    @pytest.mark.parametrize("n", [8, 16, 64, 128, 256])
    @given(seed=SEEDS, representation=st.sampled_from([POSITION, MOMENTUM, "mixed"]))
    @settings(max_examples=4, deadline=None)
    def test_matches_the_meshgrid_gather(self, n, seed, representation):
        for start, target in PAIRS:
            psi = seeded_reduction(n, seed, start, representation)
            out = momentum_substitution(psi, target)
            expected = meshgrid_momentum_substitution(psi, target)
            assert out.amplitudes.flags.c_contiguous
            assert out.labels == expected.labels == reduced_labels(target)
            assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()

    @pytest.mark.parametrize("n", [16, 64])
    @given(seed=SEEDS)
    @settings(max_examples=4, deadline=None)
    def test_perspective_neutral_state_sums_to_each_reduction(self, n, seed):
        # the constraint-surface embedding holds every frame's reduction at once
        for start, target in PAIRS:
            state = physical_state(seeded_reduction(n, seed, start, POSITION), start)
            reduced = constraint_surface_amplitude(state).sum(axis=target.index)
            expected = momentum_substitution(state.canonical, target)
            assert reduced.tobytes() == expected.amplitudes.tobytes()


class TestPhysicalInnerProduct:
    def test_normalization(self, grid128, rng):
        state = random_state(grid128, rng)
        assert physical_inner_product(state, state) == pytest.approx(1.0, abs=1e-12)

    def test_frame_independence(self, grid128, rng):
        s1 = random_state(grid128, rng)
        s2 = random_state(grid128, rng)
        base = physical_inner_product(s1, s2)
        for frame in (FRAME_B, FRAME_C):
            moved = physical_inner_product(reexpress(s1, frame), reexpress(s2, frame))
            assert abs(moved - base) <= 1e-8

    def test_mixed_frames_reconciled_automatically(self, grid128, rng):
        s1 = random_state(grid128, rng)
        s2 = random_state(grid128, rng)
        assert physical_inner_product(s1, reexpress(s2, FRAME_B)) == pytest.approx(
            physical_inner_product(s1, s2), abs=1e-10
        )

    def test_orthogonal_product_states(self, grid128):
        # opposite-parity factors integrate to zero overlap
        even = physical_state(
            product_state(
                ho_eigenstate(grid128, "B", 0), ho_eigenstate(grid128, "C", 0)
            ),
            FRAME_A,
        )
        odd = physical_state(
            product_state(
                ho_eigenstate(grid128, "B", 1), ho_eigenstate(grid128, "C", 0)
            ),
            FRAME_A,
        )
        assert abs(physical_inner_product(even, odd)) <= 1e-8


class TestObservableConsistency:
    def test_remaining_momentum_is_frame_invariant(self, grid128, rng):
        state = random_state(grid128, rng)
        value_a = Observable.momentum("B").expectation(state.canonical)
        moved = reexpress(state, FRAME_C)
        value_c = Observable.momentum("B").expectation(moved.canonical)
        assert abs(value_a - value_c) <= 1e-8

    def test_relative_position_dictionary(self, grid128, rng):
        state = random_state(grid128, rng)
        value_a = Observable.position("B").expectation(state.canonical)
        moved = reexpress(state, FRAME_C)
        relative = Observable.position("B") - Observable.position("A")
        assert abs(value_a - relative.expectation(moved.canonical)) <= 1e-6


class TestReducedQuantumHamiltonian:
    def test_hermiticity(self, grid64, rng):
        params = OscillatorParams()
        h = reduced_quantum_hamiltonian(
            FRAME_A, params.potential(), params.system(), [("B", grid64), ("C", grid64)]
        )
        psi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        phi = random_wavefunction([("B", grid64), ("C", grid64)], rng)
        assert abs(inner_product(psi, h.apply(phi)) - inner_product(h.apply(psi), phi)) <= 1e-10

    def test_free_moment_identity(self, grid128, rng):
        h = reduced_quantum_hamiltonian(
            FRAME_A, FREE_POTENTIAL, ParticleSystem(3), [("B", grid128), ("C", grid128)]
        )
        psi = random_wavefunction([("B", grid128), ("C", grid128)], rng)
        moments = (
            Observable.momentum("B", 2)
            + Observable.momentum("C", 2)
            + Observable.momentum("B") * Observable.momentum("C")
        ).expectation(psi)
        assert abs(h.expectation(psi) - moments) <= 1e-8

    def test_decoupled_ground_energy(self):
        params = OscillatorParams()  # unit masses and springs, heavy frame C
        grid = Grid1D(32, 12.0)
        h = reduced_quantum_hamiltonian(
            FRAME_A, params.potential(), params.system(), [("B", grid), ("C", grid)]
        )
        energy = ground_energy(h)
        expected = 0.5 * (params.omega_a + params.omega_b)
        assert abs(energy - expected) / expected <= 1e-3

    def test_axis_validation(self, grid64):
        params = OscillatorParams()
        with pytest.raises(FrameMismatch):
            reduced_quantum_hamiltonian(
                FRAME_A, params.potential(), params.system(), [("A", grid64), ("B", grid64)]
            )

    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C], ids=lambda f: f.name)
    def test_grids_match_scalar_loop_reference(self, grid16, frame):
        system = ParticleSystem(3, masses=[1.0, 2.0, 1.5])
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.5), (0, 1, 0.7)])
        labels = reduced_labels(frame)
        h = reduced_quantum_hamiltonian(frame, potential, system, [(l, grid16) for l in labels])
        others = [i for i in range(3) if i != frame.index]
        m = system.masses
        potential_ref = np.empty((16, 16))
        kinetic_ref = np.empty((16, 16))
        for i, (x1, p1) in enumerate(zip(grid16.positions(), grid16.momenta())):
            for j, (x2, p2) in enumerate(zip(grid16.positions(), grid16.momenta())):
                q = np.zeros(3)
                q[others] = x1, x2
                potential_ref[i, j] = potential(q)
                kinetic_ref[i, j] = (
                    p1**2 / (2 * m[others[0]])
                    + p2**2 / (2 * m[others[1]])
                    + (p1 + p2) ** 2 / (2 * m[frame.index])
                )
        assert np.array_equal(h.potential_grid, potential_ref)
        assert_allclose(h.kinetic_grid, kinetic_ref, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C], ids=lambda f: f.name)
    def test_kinetic_grid_matches_einsum_on_the_momentum_stack_bit_for_bit(self, grid64, frame):
        # the grid goes through reduced_energy, so a change there must keep
        # the bits of einsum over this particle-first momentum stack
        system = ParticleSystem(3, masses=[1.0, 2.0, 1.5])
        h = reduced_quantum_hamiltonian(
            frame, FREE_POTENTIAL, system, [(l, grid64) for l in reduced_labels(frame)]
        )
        momenta = np.stack(np.meshgrid(grid64.momenta(), grid64.momenta(), indexing="ij"))
        kinetic = np.einsum("i...,ij,j...->...", momenta, kinetic_matrix(system, frame), momenta)
        reference = kinetic + FREE_POTENTIAL(pin_frame(np.zeros_like(momenta), frame))
        assert h.kinetic_grid.tobytes() == reference.tobytes()


def unfused_strang(h, psi, t, dt):
    """Reference split-step loop: per-axis centered transforms, two half kicks a step."""
    arr = to_representation(psi, POSITION).amplitudes.copy()
    half_v = np.exp(-0.5j * dt * h.potential_grid)
    full_t = np.exp(-1j * dt * h.kinetic_grid)
    for _ in range(int(round(t / dt))):
        arr *= half_v
        arr = allocating_centered_fft(allocating_centered_fft(arr, 0), 1)
        arr *= full_t
        arr = allocating_centered_ifft(allocating_centered_ifft(arr, 0), 1)
        arr *= half_v
    return to_matching(WaveFunction(h.subsystems, arr, POSITION, frame=psi.frame), psi)


class TestEvolve:
    @staticmethod
    def hamiltonian(grid, grid_c=None):
        system = ParticleSystem(3, masses=[1.0, 2.0, 1.5])
        potential = spring_potential([(2, 0, 1.0), (2, 1, 2.5), (0, 1, 0.7)])
        axes = [("B", grid), ("C", grid_c or grid)]
        return reduced_quantum_hamiltonian(FRAME_A, potential, system, axes)

    @staticmethod
    def draw(h, rng, representation):
        psi = random_wavefunction(h.subsystems, rng, frame=FRAME_A)
        if representation == "momentum":
            return to_representation(psi, MOMENTUM)
        if representation == "mixed":
            return change_representation(psi, "C", MOMENTUM)
        return psi

    @pytest.mark.parametrize("representation", ["position", "momentum", "mixed"])
    @pytest.mark.parametrize("n", [32, 64])
    def test_matches_unfused_loop(self, rng, n, representation):
        h = self.hamiltonian(Grid1D(n, 16.0))
        psi = self.draw(h, rng, representation)
        out = h.evolve(psi, 0.4, 1e-2)
        expected = unfused_strang(h, psi, 0.4, 1e-2)
        assert out.representation == psi.representation
        assert out.frame == psi.frame
        gap = np.linalg.norm(out.amplitudes - expected.amplitudes)
        assert gap <= 1e-13 * np.linalg.norm(expected.amplitudes)

    @pytest.mark.parametrize("steps", [1, 7, 50])
    @pytest.mark.parametrize("representation", ["position", "momentum", "mixed"])
    @pytest.mark.parametrize("n_b, n_c", [(64, 64), (128, 128), (256, 256), (32, 64)])
    def test_matches_contiguous_loop_byte_for_byte(self, rng, n_b, n_c, representation, steps):
        # the padded work buffer changes the memory layout, not one operation
        h = self.hamiltonian(Grid1D(n_b, 16.0), Grid1D(n_c, 16.0))
        psi = self.draw(h, rng, representation)
        out = h.evolve(psi, steps * 1e-2, 1e-2)
        arr = contiguous_strang_steps(h, to_representation(psi, POSITION).amplitudes, steps, 1e-2)
        expected = to_matching(WaveFunction(h.subsystems, arr, POSITION, frame=psi.frame), psi)
        assert out.representation == expected.representation
        assert out.amplitudes.flags.c_contiguous
        assert out.amplitudes.tobytes() == expected.amplitudes.tobytes()

    def test_loop_allocates_nothing_per_step(self):
        n = 128
        h = self.hamiltonian(Grid1D(n, 16.0))
        psi = self.draw(h, np.random.default_rng(0), "position")
        h.evolve(psi, 1e-2, 1e-2)
        peaks = []
        for steps in (1, 50):
            tracemalloc.start()
            try:
                h.evolve(psi, steps * 1e-2, 1e-2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 4 * 2**10, peaks
        # four padded n^2 grids: the work buffer, both phase grids, the edge kick
        assert max(peaks) <= 4.5 * n * n * 16, peaks

    @pytest.mark.parametrize("t", [0.0, 0.004])
    def test_less_than_half_a_step_returns_input(self, grid16, rng, t):
        psi = random_wavefunction([("B", grid16), ("C", grid16)], rng, frame=FRAME_A)
        assert self.hamiltonian(grid16).evolve(psi, t, 1e-2) is psi

    @pytest.mark.parametrize(
        "t, dt",
        [
            (-0.5, 1e-2),
            (float("nan"), 1e-2),
            (float("inf"), 1e-2),
            (1.0, 0.0),
            (1.0, -1e-2),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1.0, 1e-320),
        ],
        ids=["t-negative", "t-nan", "t-inf", "dt-zero", "dt-negative", "dt-nan", "dt-inf", "step-count-overflow"],
    )
    def test_invalid_step_rejected(self, grid16, rng, t, dt):
        psi = random_wavefunction([("B", grid16), ("C", grid16)], rng, frame=FRAME_A)
        with pytest.raises(InvalidStep):
            self.hamiltonian(grid16).evolve(psi, t, dt)


class TestConstraintSurface:
    @pytest.mark.parametrize("frame", [FRAME_A, FRAME_B, FRAME_C], ids=lambda f: f.name)
    def test_assembled_state_is_annihilated(self, grid16, rng, frame):
        # truncated momentum support keeps the frame-momentum solve wrap-free,
        # where the grid realizes the constraint exactly
        n = grid16.n
        m = np.arange(n) - n // 2
        m1, m2 = np.meshgrid(m, m, indexing="ij")
        amp = np.exp(-(m1**2 + m2**2) / 8.0).astype(complex)
        amp[np.abs(m1 + m2) > n // 2 - 1] = 0.0
        labels = reduced_labels(frame)
        psi = WaveFunction([(l, grid16) for l in labels], amp, MOMENTUM, frame=frame)
        state = physical_state(psi, frame)
        full = constraint_surface_amplitude(state)
        # weighted momentum vector, rotated into the oracle's position basis
        vector = full.ravel() * np.sqrt(grid16.dp**3)
        back = fourier_matrix(grid16).conj().T
        rotation = np.kron(np.kron(back, back), back)
        vector = rotation @ vector
        subsystems = [("A", grid16), ("B", grid16), ("C", grid16)]
        residual = dense_total_momentum(subsystems).matrix @ vector
        assert np.max(np.abs(residual)) <= 1e-8


class TestTrivializationFamily:
    def test_base_member_reproduces_canonical(self, grid64, rng):
        state = random_state(grid64, rng)
        report = trivialization_family_check(state, 0.0)
        assert report.kappa == 0
        assert report.reduced_fidelity_vs_base == pytest.approx(1.0, abs=1e-12)
        # the k = 0 extraction is the reduction the re-expression machinery uses
        reduced = trivialized_reduction(state, 0)
        reduced /= np.linalg.norm(reduced) / np.sqrt(
            np.sum(np.abs(state.canonical.amplitudes) ** 2)
        )
        assert_allclose(reduced, state.canonical.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("kappa", [1, 5])
    def test_shifted_members_equivalent(self, grid64, rng, kappa):
        state = random_state(grid64, rng)
        report = trivialization_family_check(state, kappa * grid64.dp)
        assert report.reduced_fidelity_vs_base >= 1.0 - 1e-8
        assert report.oracle_action_residual <= 1e-8
        assert report.windowed_diagonal_deviation <= 1e-8
        assert report.oracle_offdiagonal_deviation <= 1e-8
        assert 0.0 < report.wrapped_fraction < 1.0

    def test_rejects_incommensurate_offset(self, grid64, rng):
        state = random_state(grid64, rng)
        with pytest.raises(KOutOfRange):
            trivialization_family_check(state, 0.5 * grid64.dp)

    def test_rejects_out_of_window_offset(self, grid64, rng):
        state = random_state(grid64, rng)
        with pytest.raises(KOutOfRange):
            trivialization_family_check(state, (grid64.n // 2 + 3) * grid64.dp)


GRID16 = Grid1D(16, 10.0)
AXES_A = [("B", GRID16), ("C", GRID16)]


def ground_a(representation=MOMENTUM, scale=1.0, grid=GRID16):
    """The frame-A product ground state, times ``scale``."""
    psi = product_state(ho_eigenstate(grid, "B", 0), ho_eigenstate(grid, "C", 0), frame=FRAME_A)
    psi = to_representation(psi, representation)
    return psi._with(psi.amplitudes * scale)


def free_hamiltonian_a(system=ParticleSystem(3), axes=AXES_A):
    return reduced_quantum_hamiltonian(FRAME_A, FREE_POTENTIAL, system, axes)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: PhysicalState(ground_a(POSITION)), ValueError, "momentum representation"),
        (lambda: PhysicalState(ground_a(scale=2.0)), ValueError, "not normalized"),
        (lambda: GridHamiltonian(AXES_A, np.zeros((16, 8)), np.zeros((16, 16))),
         ValueError, "do not match the subsystem shape"),
        (lambda: free_hamiltonian_a().apply(gaussian_state(GRID16, "B")),
         GridMismatch, "this Hamiltonian's grids"),
        (lambda: free_hamiltonian_a().evolve(ground_a(grid=Grid1D(32, 10.0)), 1.0),
         GridMismatch, "this Hamiltonian's grids"),
        (lambda: free_hamiltonian_a(ParticleSystem(4)), ValueError, "fixed to three particles"),
    ],
    ids=[
        "position-canonical", "unnormalized-canonical", "hamiltonian-shape",
        "foreign-state-apply", "foreign-state-evolve", "four-particles",
    ],
)
def test_each_documented_input_error_raises_its_type(build, error, message):
    with pytest.raises(error, match=message):
        build()
